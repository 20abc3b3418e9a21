"""Model parameters, their validity rules, the one number rule and the seed rule.

The simulator is controlled by eleven scalars.  The default values are the
baseline configuration used throughout the analysis layer:

    T       5000    number of periods
    d       0.01    tick size of log-price moves
    r       0.001   per-step exponential decay of momentum (memory leak)
    Lambda  -2.0    baseline trading-intensity level
    k       10.0    sensitivity of trading intensity to momentum
    h       0.2     scale of the cubic direction-pressure increment
    a       -1.0    lowest root of the cubic
    b       0.02    middle root of the cubic -- the crash threshold
    c       1.0     highest root of the cubic
    log_p0  0.0     initial log-price
    x0      0.0     initial direction-pressure state

The cubic roots must satisfy a < b < c; the scale parameters d, r, k, h must
be strictly positive.  Construction rejects anything else, so every
ModelParams instance in the system is valid by construction.

Every number that comes from outside the package becomes a field through
``real`` or ``integer``: ModelParams, CrashConfig, SweepSpec, RngStream,
run_sweep's n_jobs and the CLI's config file all call them, and a seed's
range [0, 2**64) is checked by ``as_seed`` alone.  A real field takes
any finite real number, numpy's and Fraction among them, and stores it as
a float.  An integer field takes any integer, numpy's too, or a finite real
with no fractional part, and stores it as an int.  Neither takes a bool.
So no type holds its caller's spelling, and equal values give equal
artifact bytes: ``ModelParams(d=1)`` and ``ModelParams(d=1.0)`` write the
same summary.json.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields

import numpy as np


def real(value, name: str) -> float:
    """``value`` as a float if it is a finite real number and not a bool.

    An int beyond the float range is not finite.  Raises ValueError naming
    ``name`` otherwise.
    """
    # float and int are Reals too, named first because the numbers.Real
    # check alone costs about 0.5 us, paid per field of every sweep cell
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, (bool, np.bool_)):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{name} must be a finite real number (got {value!r})")


def integer(value, name: str) -> int:
    """``value`` as an int if it is an integer, or a finite real with no
    fractional part, and not a bool; raises ValueError naming ``name``
    otherwise."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
        try:
            if isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value):
                return int(value)
        except OverflowError:  # a Fraction beyond the float range is not finite
            pass
    raise ValueError(f"{name} must be an integer (got {value!r})")


def as_seed(value, name: str = "seed") -> int:
    """``value`` as an int seed: an integer in [0, 2**64), spelled any way
    ``integer`` accepts; raises ValueError naming ``name`` otherwise."""
    seed = integer(value, name)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must be in [0, 2**64) (got {seed})")
    return seed


@dataclass(frozen=True)
class ModelParams:
    """Scalar parameters of the bubble/crash model."""

    T: int = 5000
    d: float = 0.01
    r: float = 0.001
    Lambda: float = -2.0
    k: float = 10.0
    h: float = 0.2
    a: float = -1.0
    b: float = 0.02
    c: float = 1.0
    log_p0: float = 0.0
    x0: float = 0.0

    def __post_init__(self) -> None:
        _check(self, PARAM_FIELDS)

    def with_value(self, name: str, value: float) -> "ModelParams":
        """Return a copy with one field replaced, checked by the rules that
        involve that field (the others hold already)."""
        if name not in PARAM_FIELDS:
            raise ValueError(f"unknown parameter field {name!r}")
        params = object.__new__(type(self))
        params.__dict__.update(self.__dict__, **{name: value})
        _check(params, (name,))
        return params

    def as_dict(self) -> dict:
        """Plain dict of all parameter fields, e.g. for JSON provenance."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


PARAM_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(ModelParams))


def _check(params: ModelParams, names: tuple[str, ...]) -> None:
    """Turn the named fields of ``params`` into numbers by the number rule,
    then check every range rule that involves one of them.  The order is
    fixed, number rule first, so a field fails with the same text whether it
    is given to ModelParams or to ``with_value``."""
    for name in names:
        number = integer if name == "T" else real
        object.__setattr__(params, name, number(getattr(params, name), f"ModelParams {name}"))
    if "T" in names and params.T < 2:
        raise ValueError(f"ModelParams requires T >= 2 (got T={params.T})")
    for name in ("d", "r", "k", "h"):
        if name in names and getattr(params, name) <= 0:
            raise ValueError(f"ModelParams requires {name} > 0 (got {name}={getattr(params, name)})")
    if ("a" in names or "b" in names or "c" in names) and not (params.a < params.b < params.c):
        raise ValueError(
            f"ModelParams requires a < b < c (got a={params.a}, b={params.b}, c={params.c})"
        )

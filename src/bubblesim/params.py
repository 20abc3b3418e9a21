"""Model parameters and their validity rules.

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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace


def finite_real(value) -> bool:
    """True for a real number, not a bool, whose float value is finite.

    nan, +-inf and an int beyond the float range (on which ``math.isfinite``
    raises ``OverflowError``) are not finite; a bool or a non-number is not
    real.  ModelParams, SweepSpec and CrashConfig share this one rule.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
        if not isinstance(self.T, int) or isinstance(self.T, bool):
            raise ValueError(f"ModelParams requires an integer T (got {self.T!r})")
        if self.T < 2:
            raise ValueError(f"ModelParams requires T >= 2 (got T={self.T})")
        for name in ("d", "r", "Lambda", "k", "h", "a", "b", "c", "log_p0", "x0"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"ModelParams requires a real number for {name} (got {value!r})")
            if not finite_real(value):
                raise ValueError(f"ModelParams requires finite values (got {name}={value!r})")
        for name in ("d", "r", "k", "h"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"ModelParams requires {name} > 0 (got {name}={getattr(self, name)})"
                )
        if not (self.a < self.b < self.c):
            raise ValueError(
                f"ModelParams requires a < b < c (got a={self.a}, b={self.b}, c={self.c})"
            )

    def with_value(self, name: str, value: float) -> "ModelParams":
        """Return a copy with one field replaced (revalidated on construction)."""
        if name not in PARAM_FIELDS:
            raise ValueError(f"unknown parameter field {name!r}")
        if name == "T":
            # sweeps pass every axis value as a float: accept 2000.0, not 2.7
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(f"ModelParams requires an integer T (got {value!r})")
            value = int(value)
        return replace(self, **{name: value})

    def as_dict(self) -> dict:
        """Plain dict of all parameter fields, e.g. for JSON provenance."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


PARAM_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(ModelParams))

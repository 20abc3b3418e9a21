"""Reference forms the test suite checks the package against.

The normal-CDF oracle here deliberately shares no code path with the package:
the package goes through the complementary error function, while this oracle
integrates the normal density directly with composite Gauss-Legendre
quadrature in extended precision, anchored by an asymptotic-series tail.
Agreement between the two is therefore evidence, not tautology.

The model oracles are the slow, literal forms of the dynamics: momentum as
the explicit O(n) weighted sum over the whole return history, and the
step-by-step update that advances an immutable state one period at a time,
drawing each uniform through its own ``RngStream.uniform()`` call.
``simulate_stepwise`` strings those steps together; the fused kernel
``bubblesim.simulate`` must reproduce it bit for bit.  Both share the
package's ``normal_cdf`` and ``cubic_increment``, which the acceptance gate
checks on their own.

The formatter oracles are the per-cell forms of the artifact writers: the
trajectory CSV built one cell at a time with ``str``/``format``, and SVG
polyline points scaled and formatted one point at a time.  The columnar
writers must produce the same text, character for character.  The CSV
reader's oracle parses the whole file as one string; the block reader must
return the same arrays and raise the same errors.

The sweep aggregation oracle reduces one value's seeds at a time with 1-D
``np.median``/``np.percentile`` calls; the batched reduction over the whole
grid must give the same bits.

The sweep payload oracle copies every field of the sweep's types by name;
the package builds its summaries and cells with ``dataclasses.asdict``, and
the two must serialize to the same JSON text.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from bubblesim import (
    CSV_HEADER,
    CrashConfig,
    ModelParams,
    PARAM_FIELDS,
    RngStream,
    SweepCell,
    SweepResult,
    Trajectory,
    ValueSummary,
    normal_cdf,
)
from bubblesim.io import ARTIFACT_VERSION, traj_column
from bubblesim.model import cubic_increment
from bubblesim.sweep import STAT_FIELDS

_LONG_SQRT_2PI = np.sqrt(2 * np.longdouble(np.pi))

# One period's observables; the field names are Trajectory's column names.
Row = namedtuple("Row", "t log_price momentum lam x trade direction n_trades")
_INT_COLUMNS = {"t", "trade", "direction", "n_trades"}


def _density(x: np.ndarray) -> np.ndarray:
    return np.exp(-(x * x) / 2) / _LONG_SQRT_2PI


def normal_tail(z: float, terms: int = 8) -> np.longdouble:
    """Phi(-z) for z >= 6 via the alternating asymptotic series.

    Phi(-z) = phi(z)/z * (1 - 1/z^2 + 3/z^4 - 15/z^6 + ...); truncation error
    is below the first omitted term, ~1e-8 relative at z = 6 and far smaller
    at z = 8, i.e. absolutely negligible against double precision.
    """
    if z < 6:
        raise ValueError(f"asymptotic tail needs z >= 6 (got {z})")
    zl = np.longdouble(z)
    total = np.longdouble(1)
    term = np.longdouble(1)
    for k in range(1, terms):
        term *= -(2 * k - 1) / (zl * zl)
        total += term
    return _density(zl) / zl * total


def normal_cdf_reference(grid: np.ndarray) -> np.ndarray:
    """Phi at every point of an ascending grid whose first point is <= -6.

    Panel-by-panel 10-point Gauss-Legendre integration of the density in
    longdouble, cumulated from the asymptotic tail at grid[0].  With panel
    widths of ~1e-3 the quadrature error is negligible; the dominant noise is
    the longdouble accumulation itself, a few 1e-17 absolute.
    """
    z = np.asarray(grid, dtype=np.longdouble)
    if z.ndim != 1 or len(z) < 2:
        raise ValueError("grid must be a 1-d array with at least 2 points")
    if np.any(np.diff(z) <= 0):
        raise ValueError("grid must be strictly ascending")
    if z[0] > -6:
        raise ValueError(f"grid must start at or below -6 (got {float(z[0])})")
    nodes, weights = np.polynomial.legendre.leggauss(10)
    nodes = nodes.astype(np.longdouble)[:, None]
    weights = weights.astype(np.longdouble)[:, None]
    half = (z[1:] - z[:-1]) / 2
    mid = (z[1:] + z[:-1]) / 2
    panel = half * np.sum(weights * _density(mid + half * nodes), axis=0)
    out = np.empty(len(z), dtype=np.longdouble)
    out[0] = normal_tail(float(-z[0]))
    out[1:] = out[0] + np.cumsum(panel)
    return out.astype(float)


def momentum_direct(returns: Sequence[float], r: float) -> float:
    """Momentum as the explicit weighted sum over a full return history.

    ``returns[i]`` is the log-return of period i+1; the most recent return
    gets weight exp(-r), the one before it exp(-2r), and so on.  O(n) per
    call, so O(T^2) along a trajectory -- the reference form that the
    incremental update is checked against, not the one used in simulation.
    """
    if r <= 0:
        raise ValueError(f"momentum_direct requires r > 0 (got r={r})")
    arr = np.asarray(returns, dtype=float)
    if arr.size == 0:
        return 0.0
    if not np.all(np.isfinite(arr)):
        raise ValueError("momentum_direct requires finite returns")
    weights = np.exp(-r * np.arange(arr.size, 0, -1, dtype=float))
    return float(weights @ arr)


def momentum_update(m_prev: float, last_return: float, r: float) -> float:
    """One incremental momentum step: exp(-r) * (m_prev + last_return)."""
    if r <= 0:
        raise ValueError(f"momentum_update requires r > 0 (got r={r})")
    return math.exp(-r) * (m_prev + last_return)


def intensity(params: ModelParams, m: float) -> float:
    """Trading intensity Lambda + k*m; any real, squashed by Phi before use."""
    return params.Lambda + params.k * m


def bernoulli(p: float, rng) -> int:
    """One Bernoulli(p) draw: consumes exactly one uniform, returns 0 or 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bernoulli requires p in [0, 1] (got p={p!r})")
    return 1 if rng.uniform() < p else 0


@dataclass(frozen=True, slots=True)
class SimState:
    """Evolving simulation state after period t."""

    t: int
    log_price: float
    prev_log_price: float
    momentum: float
    x: float
    n_trades: int
    ticks: int  # integer tick offset from log_p0; log_price == log_p0 + d*ticks


def initial_state(params: ModelParams) -> SimState:
    """State after the initial conditions, i.e. at the end of period t=1."""
    return SimState(
        t=1,
        log_price=params.log_p0,
        prev_log_price=params.log_p0,
        momentum=0.0,
        x=params.x0,
        n_trades=0,
        ticks=0,
    )


def step(params: ModelParams, state: SimState, rng) -> tuple[SimState, Row]:
    """Advance one period, consuming exactly two uniform draws.

    Follows the update order documented in ``bubblesim.model``.  The
    direction draw happens unconditionally, even on no-trade periods.
    ``rng`` is anything with a ``uniform()`` method.
    """
    if state.t < 1:
        raise ValueError(f"step requires state.t >= 1 (got t={state.t})")
    m = momentum_update(state.momentum, state.log_price - state.prev_log_price, params.r)
    lam = intensity(params, m)
    traded = bernoulli(normal_cdf(lam), rng)
    x = state.x + cubic_increment(params, m)
    z = bernoulli(normal_cdf(x), rng)
    ticks = state.ticks + (2 * z - 1) * traded
    log_price = params.log_p0 + params.d * ticks
    new_state = SimState(
        t=state.t + 1,
        log_price=log_price,
        prev_log_price=state.log_price,
        momentum=m,
        x=x,
        n_trades=state.n_trades + traded,
        ticks=ticks,
    )
    row = Row(
        t=new_state.t,
        log_price=log_price,
        momentum=m,
        lam=lam,
        x=x,
        trade=traded,
        direction=z,
        n_trades=new_state.n_trades,
    )
    return new_state, row


def simulate_stepwise(params: ModelParams, seed: int) -> Trajectory:
    """The whole trajectory for (params, seed), one ``step`` per period."""
    rng = RngStream(seed)
    state = initial_state(params)
    rest = Row(0, params.log_p0, 0.0, intensity(params, 0.0), params.x0, 0, 0, 0)
    rows = [rest, rest._replace(t=1)]
    for _ in range(params.T - 1):
        state, row = step(params, state, rng)
        rows.append(row)
    columns = {
        name: np.array(col, dtype=np.int64 if name in _INT_COLUMNS else float)
        for name, col in zip(Row._fields, zip(*rows))
    }
    return Trajectory(params=params, seed=seed, n_rng_draws=rng.n_draws, **columns)


def trajectory_csv_text(traj: Trajectory) -> str:
    """The trajectory CSV, one cell at a time: ``str(int(v))`` for the
    integer columns, ``format(float(v), ".17g")`` for the reals."""
    names = CSV_HEADER.split(",")
    columns = [traj_column(traj, name) for name in names]
    lines = [CSV_HEADER]
    for i in range(len(traj)):
        parts = []
        for name, col in zip(names, columns):
            if name in _INT_COLUMNS:
                parts.append(str(int(col[i])))
            else:
                parts.append(format(float(col[i]), ".17g"))
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def read_trajectory_csv_whole(path) -> dict[str, np.ndarray]:
    """The trajectory CSV read as one string: blank lines dropped, every
    row's field count checked before any cell is parsed, then each column
    parsed whole, left to right."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").split("\n") if ln]
    if not lines or lines[0] != CSV_HEADER:
        got = lines[0] if lines else "<empty file>"
        raise ValueError(f"bad trajectory CSV header in {path}: {got!r}")
    names = CSV_HEADER.split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != len(names):
            raise ValueError(f"row {i + 1} of {path} has {len(row)} fields, expected {len(names)}")
    columns = list(zip(*rows)) or [()] * len(names)
    return {
        name: np.array(col, dtype=np.int64 if name in _INT_COLUMNS else float)
        for name, col in zip(names, columns)
    }


def polyline_points(xs, ys, sx, sy) -> str:
    """SVG polyline points, one point at a time: each coordinate scaled as a
    Python float and formatted with two decimals."""
    return " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))


def value_summary(value: float, cells: Sequence[SweepCell]) -> ValueSummary:
    """The median and IQR of every field over one value's cells, one field
    at a time, over the stats present for it."""
    median: dict[str, float | None] = {}
    iqr: dict[str, float | None] = {}
    for name in STAT_FIELDS:
        vals = [
            getattr(c.stats, name)
            for c in cells
            if c.stats is not None and getattr(c.stats, name) is not None
        ]
        if vals:
            arr = np.asarray(vals, dtype=float)
            with np.errstate(invalid="ignore"):  # inf stats: the IQR is nan by design
                median[name] = float(np.median(arr))
                iqr[name] = float(np.percentile(arr, 75) - np.percentile(arr, 25))
        else:
            median[name] = None
            iqr[name] = None
    return ValueSummary(
        value=value,
        n_seeds=len(cells),
        n_failed=sum(1 for c in cells if c.error is not None),
        median=median,
        iqr=iqr,
    )


def sweep_payload_by_field(result: SweepResult, cfg: CrashConfig | None = None) -> dict:
    """The sweep JSON payload with each field of the parameters, the
    detector, the value summaries and the cells copied by name."""
    spec = result.spec
    detector = None if cfg is None else {
        "threshold": cfg.threshold,
        "peak_window": cfg.peak_window,
        "min_drawdown": cfg.min_drawdown,
    }
    return {
        "config": {
            "params": {name: getattr(spec.base, name) for name in PARAM_FIELDS},
            "detector": detector,
            "axis": spec.axis,
            "values": list(spec.values),
        },
        "seed": [int(s) for s in spec.seeds],
        "sweep": {
            "axis": spec.axis,
            "values": list(spec.values),
            "summaries": [
                {
                    "value": s.value,
                    "n_seeds": s.n_seeds,
                    "n_failed": s.n_failed,
                    "median": dict(s.median),
                    "iqr": dict(s.iqr),
                }
                for s in result.summaries
            ],
            "cells": [
                {
                    "value": c.value,
                    "seed": c.seed,
                    "stats": None if c.stats is None else {
                        name: getattr(c.stats, name) for name in STAT_FIELDS
                    },
                    "error": c.error,
                }
                for c in result.cells
            ],
        },
        "version": ARTIFACT_VERSION,
    }

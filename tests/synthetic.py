"""Hand-built trajectories with exactly known structure.

Detector tests need trajectories where the crossing, peak, trough, and
drawdown are known by construction, not measured.  Everything here is built
on the tick lattice so expected drawdowns are exact floats: a 10-tick drop
with d = 0.01 has drawdown 0.1, bit for bit.
"""

from __future__ import annotations

import numpy as np

from bubblesim import ModelParams, Trajectory


def make_trajectory(momentum, ticks, params: ModelParams | None = None) -> Trajectory:
    """Trajectory from per-period momentum values and integer tick offsets.

    Tick offsets may move by at most one per period (the lattice rule);
    trades and directions are inferred from the moves.
    """
    if params is None:
        params = ModelParams()
    if len(momentum) != len(ticks):
        raise ValueError("momentum and ticks must have the same length")
    momentum = np.asarray(momentum, dtype=float)
    ticks = np.asarray(ticks, dtype=np.int64)
    moves = np.diff(ticks, prepend=0)
    jumps = np.flatnonzero(np.abs(moves) > 1)
    if jumps.size:
        t = int(jumps[0])
        raise ValueError(f"tick offset jumps by {int(moves[t])} at t={t}; at most 1 allowed")
    trade = (moves != 0).astype(np.int64)
    return Trajectory(
        params=params,
        seed=0,
        t=np.arange(len(ticks), dtype=np.int64),
        log_price=params.log_p0 + params.d * ticks,
        momentum=momentum,
        lam=params.Lambda + params.k * momentum,
        x=np.zeros(len(ticks)),
        trade=trade,
        direction=(moves > 0).astype(np.int64),
        n_trades=np.cumsum(trade),
        n_rng_draws=0,
    )


def flat_trajectory(n: int = 12, params: ModelParams | None = None) -> Trajectory:
    """Constant log-price, zero momentum everywhere: nothing to detect."""
    return make_trajectory([0.0] * n, [0] * n, params)


def single_crash_trajectory(drop_ticks: int = 10, params: ModelParams | None = None) -> Trajectory:
    """One momentum crossing at t=10, price peak of 10 ticks at t=12, then a
    drop of ``drop_ticks`` reaching its floor at t=12+drop_ticks."""
    if not 1 <= drop_ticks <= 10:
        raise ValueError("drop_ticks must be in 1..10")
    n = 40
    momentum = [0.0] * n
    momentum[10] = 0.1
    ticks = []
    for t in range(n):
        if t <= 2:
            ticks.append(0)
        elif t <= 12:
            ticks.append(t - 2)  # ramp up to 10
        elif t <= 12 + drop_ticks:
            ticks.append(10 - (t - 12))
        else:
            ticks.append(10 - drop_ticks)
    return make_trajectory(momentum, ticks, params)


def double_crash_trajectory(params: ModelParams | None = None) -> Trajectory:
    """Two clean, well-separated episodes: crossings at t=10 and t=40, both
    peaking at 10 ticks and dropping all the way back to zero."""
    n = 70
    momentum = [0.0] * n
    momentum[10] = 0.1
    momentum[40] = 0.1
    ticks = [0] * n
    for t in range(3, 13):
        ticks[t] = t - 2
    for t in range(13, 23):
        ticks[t] = 10 - (t - 12)
    for t in range(33, 43):
        ticks[t] = t - 32
    for t in range(43, 53):
        ticks[t] = 10 - (t - 42)
    return make_trajectory(momentum, ticks, params)


def merged_crossing_trajectory(params: ModelParams | None = None) -> Trajectory:
    """Two crossings (t=10 and t=12) inside one unresolved episode: momentum
    dips below threshold and re-crosses before the price peak at t=14."""
    n = 40
    momentum = [0.0] * n
    momentum[10] = 0.1
    momentum[12] = 0.1  # momentum[11] back at 0: a second up-crossing
    ticks = []
    for t in range(n):
        if t <= 2:
            ticks.append(0)
        elif t <= 14:
            ticks.append(t - 2)  # ramp up to 12
        elif t <= 26:
            ticks.append(12 - (t - 14))
        else:
            ticks.append(0)
    return make_trajectory(momentum, ticks, params)


def alternating_trades_trajectory(T: int, params: ModelParams | None = None) -> Trajectory:
    """Every dynamic period trades, direction strictly alternating up/down."""
    momentum = [0.0] * (T + 1)
    ticks = [0, 0]
    for t in range(2, T + 1):
        ticks.append(1 if t % 2 == 0 else 0)
    return make_trajectory(momentum, ticks, params)

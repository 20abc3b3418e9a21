"""Core dynamics: momentum, trade arrivals, cubic direction pressure, tick prices.

The market state is driven by a single quantity, the momentum M_t: an
exponentially weighted moving average of past log-returns,

    M_t = sum_{s=1..t-1} exp(-r (t - s)) * (log P_s - log P_{s-1}),

maintained incrementally as M_t = exp(-r) * (M_{t-1} + last_return).  Momentum
feeds two channels:

  * trade arrivals -- a trade fires with probability Phi(Lambda + k M_t),
    so rising momentum raises liquidity (the "frenzy" channel);
  * direction pressure -- the state x_t accumulates a cubic increment
    h (M_t - a)(M_t - b)(M_t - c), positive for M_t inside (a, b)
    (trend following) and negative inside (b, c) (panic selling once
    momentum overheats past b).  A trade is an up-tick with probability
    Phi(x_t).

Prices live on a lattice: each trade moves the log-price by exactly one tick
d, up or down.  Internally the tick count is an integer, so every log-price
is log_p0 + d*j exactly, with no float drift over long runs.

Update order within one period t (fixed contract, two RNG draws per period,
always both, so RNG consumption is path-independent):

    1. M_t      from the previous period's return
    2. lambda_t = Lambda + k M_t
    3. dN_t     ~ Bernoulli(Phi(lambda_t))      [draw 1]
    4. x_t      = x_{t-1} + h (M_t-a)(M_t-b)(M_t-c)
    5. Z_t      ~ Bernoulli(Phi(x_t))           [draw 2, drawn even if dN_t=0]
    6. log P_t  = log P_{t-1} + d (2 Z_t - 1) dN_t

A Bernoulli(p) draw is 1 when its uniform u satisfies u < p, else 0.

Periods t=0 and t=1 are initial conditions (log P_0 = log P_1 = log_p0,
x_0 = x_1 = x0, M_1 = 0, N_1 = 0); the dynamics run for t = 2..T, so a full
simulation covers T+1 periods and consumes exactly 2*(T-1) uniforms.

``simulate`` is the only way to run the model: one loop that takes all
2*(T-1) uniforms from the stream at once and writes each period straight into
preallocated columns.  The step-by-step reference form of the same update
lives with the tests, which check the kernel against it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .params import ModelParams
from .rng import RngStream

_SQRT2 = math.sqrt(2.0)


def normal_cdf(z: float) -> float:
    """Standard normal CDF Phi(z), accurate to a few ulp over the real line."""
    if not math.isfinite(z):
        raise ValueError(f"normal_cdf requires a finite argument (got {z!r})")
    return 0.5 * math.erfc(-z / _SQRT2)


def cubic_increment(params: ModelParams, m: float) -> float:
    """Direction-pressure increment h (m-a)(m-b)(m-c).

    Positive for m strictly inside (a, b), negative strictly inside (b, c):
    crossing the middle root b flips accumulation into selling pressure.
    Exactly zero at the roots.
    """
    return params.h * (m - params.a) * (m - params.b) * (m - params.c)


@dataclass(frozen=True, slots=True)
class StepRecord:
    """Observables of one period: one row of a trajectory."""

    t: int
    log_price: float
    momentum: float
    lam: float
    x: float
    trade: int
    direction: int
    n_trades: int


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Full simulation output: per-period columns for t = 0..T.

    Columns are numpy arrays of length T+1 (two initial periods plus T-1
    dynamic ones).  ``record(t)`` and ``records`` expose row views.
    """

    params: ModelParams
    seed: int
    t: np.ndarray
    log_price: np.ndarray
    momentum: np.ndarray
    lam: np.ndarray
    x: np.ndarray
    trade: np.ndarray
    direction: np.ndarray
    n_trades: np.ndarray
    n_rng_draws: int

    def __len__(self) -> int:
        return len(self.t)

    def record(self, i: int) -> StepRecord:
        return StepRecord(
            t=int(self.t[i]),
            log_price=float(self.log_price[i]),
            momentum=float(self.momentum[i]),
            lam=float(self.lam[i]),
            x=float(self.x[i]),
            trade=int(self.trade[i]),
            direction=int(self.direction[i]),
            n_trades=int(self.n_trades[i]),
        )

    @property
    def records(self) -> list[StepRecord]:
        return [self.record(i) for i in range(len(self))]

    @classmethod
    def from_records(
        cls,
        params: ModelParams,
        seed: int,
        records: Iterable[StepRecord],
        n_rng_draws: int = 0,
    ) -> "Trajectory":
        """Pack an explicit record sequence into columns (used for fixtures)."""
        rows = list(records)
        if not rows:
            raise ValueError("Trajectory.from_records requires at least one record")
        return cls(
            params=params,
            seed=seed,
            t=np.array([rec.t for rec in rows], dtype=np.int64),
            log_price=np.array([rec.log_price for rec in rows], dtype=float),
            momentum=np.array([rec.momentum for rec in rows], dtype=float),
            lam=np.array([rec.lam for rec in rows], dtype=float),
            x=np.array([rec.x for rec in rows], dtype=float),
            trade=np.array([rec.trade for rec in rows], dtype=np.int64),
            direction=np.array([rec.direction for rec in rows], dtype=np.int64),
            n_trades=np.array([rec.n_trades for rec in rows], dtype=np.int64),
            n_rng_draws=n_rng_draws,
        )


def simulate(params: ModelParams, seed: int) -> Trajectory:
    """Run the full model for periods 0..T as a pure function of (params, seed).

    Identical inputs give bit-identical trajectories.  Consumes exactly
    2*(T-1) uniforms regardless of the realized path: the whole budget is
    taken from the stream up front, and period t reads the pair at 2(t-2).
    """
    rng = RngStream(seed)
    uniforms = rng.take(2 * (params.T - 1))

    log_p0, d, x0 = params.log_p0, params.d, params.x0
    Lambda, k = params.Lambda, params.k
    decay = math.exp(-params.r)
    n = params.T + 1

    lam0 = Lambda + k * 0.0  # Lambda + k M at M = 0, computed as every period computes it
    log_price = [log_p0] * n
    momentum = [0.0] * n
    lam = [lam0] * n
    x = [x0] * n
    trade = [0] * n
    direction = [0] * n

    # state at the end of period 1: equal initial prices, zero momentum
    lp = prev_lp = log_p0
    m = 0.0
    xt = x0
    ticks = 0
    pairs = iter(uniforms)
    for t, u_trade, u_dir in zip(range(2, n), pairs, pairs):
        m = decay * (m + (lp - prev_lp))
        lam_t = Lambda + k * m
        traded = 1 if u_trade < normal_cdf(lam_t) else 0
        xt = xt + cubic_increment(params, m)
        z = 1 if u_dir < normal_cdf(xt) else 0
        ticks += (2 * z - 1) * traded
        prev_lp = lp
        lp = log_p0 + d * ticks
        log_price[t] = lp
        momentum[t] = m
        lam[t] = lam_t
        x[t] = xt
        trade[t] = traded
        direction[t] = z

    trade_col = np.array(trade, dtype=np.int64)
    return Trajectory(
        params=params,
        seed=seed,
        t=np.arange(n, dtype=np.int64),
        log_price=np.array(log_price, dtype=float),
        momentum=np.array(momentum, dtype=float),
        lam=np.array(lam, dtype=float),
        x=np.array(x, dtype=float),
        trade=trade_col,
        direction=np.array(direction, dtype=np.int64),
        n_trades=np.cumsum(trade_col),
        n_rng_draws=rng.n_draws,
    )

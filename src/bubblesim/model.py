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

``simulate`` is the only way to run the model.  It takes all 2*(T-1)
uniforms from the stream at once, as one numpy array, then runs one loop that
carries only the state the path feeds back on: the momentum M_t, the pressure
x_t and the tick count.  Each period it stores M_t and tests the trade draw;
it tests the direction draw only when a trade fires.  The other columns
(lambda, x, direction, trade, n_trades, log P) are rebuilt afterwards as
whole numpy columns, with the loop's IEEE operations in the loop's order, so
every bit is the same as a period-by-period evaluation.  The direction column
tests its draws against a vectorised approximation of Phi and decides the
draws that fall within a guard of it with ``math.erfc`` again, so each outcome
is the one the scalar form gives.  The step-by-step reference form of the
update lives with the tests, which check the kernel against it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .rng import RngStream

_SQRT2 = math.sqrt(2.0)


def normal_cdf(z: float) -> float:
    """Standard normal CDF Phi(z), accurate to a few ulp over the real line."""
    if not math.isfinite(z):
        raise ValueError(f"normal_cdf requires a finite argument (got {z!r})")
    return 0.5 * math.erfc(-z / _SQRT2)


# Abramowitz & Stegun 7.1.26: erfc(w) = t*P(t)*exp(-w*w) + e, t = 1/(1 + p w),
# for w >= 0, with |e| <= 1.5e-7.  Half of it, Phi's error, is at most
# 7.5e-8 (7e-8 measured on 20,001 points of x in [-9, 9]), far inside the
# guard, so any draw farther than the guard from the approximation is decided
# as the exact scalar form would decide it.
_AS_P = 0.3275911
_AS_A = (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592)
_TIE_GUARD = 2.0**-20


def _below_normal_cdf(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise ``u < 0.5 * math.erfc(-x / sqrt 2)`` (the Bernoulli(Phi(x))
    outcome of each draw u) for finite float64 x, bit for bit.

    Phi comes from the vectorised A&S 7.1.26 form; the few draws within the
    guard of it are decided again with ``math.erfc``.  Overflows in ``w*w``
    for |x| near 1e308 are harmless (exp(-inf) is 0); callers silence them.
    """
    w = -x / _SQRT2
    aw = np.abs(w)
    t = 1.0 / (1.0 + _AS_P * aw)
    poly = _AS_A[0]
    for coef in _AS_A[1:]:
        poly = poly * t + coef
    tail = 0.5 * (poly * t) * np.exp(-(aw * aw))
    phi = np.where(w < 0.0, 1.0 - tail, tail)
    below = u < phi
    for i in np.flatnonzero(np.abs(u - phi) <= _TIE_GUARD).tolist():
        below[i] = u[i] < 0.5 * math.erfc(w[i])
    return below


def cubic_increment(params: ModelParams, m: float) -> float:
    """Direction-pressure increment h (m-a)(m-b)(m-c).

    Positive for m strictly inside (a, b), negative strictly inside (b, c):
    crossing the middle root b flips accumulation into selling pressure.
    Exactly zero at the roots.  Also applies elementwise to an array of m.
    """
    return params.h * (m - params.a) * (m - params.b) * (m - params.c)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Full simulation output: per-period columns for t = 0..T.

    Columns are numpy arrays of length T+1 (two initial periods plus T-1
    dynamic ones).
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


def simulate(params: ModelParams, seed: int) -> Trajectory:
    """Run the full model for periods 0..T as a pure function of (params, seed).

    Identical inputs give bit-identical trajectories.  Consumes exactly
    2*(T-1) uniforms regardless of the realized path: the whole budget is
    taken from the stream up front, and period t reads the pair at 2(t-2).
    Raises ``ValueError`` (from ``normal_cdf``) at the first period whose
    intensity or direction pressure is not finite, intensity first.
    """
    rng = RngStream(seed)
    u = rng.take(2 * (params.T - 1))
    u_dir = u[1::2]

    log_p0, d, x0 = params.log_p0, params.d, params.x0
    Lambda, k = params.Lambda, params.k
    h, a, b, c = params.h, params.a, params.b, params.c
    decay = math.exp(-params.r)
    erfc = math.erfc
    sqrt2 = _SQRT2
    n = params.T + 1

    # Only momentum and x feed back into the path, and x only at a trade.
    # The loop never raises: a non-finite value makes erfc nan and its test
    # false, and the check after the loop raises for the first one.
    momentum = [0.0] * n
    traded_at: list[int] = []
    lp = log_p0
    m = ret = 0.0
    xt = x0
    ticks = 0
    for t, u_trade in enumerate(u[0::2].tolist(), 2):
        m = decay * (m + ret)
        momentum[t] = m
        xt = xt + h * (m - a) * (m - b) * (m - c)
        if u_trade < 0.5 * erfc(-(Lambda + k * m) / sqrt2):
            ticks += 1 if float(u_dir[t - 2]) < 0.5 * erfc(-xt / sqrt2) else -1
            new_lp = log_p0 + d * ticks
            ret = new_lp - lp
            lp = new_lp
            traded_at.append(t)
        else:
            ret = 0.0  # the return of an unchanged finite price

    # The other columns, rebuilt whole with the loop's IEEE operations in
    # the loop's order: cumsum (add.accumulate) adds strictly left to right.
    mom = np.fromiter(momentum, float, n)
    trade = np.zeros(n, dtype=np.int64)
    trade[traded_at] = 1
    direction = np.zeros(n, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        lam = Lambda + k * mom
        increments = cubic_increment(params, mom[2:])
        x = np.concatenate(([x0], np.cumsum(np.concatenate(([x0], increments)))))
        bad = ~(np.isfinite(lam) & np.isfinite(x))
        if bad.any():  # normal_cdf raises on the first bad period, lam first
            t = int(bad.argmax())
            normal_cdf(float(lam[t]))
            normal_cdf(float(x[t]))
        direction[2:] = _below_normal_cdf(u_dir, x[2:])
        log_price = log_p0 + d * np.cumsum(trade * (2 * direction - 1))
    log_price[:2] = log_p0

    return Trajectory(
        params=params,
        seed=seed,
        t=np.arange(n, dtype=np.int64),
        log_price=log_price,
        momentum=mom,
        lam=lam,
        x=x,
        trade=trade,
        direction=direction,
        n_trades=np.cumsum(trade),
        n_rng_draws=rng.n_draws,
    )

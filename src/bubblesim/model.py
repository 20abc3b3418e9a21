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
every bit is the same as a period-by-period evaluation.

Both Bernoulli(Phi) decisions use one exact bracket table and one rule.  A
draw's bin gives two points of a fixed z grid: at or below the lower one the
scalar form 0.5*erfc(-z/sqrt 2) is at most the draw, at or above the upper
one it is above the draw, and only in between is ``math.erfc`` called.  The
loop first tests M_t against a per-bin floor that stands for the lower point
under its own rounding, then the intensity against the upper point.  So each
outcome is the one the scalar form gives.  The step-by-step reference form
of the update lives with the tests, which check the kernel against it bit
for bit.
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


# Exact brackets for the Bernoulli(Phi) decisions.  A draw u lies in bin
# j = floor(u * 1024), clipped to 0..1023, so j/1024 <= u < (j+1)/1024 for
# u in [0, 1).  _ZLO[j] is the last point of a fixed z grid (step 1/64) whose
# Phi, from normal_cdf's own expression, times 1 + 2**-40 is at most j/1024;
# _ZHI[j] is the first whose Phi times 1 - 2**-40 is at least (j+1)/1024.
# The margin covers erfc's error and the rounding of -s/sqrt 2 (together at
# most 41 * 2**-52 for |s| <= 9) at the grid point and at s, and Phi rises,
# so every s <= _ZLO[j] gives 0.5*erfc(-s/sqrt 2) <= u and every s >= _ZHI[j]
# gives it > u; beyond +-9 the computed Phi is below 1e-18 or exactly 1.0.
# Phi of the inner edges 1/1024 .. 1023/1024 lies within +-3.1, so a grid on
# [-4, 4] holds every end.  No Phi is <= 0 or > 1, so bin 0 has no lower end
# (-inf) and bin 1023 no upper one (+inf), which also decides the draws that
# the clip puts there (below 0, or 1 and above) as the scalar form does.
_BINS = 1024
_MARGIN = 2.0**-40


def _bracket_table() -> tuple[np.ndarray, np.ndarray]:
    z = np.arange(-256, 257) / 64.0
    phi = np.fromiter(map(normal_cdf, z.tolist()), float, len(z))
    edges = np.arange(_BINS + 1) / _BINS
    padded = np.concatenate(([-np.inf], z, [np.inf]))
    # indices into padded: the last point at or below each lower edge, the
    # first at or above each upper one
    lo = np.searchsorted(phi * (1.0 + _MARGIN), edges[:-1], side="right")
    hi = np.searchsorted(phi * (1.0 - _MARGIN), edges[1:], side="left") + 1
    return padded[lo], padded[hi]


_ZLO, _ZHI = _bracket_table()


def _bins(u: np.ndarray) -> np.ndarray:
    return np.clip(u * float(_BINS), 0.0, _BINS - 1.0).astype(np.intp)


def _below_normal_cdf(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise ``u < 0.5 * math.erfc(-x / sqrt 2)`` (the Bernoulli(Phi(x))
    outcome of each draw u) for finite float64 x, bit for bit.

    x at or beyond a bracket end of its draw's bin decides the draw; the few
    x inside the bracket are decided with ``normal_cdf``.
    """
    j = _bins(u)
    below = x >= _ZHI[j]
    for i in np.flatnonzero(~below & (x > _ZLO[j])).tolist():
        below[i] = u[i] < normal_cdf(x[i])
    return below


def _momentum_floor(Lambda: float, k: float) -> np.ndarray:
    """Per-bin momentum floors for k > 0.

    The loop's intensity ``Lambda + k * m``, rounded as the loop rounds it,
    never falls as m rises, and it is at most the bin's ``_ZLO`` for every
    m <= the bin's floor, so a draw in that bin gives no trade there.  Each
    floor is the quotient (_ZLO - Lambda) / k moved two ulps down, then
    checked with the loop's own operations; a floor that fails the check is
    dropped to -inf, which leaves its draws to the ``_ZHI`` test and erfc.

    The check is a guard that cannot fire while D = fl(_ZLO - Lambda) and
    the quotient q = fl(D / k) are normal numbers.  The division errs by at
    most half an ulp of q, and two ulps down leave the floor at least
    1.5 * 2**-53 * |q| below the real D / k (three quarters of an ulp when q
    is a power of two, whose lower neighbour is half an ulp away).  So the
    real k * floor lies more than 2**-53 * |D| below D, past the midpoint
    between D and the float below it, and fl(k * floor) is at most that
    float.  That float is at most the real _ZLO - Lambda, because D is the
    nearest float to it, so Lambda + fl(k * floor) rounds to at most the
    float _ZLO.  It did not fire on subnormal quotients either: none of
    20.5M bin floors with k in [1e305, 1.7e308], 4.4M of them on subnormal
    quotients, failed the check.
    """
    with np.errstate(over="ignore"):
        lo = np.nextafter(np.nextafter((_ZLO - Lambda) / k, -np.inf), -np.inf)
        lo[Lambda + k * lo > _ZLO] = -np.inf
    return lo


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
    u_trade, u_dir = u[0::2], u[1::2]

    log_p0, d, x0 = params.log_p0, params.d, params.x0
    Lambda, k = params.Lambda, params.k
    h, a, b, c = params.h, params.a, params.b, params.c
    decay = math.exp(-params.r)
    erfc = math.erfc
    sqrt2 = _SQRT2
    n = params.T + 1

    # Only momentum and x feed back into the path, and x only at a trade.
    # A trade draw is decided by its bin's floor and _ZHI, and by erfc only
    # in between.  Phi is written inline, not via normal_cdf, as the loop
    # must never raise: erfc takes nan and +-inf, and the check after the
    # loop raises for the first non-finite value, intensity first.
    j = _bins(u_trade)
    floor = _momentum_floor(float(Lambda), float(k))[j]
    zhi = _ZHI[j]
    momentum = [0.0] * n
    traded_at: list[int] = []
    lp = log_p0
    m = ret = 0.0
    xt = x0
    ticks = 0
    for t, low in enumerate(floor.tolist(), 2):
        m = decay * (m + ret)
        momentum[t] = m
        xt = xt + h * (m - a) * (m - b) * (m - c)
        if m > low and ((z := Lambda + k * m) >= zhi[t - 2] or u_trade[t - 2] < 0.5 * erfc(-z / sqrt2)):
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
        seed=rng.seed,
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

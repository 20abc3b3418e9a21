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

The uniforms come from RngStream, numpy's PCG64 (period 2^128), so a 64-bit
seed pins them bit for bit on every platform; its draw counter shows that a
run used a fixed, path-independent number of draws.

One private runner, ``_simulator()``, runs the model for ``simulate`` and
every sweep cell, and owns the rule for what its runs share.  The draws,
their bins and the trade draws' ``_ZHI`` depend on (seed, T) only, and the
trade draws' momentum floors on (seed, T, Lambda, k) only, so a runner keeps
its last draws while (seed, T) repeats and its last floors while (seed, T,
Lambda, k) does: a b sweep draws and floors each seed once, a Lambda sweep
draws it once, a T sweep shares nothing.  ``_path`` runs the loop and
finishes the run into a ``_Run``.

A run takes all 2*(T-1) uniforms from the stream at once, as one numpy array,
then runs one loop that carries only the state the path feeds back on: the
momentum M_t, the tick count, and x_t, which is read only at a trade.  The
momentum it carries already holds the last trade's return, so each period
only multiplies it by exp(-r), stores M_t and tests the trade draw.  Only at
a trade does it add the x increments since the last trade, in one step: the
one increment after a trade, else their closed-form sum over that stretch of
pure decay, which is a guess in floating point.  It then tests the direction
draw, adds the trade's return to the carried momentum and records the
trade's period and tick count.  One finishing step follows, for
``simulate`` and every sweep cell alike:

  * The momentum column, packed from the loop's list by ``struct``, with
    one zero rule: a zero M_t whose M_{t-1} is zero, t - 1 not a trade,
    becomes +0.0.  The update form adds the return +0.0 of a period without
    a trade, exp(-r) * (M_{t-1} + 0.0), which is +0.0 there even where the
    loop's exp(-r) * M_{t-1} keeps a -0.0.
  * The exact x column: x0 twice, then the cubic increments, summed in
    place by ``np.add.accumulate`` one by one in period order.
  * One finiteness rule: every lambda and x is finite exactly when x_T and
    lambda at M's min and max are.  A non-finite running sum never becomes
    finite again, and lambda = Lambda + k*M, rounded, never falls as M rises
    (k > 0); M's min and max are nan when any M is.  Only when that fails
    is the lambda column built, to find the first period whose intensity or
    pressure is not finite.
  * Every trade's direction before that period is decided again on the
    exact x.  If any guess was wrong, the run is done again from t = 2 in
    one exact pass, which adds each increment in period order, so its
    directions are the column's: a run takes at most two passes.  Then a
    bad period raises, intensity first.
  * log P is log_p0 at t = 0, 1, then log_p0 + d*ticks gathered by trade
    count, with log_p0 + d*0 before the first trade (not log_p0, so
    log_p0 = -0.0 gives +0.0 there, as a tick sum of 0 does).

The ``_Run`` holds params, log P, M and n_trades, all that ``summarize``
reads, so a sweep cell summarizes it as it is, and the x and trade columns.
``_Run.trajectory`` adds lambda, built with the loop's IEEE operations, and
direction and t, for ``simulate``.  All 2*(T-1) draws are binned in one
pass; the trade and direction bins are its even and odd views.

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
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import ModelParams, as_seed, integer

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


def _below_normal_cdf(u: np.ndarray, x: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Elementwise ``u < 0.5 * math.erfc(-x / sqrt 2)`` (the Bernoulli(Phi(x))
    outcome of each draw u) for finite float64 x, bit for bit; j is
    ``_bins(u)``.

    x at or beyond a bracket end of its draw's bin decides the draw; the few
    x inside the bracket are decided with ``normal_cdf``.
    """
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


class RngStream:
    """Counted stream of uniforms in [0, 1) from a 64-bit seed; unbuffered,
    so however it is split into calls it gives the same values."""

    __slots__ = ("seed", "n_draws", "_gen")

    def __init__(self, seed: int):
        self.seed = as_seed(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))
        self.n_draws = 0

    def uniform(self) -> float:
        """Next uniform draw in [0, 1); advances the stream by exactly one."""
        self.n_draws += 1
        return self._gen.random()

    def take(self, n: int) -> np.ndarray:
        """The next n draws as a float64 array, equal to n calls of
        ``uniform()``; advances by n.  n follows the integer rule, and a call
        that raises draws and counts nothing."""
        n = integer(n, "take n")
        if n < 0:
            raise ValueError(f"take requires n >= 0 (got n={n})")
        u = self._gen.random(n)
        self.n_draws += n  # only once the draws exist
        return u

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, n_draws={self.n_draws})"


def simulate(params: ModelParams, seed: int) -> Trajectory:
    """Run the full model for periods 0..T as a pure function of (params, seed).

    Identical inputs give bit-identical trajectories.  Consumes exactly
    2*(T-1) uniforms regardless of the realized path: the whole budget is
    taken from the stream up front, and period t reads the pair at 2(t-2).
    Raises ``ValueError`` (from ``normal_cdf``) at the first period whose
    intensity or direction pressure is not finite, intensity first.
    """
    return _simulator()(params, seed).trajectory()


def _simulator():
    """A runner ``run(params, seed)`` giving the ``_Run`` of that run, which
    shares draws and floors between its calls by the module docstring's rule;
    it holds one seed's at a time, and a call that raises keeps them."""
    drawn = floored = draws = floor = None  # drawn: (seed, T); floored: + (Lambda, k)

    def run(params: ModelParams, seed: int) -> _Run:
        nonlocal drawn, floored, draws, floor
        key = (as_seed(seed), params.T)
        if key != drawn:
            rng = RngStream(seed)
            u = rng.take(2 * (params.T - 1))
            j = _bins(u)
            draws, drawn = (rng, u[0::2], u[1::2], j[0::2], j[1::2], _ZHI[j[0::2]]), key
        key += (params.Lambda, params.k)
        if key != floored:
            floor, floored = _momentum_floor(params.Lambda, params.k)[draws[3]].tolist(), key
        return _path(params, draws, floor)

    return run


def _path(params: ModelParams, draws: tuple, floor: list) -> _Run:
    """The run of ``params`` on the draws and floors that ``_simulator``
    holds for it, finished into its log price, momentum, x, n_trades and
    trade columns.  Raises ``ValueError`` (from ``normal_cdf``) at the first
    period whose intensity or pressure is not finite, intensity first.

    The loop carries the momentum with the last trade's return added, and
    the finishing step sets to +0.0, as the update form gives it, each zero
    M_t after a zero M_{t-1} with no trade at t - 1.  The first pass guesses
    x at each trade; only after a wrong guess does an exact pass run the
    whole path again (module docstring).  Each pass turns its per-period and
    per-trade lists into arrays and drops them before the x column is built:
    a T = 10**6 run peaks at about 247 MB.
    """
    _, u_trade, u_dir, _, j_dir, zhi = draws
    log_p0, d, x0, r = params.log_p0, params.d, params.x0, params.r
    Lambda, k = params.Lambda, params.k
    h, a, b, c = params.h, params.a, params.b, params.c
    decay = math.exp(-r)
    erfc = math.erfc
    sqrt2 = _SQRT2
    n = params.T + 1
    # F(m) = g3 m^3 - g2 m^2 + g1 m, each g over 1 - decay**j = -expm1(-j r):
    # over L periods of pure decay from momentum m1 to m_t the increments
    # sum to F(m1) - F(decay m_t) - g0 L
    g3 = h / -math.expm1(-3.0 * r)
    g2 = h * (a + b + c) / -math.expm1(-2.0 * r)
    g1 = h * (a * b + b * c + c * a) / -math.expm1(-r)
    g0 = h * a * b * c

    # Only momentum and x feed back into the path, and x only at a trade.
    # A trade draw is decided by its bin's floor and _ZHI, and by erfc only
    # in between.  Phi is written inline, not via normal_cdf, as the loop
    # must never raise: erfc takes nan and +-inf, and the finiteness test
    # after the loop raises for the first non-finite value.
    for exact in (False, True):
        momentum = [0.0] * n
        traded_at: list[int] = []
        tick_counts = [0]  # before the first trade and after each
        lp = log_p0
        m = 0.0  # M_t, and after a trade at t, M_t plus its return
        xt = x0
        ticks = 0
        last = 1  # the last trade's period (1 before any)
        for t, low in enumerate(floor, 2):
            m = decay * m
            momentum[t] = m
            if m > low and ((z := Lambda + k * m) >= zhi[t - 2] or u_trade[t - 2] < 0.5 * erfc(-z / sqrt2)):
                if t == last + 1:
                    xt = xt + h * (m - a) * (m - b) * (m - c)
                elif exact:
                    for ms in momentum[last + 1:t + 1]:
                        xt = xt + h * (ms - a) * (ms - b) * (ms - c)
                elif decay == 1.0:  # the stretch's momentum stays m
                    xt = xt + (t - last) * (h * (m - a) * (m - b) * (m - c))
                else:
                    m1, q = momentum[last + 1], decay * m
                    xt = xt + ((m1 * (m1 * (m1 * g3 - g2) + g1) - q * (q * (q * g3 - g2) + g1)) - g0 * (t - last))
                ticks += 1 if float(u_dir[t - 2]) < 0.5 * erfc(-xt / sqrt2) else -1
                new_lp = log_p0 + d * ticks
                m = m + (new_lp - lp)
                lp = new_lp
                traded_at.append(t)
                tick_counts.append(ticks)
                last = t
        mom = _packed(momentum)
        traded = np.fromiter(traded_at, np.intp, len(traded_at))
        counts = np.fromiter(tick_counts, np.int64, len(tick_counts))
        del momentum, traded_at, tick_counts
        # The update form adds the return +0.0 of a period without a trade,
        # decay * (m + 0.0), where the loop takes decay * m.  They differ
        # only after a zero momentum in such a period, where the form gives
        # +0.0 and the loop can keep a -0.0, so those zeros become +0.0
        # (before the first trade every momentum is +0.0 already).  No
        # decision of the loop can differ: the sign of a zero changes none
        # of m > low, z >= zhi, erfc(+-0) (of z, or of an x that a zero root
        # makes a zero of either sign) or a trade's m + (new_lp - lp), whose
        # return is never -0.0: new_lp = log_p0 + d*ticks is not, and x - y
        # is -0.0 only when x is.
        zero = mom == 0.0
        zero[traded] = False
        mom[1:][zero[:-1]] = 0.0
        x = _x(params, mom)
        bad = n  # the first period whose intensity or pressure is not finite
        if not (math.isfinite(Lambda + k * float(mom.min()))
                and math.isfinite(Lambda + k * float(mom.max())) and math.isfinite(x[-1])):
            lam = _lam(params, mom)
            bad = int((~(np.isfinite(lam) & np.isfinite(x))).argmax())
        at = traded[:np.searchsorted(traded, bad)]
        below = _below_normal_cdf(u_dir[at - 2], x[at], j_dir[at - 2])
        if np.array_equal(below, counts[1:len(at) + 1] > counts[:len(at)]):
            break
    if bad < n:
        normal_cdf(float(lam[bad]))  # raises on the first bad period, lam first
        normal_cdf(float(x[bad]))
    trade = np.zeros(n, dtype=np.int64)
    trade[traded] = 1
    n_trades = np.cumsum(trade)
    with np.errstate(over="ignore"):
        log_price = (log_p0 + d * counts)[n_trades]
    log_price[:2] = log_p0
    return _Run(params, draws, log_price, mom, x, n_trades, trade)


_PACK = 8192


def _packed(values: list) -> np.ndarray:
    """The float64 array of ``values``, bit for bit, packed by ``struct`` in
    slices of ``_PACK`` floats.  One slice packs 5,000 floats in about 60% of
    the time ``np.fromiter`` takes; one argument tuple of a million floats
    packs slower than ``fromiter``, slices of 8,192 faster."""
    out = np.empty(len(values))
    for i in range(0, len(values), _PACK):
        part = values[i:i + _PACK]
        struct.pack_into(f"{len(part)}d", out, 8 * i, *part)
    return out


def _lam(params: ModelParams, mom: np.ndarray) -> np.ndarray:
    """The lambda column of the momentum column ``mom``, bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        return params.Lambda + params.k * mom


def _x(params: ModelParams, mom: np.ndarray) -> np.ndarray:
    """The x column of the momentum column ``mom``, its increments added one
    by one in period order, as the step-by-step update adds them."""
    x = np.empty(len(mom))
    x[0] = x[1] = params.x0
    with np.errstate(over="ignore", invalid="ignore"):
        x[2:] = cubic_increment(params, mom[2:])
        np.add.accumulate(x[1:], out=x[1:])
    return x


class _Run(NamedTuple):
    """One finished run: what ``summarize`` and ``detect_crashes`` read of a
    Trajectory, and the x and trade columns the finishing step built;
    ``trajectory`` adds lambda, direction and t."""

    params: ModelParams
    draws: tuple
    log_price: np.ndarray
    momentum: np.ndarray
    x: np.ndarray
    n_trades: np.ndarray
    trade: np.ndarray

    def trajectory(self) -> Trajectory:
        """Every column, for ``simulate``."""
        params, mom, x = self.params, self.momentum, self.x
        rng, _, u_dir, _, j_dir, _ = self.draws
        direction = np.zeros(len(mom), dtype=np.int64)
        direction[2:] = _below_normal_cdf(u_dir, x[2:], j_dir)
        return Trajectory(
            params=params,
            seed=rng.seed,
            t=np.arange(len(mom), dtype=np.int64),
            log_price=self.log_price,
            momentum=mom,
            lam=_lam(params, mom),
            x=x,
            trade=self.trade,
            direction=direction,
            n_trades=self.n_trades,
            n_rng_draws=rng.n_draws,
        )

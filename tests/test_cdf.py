"""Standard normal CDF against the independent quadrature oracle, and the
bracketed Bernoulli(Phi) decisions against the scalar form."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bubblesim import ModelParams, RngStream, normal_cdf, simulate
from bubblesim.model import _ZHI, _ZLO, _below_normal_cdf, _bins, _momentum_floor
from oracles import normal_cdf_reference, normal_tail


def test_oracle_self_checks():
    # the reference itself must be trustworthy before it judges anything
    grid = np.linspace(-8.0, 8.0, 2001)
    ref = normal_cdf_reference(grid)
    mid = ref[len(grid) // 2]  # z = 0
    assert abs(mid - 0.5) < 5e-16
    assert abs(ref[0] - 6.22096057427178e-16) < 1e-23  # Phi(-8), known value
    # total mass: lower tail + integral + upper tail, good to a couple ulps
    # of 1.0 (1 - ref[-1] itself is cancellation-limited, don't test that)
    assert abs(ref[-1] + float(normal_tail(8.0)) - 1.0) < 2.3e-16
    # strictly increasing until the values saturate near 1.0 in double
    assert np.all(np.diff(ref) >= 0)
    assert np.all(np.diff(ref[grid <= 6.0]) > 0)


def test_matches_oracle_on_a_dense_grid():
    grid = np.linspace(-8.0, 8.0, 2001)
    ref = normal_cdf_reference(grid)
    ours = np.array([normal_cdf(float(z)) for z in grid])
    assert np.max(np.abs(ours - ref)) <= 1e-12


def test_symmetry_and_midpoint():
    assert normal_cdf(0.0) == 0.5
    for z in np.linspace(0.0, 8.0, 501):
        assert abs(normal_cdf(float(z)) + normal_cdf(float(-z)) - 1.0) <= 1e-15


def test_monotone_and_bounded():
    grid = np.linspace(-10.0, 10.0, 4001)
    vals = [normal_cdf(float(z)) for z in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert normal_cdf(-40.0) == 0.0  # underflows cleanly, no exception
    assert normal_cdf(40.0) == 1.0


def test_known_anchor_values():
    # the two probabilities quoted for a baseline step at rest
    assert normal_cdf(-2.0) == pytest.approx(0.022750, abs=5e-7)
    assert normal_cdf(0.004) == pytest.approx(0.501596, abs=5e-7)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_are_rejected(bad):
    with pytest.raises(ValueError):
        normal_cdf(bad)


# ------------------------------------------- direction draws, decided whole


def _scalar_below(u: float, x: float) -> bool:
    return u < 0.5 * math.erfc(-x / math.sqrt(2.0))


def _decide(u: list[float], x: list[float]) -> list[bool]:
    with np.errstate(over="ignore"):  # as inside simulate: w*w overflows near 1e308
        u = np.array(u, dtype=float)
        return _below_normal_cdf(u, np.array(x, dtype=float), _bins(u)).tolist()


_EDGE_X = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
           *(s * m for m in (8.0, 8.3, 9.0, 10.0, 20.0, 26.5, 38.5, 40.0, 1e308) for s in (1.0, -1.0))]
_DRAW = st.sampled_from(("uniform", "tie", "below tie", "above tie"))


def _draw_for(x: float, kind: str, uniform: float) -> float:
    """A uniform draw, or one exactly at the scalar form's Phi(x) or next to it."""
    tie = 0.5 * math.erfc(-x / math.sqrt(2.0))
    if kind == "uniform":
        return uniform
    return {"tie": tie, "below tie": math.nextafter(tie, -1.0), "above tie": math.nextafter(tie, 2.0)}[kind]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(
    st.tuples(
        st.one_of(st.sampled_from(_EDGE_X), st.floats(-40.0, 40.0),
                  st.floats(allow_nan=False, allow_infinity=False)),
        _DRAW,
        st.floats(0.0, 1.0, exclude_max=True),
    ),
    max_size=40,
))
@example([(x, kind, 0.5) for x in _EDGE_X for kind in ("uniform", "tie", "below tie", "above tie")])
def test_direction_draws_are_decided_like_the_scalar_form(cases):
    x = [c[0] for c in cases]
    u = [_draw_for(*c) for c in cases]
    assert _decide(u, x) == [_scalar_below(ui, xi) for ui, xi in zip(u, x)]


def _phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# draws at every bin edge j/1024 and next to it
_EDGE_U = sorted({v for j in range(1025)
                  for v in (j / 1024, math.nextafter(j / 1024, -1.0), math.nextafter(j / 1024, 2.0))})


def test_the_bracket_table_holds_on_every_bin():
    margin = 2.0**-40
    grid = np.arange(-576, 577) / 64.0
    phis = [_phi(z) for z in grid.tolist()]
    assert all(p <= q for p, q in zip(phis, phis[1:]))  # Phi rises on the grid
    assert len(_ZLO) == len(_ZHI) == 1024
    assert _ZLO[0] == -math.inf and _ZHI[1023] == math.inf
    for j, (zlo, zhi) in enumerate(zip(_ZLO.tolist(), _ZHI.tolist())):
        assert zlo < zhi
        if j > 0:
            assert zlo in grid
            assert _phi(zlo) * (1.0 + margin) <= j / 1024
            assert _phi(zlo + 1 / 64) * (1.0 + margin) > j / 1024  # the last such point
        if j < 1023:
            assert zhi in grid
            assert _phi(zhi) * (1.0 - margin) >= (j + 1) / 1024
            assert _phi(zhi - 1 / 64) * (1.0 - margin) < (j + 1) / 1024  # the first


def test_draws_at_every_bin_edge_are_decided_like_the_scalar_form():
    ends = np.concatenate((_ZLO[1:], _ZHI[:-1]))
    x = np.unique(np.concatenate((
        np.linspace(-9.5, 9.5, 1901), ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
    )))
    phis = np.array([_phi(xi) for xi in x.tolist()])
    for ui in _EDGE_U:
        u = np.full(len(x), ui)
        assert np.array_equal(_below_normal_cdf(u, x, _bins(u)), ui < phis), ui


def _loop_trades(m: float, low: float, zhi: float, u: float, Lambda: float, k: float) -> bool:
    """The trade test of simulate's loop, with the floor and _ZHI of u's bin."""
    return m > low and ((z := Lambda + k * m) >= zhi or u < 0.5 * math.erfc(-z / math.sqrt(2.0)))


def _scalar_trades(m: float, u: float, Lambda: float, k: float) -> bool:
    return u < 0.5 * math.erfc(-(Lambda + k * m) / math.sqrt(2.0))


_MAX = sys.float_info.max


def _scalar_flip(u: float, Lambda: float, k: float) -> float:
    """The largest m (bisected over the doubles) at which the scalar form
    still gives no trade, between the smallest and largest finite m."""
    def key(v):  # doubles in order as integers
        i = int(np.float64(v).view(np.int64))
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)

    def value(i):
        return float(np.int64(i if i >= 0 else (-i) | -0x8000000000000000).view(np.float64))

    below, above = key(-_MAX), key(_MAX)
    if _scalar_trades(value(below), u, Lambda, k) or not _scalar_trades(value(above), u, Lambda, k):
        return value(below)
    while above - below > 1:
        mid = (below + above) // 2
        if _scalar_trades(value(mid), u, Lambda, k):
            above = mid
        else:
            below = mid
    return value(below)


_EXTREME_LAMBDA = [0.0, -2.0, math.nextafter(-2.0, 0.0), 1e6, -1e6, 1e300, -1e300, _MAX, -_MAX]
_EXTREME_K = [1e-300, 1e300, 5e-324, _MAX, 10.0, 1.0]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    Lambda=st.one_of(st.sampled_from(_EXTREME_LAMBDA), st.floats(-10.0, 10.0),
                     st.floats(-1e300, 1e300)),
    k=st.one_of(st.sampled_from(_EXTREME_K), st.floats(1e-3, 1e3), st.floats(1e-300, 1e300)),
    u=st.one_of(st.sampled_from(_EDGE_U[1:-2]), st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
)
@example(Lambda=1e300, k=1e-300, u=0.5)
@example(Lambda=-1e300, k=1e-300, u=0.5)
@example(Lambda=-2.0, k=10.0, u=0.0)
@example(Lambda=-2.0, k=10.0, u=math.nextafter(1.0, 0.0))
def test_momentum_bounds_decide_trades_like_the_scalar_form(Lambda, k, u):
    j = int(_bins(np.array([u]))[0])
    low, zhi = float(_momentum_floor(Lambda, k)[j]), float(_ZHI[j])
    with np.errstate(over="ignore"):  # the m at which the intensity reaches zhi
        reach = float(np.float64(zhi - Lambda) / k)
    flip = _scalar_flip(u, Lambda, k)
    ms = [-math.inf, math.inf, 0.0, -0.0]
    for m in (low, reach, flip):
        ms += [m, math.nextafter(m, -math.inf), math.nextafter(m, math.inf)]
    for m in ms:
        assert _loop_trades(m, low, zhi, u, Lambda, k) == _scalar_trades(m, u, Lambda, k), (m, low, zhi)


@pytest.mark.parametrize("Lambda, k", [(-2.0, 10.0), (math.nextafter(-2.0, 0.0), 10.0), (0.0, 1.0),
                                       (1e6, 1e-3), (-1e300, 1e300), (3.0, 1e-300)])
def test_momentum_bounds_are_finite_wherever_the_table_is(Lambda, k):
    # a floor dropped to -inf where the quotient is finite sends every draw
    # of its bin past the cheap reject; each floor holds under the loop's
    # own rounding
    floor = _momentum_floor(Lambda, k)
    assert np.isfinite(floor[1:]).all() and floor[0] == -math.inf
    assert all(Lambda + k * m <= z for m, z in zip(floor[1:].tolist(), _ZLO[1:].tolist()))


def _counting_erfc(monkeypatch) -> list[float]:
    calls: list[float] = []
    erfc = math.erfc

    def spy(v):
        calls.append(v)
        return erfc(v)

    monkeypatch.setattr(math, "erfc", spy)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_erfc_decides_only_the_draws_inside_their_bracket(monkeypatch, seed):
    params = ModelParams(T=3000)
    u = RngStream(seed).take(2 * (params.T - 1))
    calls = _counting_erfc(monkeypatch)
    traj = simulate(params, seed)
    j_trade, j_dir = _bins(u[0::2]), _bins(u[1::2])
    m, lam, x = traj.momentum[2:], traj.lam[2:], traj.x[2:]
    trade_draws = (m > _momentum_floor(params.Lambda, params.k)[j_trade]) & (lam < _ZHI[j_trade])
    direction_draws = (x > _ZLO[j_dir]) & (x < _ZHI[j_dir])
    # the loop's guess at each trade, the check of each trade's exact x, and
    # the direction column: erfc only inside the bracket for the last two
    checked = direction_draws[traj.trade[2:] == 1].sum()
    assert len(calls) == trade_draws.sum() + traj.n_trades[-1] + checked + direction_draws.sum()
    assert trade_draws.sum() < 0.1 * (params.T - 1)  # the floor rejects most periods


def test_an_intensity_at_its_upper_bracket_end_trades_without_erfc(monkeypatch):
    for seed in range(5):
        j = int(_bins(RngStream(seed).take(1))[0])
        Lambda = float(_ZHI[j])  # the first period's intensity, as M_2 = 0
        calls = _counting_erfc(monkeypatch)
        traj = simulate(ModelParams(T=2, Lambda=Lambda), seed)
        assert traj.lam[2] == Lambda and traj.trade[2] == 1
        assert -Lambda / math.sqrt(2.0) not in calls

"""Step semantics, trajectory structure, and the model's hard invariants.

The step, intensity and Bernoulli tests exercise the step-by-step reference
form in ``oracles``; the kernel tests below check that ``simulate`` equals
that reference bit for bit, so the step semantics hold for the kernel too.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bubblesim import (
    ModelParams,
    RngStream,
    Trajectory,
    normal_cdf,
    read_trajectory_csv,
    simulate,
    write_trajectory_csv,
)
from bubblesim import model
from bubblesim.model import _simulator, cubic_increment
from oracles import SimState, bernoulli, initial_state, intensity, simulate_stepwise, step

COLUMNS = ("t", "log_price", "momentum", "lam", "x", "trade", "direction", "n_trades")


class FixedUniforms:
    """Scripted stand-in for RngStream: returns given values in order."""

    def __init__(self, values):
        self._values = list(values)
        self.n_draws = 0

    def uniform(self):
        self.n_draws += 1
        return self._values.pop(0)


# ---------------------------------------------------------------- intensity


def test_intensity_worked_examples():
    assert intensity(ModelParams(), 0.0) == -2.0
    assert intensity(ModelParams(), 0.02) == pytest.approx(-1.8, abs=1e-15)
    assert intensity(ModelParams(Lambda=-1.5), 0.05) == pytest.approx(-1.0, abs=1e-15)


# ---------------------------------------------------------------- cubic


def test_cubic_zero_at_roots_exactly():
    p = ModelParams()
    assert cubic_increment(p, p.a) == 0.0
    assert cubic_increment(p, p.b) == 0.0
    assert cubic_increment(p, p.c) == 0.0


def test_cubic_worked_examples():
    p = ModelParams()
    assert cubic_increment(p, 0.0) == pytest.approx(0.004, abs=1e-15)
    # past the middle root the increment flips to selling pressure
    assert cubic_increment(p, 0.04) == pytest.approx(-0.0039936, abs=1e-15)


def test_cubic_sign_structure_on_random_roots():
    rng = np.random.Generator(np.random.PCG64(7))
    p0 = ModelParams()
    for _ in range(50):
        a, b, c = np.sort(rng.uniform(-2.0, 2.0, size=3))
        if not (a < b < c):
            continue
        p = ModelParams(a=float(a), b=float(b), c=float(c))
        for m in rng.uniform(a, b, size=20):
            if a < m < b:
                assert cubic_increment(p, float(m)) > 0.0
        for m in rng.uniform(b, c, size=20):
            if b < m < c:
                assert cubic_increment(p, float(m)) < 0.0
    assert cubic_increment(p0, -2.0) < 0.0  # below a: all three factors negative


# ---------------------------------------------------------------- bernoulli


def test_bernoulli_threshold_rule():
    assert bernoulli(0.5, FixedUniforms([0.4999])) == 1
    assert bernoulli(0.5, FixedUniforms([0.5001])) == 0
    assert bernoulli(0.0, FixedUniforms([0.0])) == 0  # u < 0 impossible
    assert bernoulli(1.0, FixedUniforms([0.999999])) == 1


def test_bernoulli_consumes_exactly_one_draw():
    rng = RngStream(3)
    bernoulli(0.5, rng)
    assert rng.n_draws == 1


@pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
def test_bernoulli_rejects_bad_probabilities(bad):
    with pytest.raises(ValueError):
        bernoulli(bad, FixedUniforms([0.5]))


# ---------------------------------------------------------------- step


def test_step_at_rest_has_the_quoted_probabilities():
    # from a resting baseline state the trade draw sees Phi(-2) and the
    # direction draw sees Phi(x0 + 0.004): x updates before Z is drawn
    p = ModelParams()
    s = initial_state(p)
    assert normal_cdf(intensity(p, 0.0)) == pytest.approx(0.022750, abs=5e-7)
    assert normal_cdf(s.x + cubic_increment(p, 0.0)) == pytest.approx(0.501596, abs=5e-7)


def test_step_no_trade_freezes_price_but_still_draws_direction():
    p = ModelParams()
    s = initial_state(p)
    # first uniform 0.9 > Phi(-2): no trade; second uniform consumed anyway
    rng = FixedUniforms([0.9, 0.1])
    s2, rec = step(p, s, rng)
    assert rec.trade == 0
    assert rec.direction == 1  # 0.1 < Phi(0.004)
    assert s2.log_price == s.log_price
    assert rng.n_draws == 2


def test_step_trade_moves_price_by_exactly_one_tick():
    p = ModelParams()
    s = initial_state(p)
    up_state, up_rec = step(p, s, FixedUniforms([0.0, 0.0]))  # trade, up
    assert up_rec.trade == 1 and up_rec.direction == 1
    assert up_state.log_price == p.log_p0 + p.d
    down_state, down_rec = step(p, s, FixedUniforms([0.0, 0.9]))  # trade, down
    assert down_rec.trade == 1 and down_rec.direction == 0
    assert down_state.log_price == p.log_p0 - p.d


def test_step_updates_fields_in_the_contracted_order():
    p = ModelParams()
    s = initial_state(p)
    s2, rec = step(p, s, FixedUniforms([0.5, 0.5]))
    assert s2.t == 2
    assert rec.t == 2
    assert rec.momentum == 0.0  # equal initial prices: zero return history
    assert rec.lam == intensity(p, 0.0)
    assert rec.x == p.x0 + cubic_increment(p, 0.0)
    assert s2.prev_log_price == s.log_price


def test_step_rejects_pre_dynamics_states():
    p = ModelParams()
    bad = SimState(t=0, log_price=0.0, prev_log_price=0.0, momentum=0.0,
                   x=0.0, n_trades=0, ticks=0)
    with pytest.raises(ValueError):
        step(p, bad, FixedUniforms([0.5, 0.5]))


# ---------------------------------------------------------------- simulate


def test_simulate_shapes_and_initial_conditions():
    p = ModelParams(T=200)
    traj = simulate(p, 11)
    assert len(traj) == p.T + 1
    assert list(traj.t[:3]) == [0, 1, 2]
    assert traj.t[-1] == p.T
    for i in (0, 1):
        assert traj.log_price[i] == p.log_p0
        assert traj.momentum[i] == 0.0
        assert traj.lam[i] == p.Lambda
        assert traj.x[i] == p.x0
        assert traj.trade[i] == 0
        assert traj.n_trades[i] == 0
    assert traj.n_rng_draws == 2 * (p.T - 1)


def test_simulate_is_deterministic():
    p = ModelParams(T=500)
    a = simulate(p, 42)
    b = simulate(p, 42)
    for name in ("t", "log_price", "momentum", "lam", "x", "trade", "direction", "n_trades"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = simulate(p, 43)
    assert not np.array_equal(a.log_price, c.log_price)


def _exact(v: float) -> str:
    return v.hex()  # equal strings: equal bits, the sign of zero included


def test_a_runner_shares_draws_only_with_the_same_valid_seed():
    # True == 1 but is no seed: seed 1's held draws must not serve it
    run, params = _simulator(), ModelParams(T=50)
    assert run(params, 1.0).trajectory().log_price.tobytes() == simulate(params, 1).log_price.tobytes()
    with pytest.raises(ValueError, match="seed must be an integer"):
        run(params, True)


def test_simulate_columns_satisfy_the_update_equations():
    # exactly, with the loop's IEEE operations in the loop's order
    p = ModelParams(T=400)
    traj = simulate(p, 5)
    lp, m, lam, x = (getattr(traj, name).tolist() for name in ("log_price", "momentum", "lam", "x"))
    trade, direction, n = traj.trade, traj.direction, traj.n_trades
    decay = math.exp(-p.r)
    ticks = 0
    for t in range(2, p.T + 1):
        assert _exact(m[t]) == _exact(decay * (m[t - 1] + (lp[t - 1] - lp[t - 2])))
        assert _exact(lam[t]) == _exact(p.Lambda + p.k * m[t])
        assert _exact(x[t]) == _exact(x[t - 1] + p.h * (m[t] - p.a) * (m[t] - p.b) * (m[t] - p.c))
        if trade[t]:
            ticks += 2 * int(direction[t]) - 1
            assert _exact(lp[t]) == _exact(p.log_p0 + p.d * ticks)
        else:
            assert _exact(lp[t]) == _exact(lp[t - 1])  # no-trade freeze
        assert n[t] == n[t - 1] + trade[t]
    assert set(np.unique(trade)) <= {0, 1}
    assert set(np.unique(direction)) <= {0, 1}


def test_simulate_price_lattice_is_exact():
    p = ModelParams(T=600, log_p0=0.25)
    traj = simulate(p, 17)
    j = np.rint((traj.log_price - p.log_p0) / p.d).astype(int)
    assert np.all(np.abs(j) <= traj.t)
    rebuilt = p.log_p0 + p.d * j
    assert rebuilt.dtype == traj.log_price.dtype
    assert rebuilt.tobytes() == traj.log_price.tobytes()  # bitwise, not approximately


def test_simulate_trade_count_bound():
    traj = simulate(ModelParams(T=300), 9)
    assert np.all(np.diff(traj.n_trades) >= 0)
    assert traj.n_trades[-1] <= 300 - 1


def test_simulate_with_unreachable_intensity_is_flat():
    p = ModelParams(T=500, Lambda=-50.0)
    traj = simulate(p, 1)
    assert np.all(traj.log_price == p.log_p0)
    assert traj.n_trades[-1] == 0
    assert traj.n_rng_draws == 2 * (p.T - 1)  # direction draws still happen


# ---------------------------------------------------------------- kernel == oracle


def _assert_bitwise_equal(kernel: Trajectory, oracle: Trajectory) -> None:
    for name in COLUMNS:
        got, want = getattr(kernel, name), getattr(oracle, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert kernel.n_rng_draws == oracle.n_rng_draws == 2 * (kernel.params.T - 1)


def _random_params(rng: np.random.Generator, T: int) -> ModelParams:
    a, b, c = np.sort(rng.uniform(-2.0, 2.0, size=3))
    return ModelParams(
        T=T,
        d=float(rng.uniform(0.001, 0.1)),
        r=float(rng.uniform(1e-5, 0.5)),
        Lambda=float(rng.uniform(-4.0, 3.0)),
        k=float(rng.uniform(0.01, 50.0)),
        h=float(rng.uniform(0.001, 5.0)),
        a=float(a),
        b=float(b),
        c=float(c),
        log_p0=float(rng.uniform(-3.0, 3.0)),
        x0=float(rng.uniform(-2.0, 2.0)),
    )


def _assert_same_outcome(params: ModelParams, seed: int) -> None:
    """The kernel equals the oracle bitwise, or raises its ValueError text,
    and never warns: a RuntimeWarning means a numpy step saw an overflow or
    nan that the scalar loop does not report."""
    try:
        want = simulate_stepwise(params, seed)
    except ValueError as exc:
        want = exc
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if isinstance(want, ValueError):
            with pytest.raises(ValueError) as got:
                simulate(params, seed)
            assert str(got.value) == str(want)
        else:
            _assert_bitwise_equal(simulate(params, seed), want)


def test_simulate_equals_the_stepwise_oracle_bitwise():
    rng = np.random.Generator(np.random.PCG64(31))
    horizons = [2, 3, 4, 5] + [int(T) for T in rng.integers(6, 1500, size=36)]
    for T in horizons:
        params = _random_params(rng, T)
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        _assert_same_outcome(params, seed)
    for seed in (0, 2**64 - 1):
        _assert_same_outcome(ModelParams(T=300), seed)


_BASE = dict(T=50, seed=1, d=0.01, r=0.001, Lambda=-2.0, k=10.0, h=0.2,
             roots=[-1.0, 0.02, 1.0], log_p0=0.0, x0=0.0)
# m = exp(-700) * d after the first up-tick, a root of the cubic, so x stays
# finite while the second up-tick overflows log P (and, one period later, M)
_M_AT_ROOT = math.exp(-700.0) * 1e308
_OVERFLOW = dict(d=1e308, r=700.0, Lambda=30.0, h=1e-12, x0=1000.0,
                 roots=[_M_AT_ROOT, _M_AT_ROOT + 1, _M_AT_ROOT + 2])
# A tiny r and a huge h make the loop's one-step sum of a stretch's x
# increments guess a direction wrong, so the run is done again in one exact
# pass from t = 2.  Found by a random search (h log-uniform in [1, 1e300], r
# in [1e-14, 1], T in 2..399, Lambda in [-3, 2], seeds 0..999) for runs that
# call _below_normal_cdf twice; 26 of 3,000 did, all with r below 1e-11.
_RESUMING = {**_BASE, "T": 29, "seed": 245, "r": 1.0110880090479347e-13,
             "Lambda": -0.08288105665225487, "h": 2.169694001692744e+295}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    T=st.integers(2, 400),
    seed=st.integers(0, 2**64 - 1),
    d=st.floats(1e-4, 0.5),
    r=st.floats(1e-6, 1.0),
    Lambda=st.floats(-6.0, 4.0),
    k=st.floats(1e-3, 100.0),
    h=st.floats(1e-3, 10.0),
    roots=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3, unique=True),
    log_p0=st.floats(-5.0, 5.0),
    x0=st.floats(-3.0, 3.0),
)
# signed zeros in the initial conditions
@example(**{**_BASE, "log_p0": -0.0})
@example(**{**_BASE, "x0": -0.0})
@example(**{**_BASE, "Lambda": -0.0})
# fast decay: momentum underflows to -0.0 after a down-tick (seed 21 does)
@example(**{**_BASE, "T": 3000, "r": 20.0, "Lambda": -3.0, "seed": 21})
# t=3: k*M and h*(M-a) overflow at M = b, so lam is inf and x nan; lam wins
@example(**{**_BASE, "T": 10, "d": 10.0, "Lambda": 30.0, "k": 1e308, "h": 1e308,
            "roots": [-1e-300, math.exp(-0.001) * 10.0, 20.0]})
# x is nan at t=2, and lam is -inf from t=3 on
@example(**{**_BASE, "T": 20, "d": 1e308, "Lambda": 30.0, "h": 1e300,
            "roots": [-1e10, 0.0, 1e10]})
# the trades overflow log P at t=3 (T=3 ends there) and M at t=4
@example(**{**_BASE, **_OVERFLOW, "T": 3})
@example(**{**_BASE, **_OVERFLOW, "T": 6})
# intensities far beyond the bracket grid, and momentum bounds that overflow
# or vanish: (z - Lambda) / k at extreme Lambda and k
@example(**{**_BASE, "T": 400, "Lambda": 1e6})
@example(**{**_BASE, "T": 400, "Lambda": -1e6})
@example(**{**_BASE, "T": 400, "Lambda": 1e300})
@example(**{**_BASE, "T": 400, "Lambda": -1e300})
@example(**{**_BASE, "T": 400, "k": 1e-300})
@example(**{**_BASE, "T": 400, "k": 1e300})
@example(**{**_BASE, "T": 400, "Lambda": 1e300, "k": 1e-300})
@example(**{**_BASE, "T": 400, "Lambda": -1e300, "k": 1e-300})
@example(**{**_BASE, "T": 400, "Lambda": -1e6, "k": 1e300})
@example(**{**_BASE, "T": 400, "Lambda": math.nextafter(-2.0, 0.0)})
# the loop's stretch sums: decay == 1.0 (each stretch's momentum is
# constant), decay underflowing, dense trades, and a run with an exact rerun
@example(**{**_BASE, "T": 400, "r": 5e-324})
@example(**{**_BASE, "T": 400, "r": 700.0})
@example(**{**_BASE, "T": 400, "Lambda": 3.0})
@example(**_RESUMING)
def test_simulate_equals_the_stepwise_oracle_property(T, seed, d, r, Lambda, k, h, roots, log_p0, x0):
    a, b, c = sorted(roots)
    params = ModelParams(T=T, d=d, r=r, Lambda=Lambda, k=k, h=h, a=a, b=b, c=c,
                         log_p0=log_p0, x0=x0)
    _assert_same_outcome(params, seed)


def _count_direction_checks(monkeypatch) -> list:
    """The argument tuples of every ``_below_normal_cdf`` call from now on."""
    calls = []
    below = model._below_normal_cdf

    def counted(*args):
        calls.append(args)
        return below(*args)

    monkeypatch.setattr(model, "_below_normal_cdf", counted)
    return calls


def test_a_wrong_guess_makes_one_exact_rerun_from_t_2(monkeypatch):
    # one check of every trade's direction after the guessing pass, and one
    # after the exact pass, which adds each increment as the oracle does
    calls = _count_direction_checks(monkeypatch)
    kw = dict(_RESUMING)
    seed, (a, b, c) = kw.pop("seed"), kw.pop("roots")
    params = ModelParams(**kw, a=a, b=b, c=c)
    run = _simulator()(params, seed)
    assert len(calls) == 2
    _assert_bitwise_equal(run.trajectory(), simulate_stepwise(params, seed))


@pytest.mark.parametrize("b", [0.0001, 0.01, 0.02])
def test_a_default_run_takes_one_guessing_pass(monkeypatch, b):
    # the guesses hold at the defaults, so each run checks its directions once
    calls = _count_direction_checks(monkeypatch)
    run = _simulator()
    for seed in (0, 1, 2):
        calls.clear()
        run(ModelParams(b=b), seed)
        assert len(calls) == 1, seed


def test_the_edge_examples_reach_their_edges():
    traj = simulate(ModelParams(T=3000, r=20.0, Lambda=-3.0), 21)
    assert np.any((traj.momentum == 0.0) & np.signbit(traj.momentum))
    a, b, c = _OVERFLOW["roots"]
    rest = {name: v for name, v in _OVERFLOW.items() if name != "roots"}
    overflow = ModelParams(T=3, a=a, b=b, c=c, **rest)
    assert simulate(overflow, 1).log_price.tolist() == [0.0, 0.0, 1e308, math.inf]


# ---------------------------------------------------------------- laws without an oracle


def _assert_decisions_follow_the_draws(columns, seed: int) -> None:
    """Every period's trade is [u < Phi(lam)] on its first draw, and its
    direction [u < Phi(x)] on its second, with the scalar ``normal_cdf``."""
    u = RngStream(seed).take(2 * (len(columns["trade"]) - 2)).tolist()
    lam, x = columns["lam"].tolist(), columns["x"].tolist()
    trade, direction = columns["trade"].tolist(), columns["direction"].tolist()
    for t in range(2, len(trade)):
        assert trade[t] == (u[2 * (t - 2)] < normal_cdf(lam[t])), t
        assert direction[t] == (u[2 * (t - 2) + 1] < normal_cdf(x[t])), t


def test_every_decision_follows_its_draw_on_random_parameters():
    rng = np.random.Generator(np.random.PCG64(57))
    for T in (2, 3, 50, 700, 1500):
        params = _random_params(rng, T)
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        traj = simulate(params, seed)
        _assert_decisions_follow_the_draws({name: getattr(traj, name) for name in COLUMNS}, seed)


def test_every_decision_follows_its_draw_in_a_csv_read_back(tmp_path):
    for seed, params in ((3, ModelParams(T=1000)), (2**64 - 1, ModelParams(T=300, Lambda=-1.0, x0=0.7))):
        path = tmp_path / f"{seed}.csv"
        write_trajectory_csv(simulate(params, seed), path)
        columns = read_trajectory_csv(path)
        _assert_decisions_follow_the_draws({**columns, "lam": columns["lambda"]}, seed)


def test_vanishing_k_and_h_leave_two_fixed_bernoulli_streams():
    # k = h = 5e-324: k*M and the cubic increment are at most a few of the
    # smallest subnormals, which vanish beside Lambda and x0, so lam is
    # Lambda and x is x0 bitwise, and each decision is a draw against a
    # fixed Phi
    rng = np.random.Generator(np.random.PCG64(61))
    for _ in range(60):
        Lambda, x0 = float(rng.uniform(-3.0, 1.0)), float(rng.uniform(-2.0, 2.0))
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        params = ModelParams(T=2000, k=5e-324, h=5e-324, Lambda=Lambda, x0=x0)
        traj = simulate(params, seed)
        assert _exact(traj.lam.min()) == _exact(traj.lam.max()) == _exact(Lambda)
        assert _exact(traj.x.min()) == _exact(traj.x.max()) == _exact(x0)
        u = RngStream(seed).take(2 * (params.T - 1))
        assert np.array_equal(traj.trade[2:], u[0::2] < normal_cdf(Lambda))
        assert np.array_equal(traj.direction[2:], u[1::2] < normal_cdf(x0))


def _simulate_on(monkeypatch, params: ModelParams, uniforms: list[float]) -> Trajectory:
    """``simulate(params, 0)`` with its stream's draws replaced by the given
    uniforms, checked bit for bit against ``step`` on the same uniforms."""
    monkeypatch.setattr(RngStream, "take", lambda self, n: np.array(uniforms))
    traj = simulate(params, 0)
    state, rng = initial_state(params), FixedUniforms(uniforms)
    for t in range(2, params.T + 1):
        state, row = step(params, state, rng)
        for name in COLUMNS:
            assert _exact(float(getattr(traj, name)[t])) == _exact(float(getattr(row, name))), (t, name)
    return traj


# A Bernoulli(Phi) draw u equal to Phi is 0: the rule is u < Phi, not <=.
_TIE = {"T": 3, "Lambda": 0.0, "k": 1e-300, "x0": 0.0}


def test_a_trade_draw_equal_to_its_phi_gives_no_trade(monkeypatch):
    # at t = 2 the intensity is 0 and Phi(0) = 0.5 = u
    traj = _simulate_on(monkeypatch, ModelParams(**_TIE), [0.5, 0.3, 0.9, 0.5])
    assert traj.n_trades.tolist() == [0, 0, 0, 0]


def test_a_direction_draw_equal_to_its_phi_gives_a_down_tick(monkeypatch):
    # h = 5e-324: the increment underflows, so x_2 is exactly 0.0 and
    # Phi(0) = 0.5 = u at the trade of t = 2.  The check's rule is
    # _below_normal_cdf's, and the exact rerun decides with the loop's own
    # test, so a <= mutant of either fails here.
    traj = _simulate_on(monkeypatch, ModelParams(**_TIE, h=5e-324), [0.3, 0.5, 0.9, 0.5])
    assert (traj.trade[2], traj.direction[2], traj.log_price[2]) == (1, 0, -0.01)


@pytest.mark.parametrize(
    "params, seed, bad",
    [
        # h (m-a) overflows at m = 0; times (m-b) = 0 it becomes nan
        (ModelParams(T=20, h=1e300, a=-1e10, b=0.02, c=1e10), 3, "inf"),
        (ModelParams(T=20, h=1e300, a=-1e10, b=0.0, c=1e10), 3, "nan"),
        # only the intensity at the momentum's minimum overflows: x and the
        # intensity at its maximum stay finite
        (ModelParams(T=40, Lambda=3.0, d=100.0, k=1e307), 1, "-inf"),
    ],
    ids=["0.02-inf", "0.0-nan", "lambda-at-min-inf"],  # the first two by their b
)
def test_simulate_fails_like_the_oracle_on_overflow(params, seed, bad):
    # A failed sweep cell stores this message in sweep.json.
    with pytest.raises(ValueError) as kernel_err:
        simulate(params, seed)
    with pytest.raises(ValueError) as oracle_err:
        simulate_stepwise(params, seed)
    assert str(kernel_err.value) == str(oracle_err.value)
    assert str(kernel_err.value) == f"normal_cdf requires a finite argument (got {bad})"


def _assert_prefix(short: Trajectory, full: Trajectory) -> None:
    """``short`` is the first len(short) periods of ``full``, byte for byte."""
    n = len(short)
    for name in COLUMNS:
        assert getattr(short, name).tobytes() == getattr(full, name)[:n].tobytes(), name
    assert short.n_rng_draws == 2 * (short.params.T - 1)


def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# the ranges of the golden corpus's random cases (tests/make_golden.py)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    horizons=st.lists(st.integers(2, 3000), min_size=2, max_size=2),
    seed=st.integers(0, 2**64 - 1),
    d=_log_uniform(-4.0, 0.0),
    r=_log_uniform(-5.0, 0.5),
    Lambda=st.floats(-4.0, 3.0),
    k=_log_uniform(-2.0, 3.0),
    h=_log_uniform(-3.0, 1.0),
    roots=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3, unique=True),
    log_p0=st.floats(-3.0, 3.0),
    x0=st.floats(-2.0, 2.0),
    takes=st.lists(st.integers(0, 6000), min_size=2, max_size=2, unique=True),
)
def test_a_shorter_horizon_gives_a_prefix_of_the_run_and_of_its_draws(
    horizons, seed, d, r, Lambda, k, h, roots, log_p0, x0, takes
):
    T1, T = sorted(horizons)
    a, b, c = sorted(roots)
    params = ModelParams(T=T, d=d, r=r, Lambda=Lambda, k=k, h=h, a=a, b=b, c=c,
                         log_p0=log_p0, x0=x0)
    _assert_prefix(simulate(params.with_value("T", T1), seed), simulate(params, seed))
    n1, n2 = sorted(takes)
    assert RngStream(seed).take(n2).tobytes().startswith(RngStream(seed).take(n1).tobytes())


def test_a_run_fails_at_its_first_bad_period_whatever_the_horizon():
    # seed 1's up-ticks at periods 90 and 91 make k M about 1e308 at
    # period 91 and inf at period 92
    params = ModelParams(T=400, k=1e308, d=1.0)
    last = simulate(params.with_value("T", 91), 1)
    for T1 in (2, 90):
        _assert_prefix(simulate(params.with_value("T", T1), 1), last)
    for T in (92, 400):
        with pytest.raises(ValueError, match=r"^normal_cdf requires a finite argument \(got inf\)$"):
            simulate(params.with_value("T", T), 1)

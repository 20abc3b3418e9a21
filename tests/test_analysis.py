"""Crash detection on hand-built trajectories plus the frozen baseline summary."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from bubblesim import (
    CrashConfig,
    CrashEvent,
    ModelParams,
    detect_crashes,
    simulate,
    summarize,
    up_crossings,
)
from oracles import detect_crashes_reference
from synthetic import (
    alternating_trades_trajectory,
    double_crash_trajectory,
    flat_trajectory,
    make_trajectory,
    merged_crossing_trajectory,
    single_crash_trajectory,
)

CFG = CrashConfig(threshold=0.02, peak_window=500, min_drawdown=0.05)


# ---------------------------------------------------------------- config


def test_default_config_derives_from_the_parameters():
    p = ModelParams()
    cfg = CrashConfig.for_params(p)
    assert cfg.threshold == p.b
    assert cfg.peak_window == 500
    assert cfg.min_drawdown == 5.0 * p.d


def test_config_validation():
    with pytest.raises(ValueError):
        CrashConfig(threshold=0.02, peak_window=0, min_drawdown=0.05)
    with pytest.raises(ValueError):
        CrashConfig(threshold=0.02, peak_window=2.5, min_drawdown=0.05)
    with pytest.raises(ValueError):
        CrashConfig(threshold=0.02, peak_window=500, min_drawdown=0.0)
    with pytest.raises(ValueError):
        CrashConfig(threshold=float("nan"), peak_window=500, min_drawdown=0.05)


@pytest.mark.parametrize("setting, bad", [
    ("threshold", 10**400),
    ("threshold", -10**400),
    ("threshold", True),
    ("threshold", "x"),
    ("threshold", None),
    ("min_drawdown", 10**400),
    ("min_drawdown", True),
    ("min_drawdown", "0.05"),
], ids=lambda v: "huge_int" if isinstance(v, int) and abs(v) == 10**400 else None)
def test_config_rejects_non_finite_and_non_real_settings(setting, bad):
    kwargs = {"threshold": 0.02, "peak_window": 500, "min_drawdown": 0.05, setting: bad}
    with pytest.raises(ValueError, match=f"CrashConfig {setting} must be a finite real number"):
        CrashConfig(**kwargs)


# ---------------------------------------------------------------- crossings


def test_no_crossing_on_flat_momentum():
    assert len(up_crossings(np.zeros(50), 0.02)) == 0


def test_crossing_requires_strict_exceedance():
    m = np.array([0.0, 0.02, 0.02, 0.021, 0.0, 0.03])
    # t=3 crosses (0.02 <= thr < 0.021); t=5 crosses again after the dip
    assert list(up_crossings(m, 0.02)) == [3, 5]


def test_starting_above_the_threshold_is_not_a_crossing():
    m = np.array([0.05, 0.06, 0.07])
    assert len(up_crossings(m, 0.02)) == 0


@pytest.mark.parametrize("momentum", [np.zeros((3, 4)), np.zeros(0), np.array([0.5])])
def test_up_crossings_guards(momentum):
    if momentum.ndim != 1:
        with pytest.raises(ValueError, match="1-d array"):
            up_crossings(momentum, 0.02)
    else:
        hits = up_crossings(momentum, 0.02)
        assert hits.dtype == np.int64 and hits.shape == (0,)


# ---------------------------------------------------------------- detection


def test_flat_trajectory_has_no_events():
    assert detect_crashes(flat_trajectory(), CFG) == []


def test_single_crash_fixture_yields_one_exact_event():
    traj = single_crash_trajectory(drop_ticks=10)
    events = detect_crashes(traj, CFG)
    assert len(events) == 1
    ev = events[0]
    assert ev.t_cross == 10
    assert ev.t_peak == 12
    assert ev.t_trough == 22
    assert ev.peak_log_price == 0.1
    assert ev.trough_log_price == 0.0
    assert ev.drawdown == 10 * traj.params.d  # exact, both sides on the lattice


def test_sub_floor_drop_is_filtered_out():
    traj = single_crash_trajectory(drop_ticks=2)
    assert detect_crashes(traj, CFG) == []


def test_two_separated_episodes_are_both_found_in_order():
    events = detect_crashes(double_crash_trajectory(), CFG)
    assert len(events) == 2
    first, second = events
    assert (first.t_cross, first.t_peak, first.t_trough) == (10, 12, 22)
    assert (second.t_cross, second.t_peak, second.t_trough) == (40, 42, 52)
    assert first.t_trough < second.t_cross  # no overlap


def test_crossings_inside_one_episode_merge_into_one_event():
    events = detect_crashes(merged_crossing_trajectory(), CFG)
    assert len(events) == 1
    assert events[0].t_cross == 10  # first crossing wins
    assert events[0].t_peak == 14
    assert events[0].drawdown == 12 * 0.01


def test_peak_window_limits_the_peak_search():
    # with a tiny window the detector must settle for the early local maximum
    traj = single_crash_trajectory(drop_ticks=10)
    events = detect_crashes(traj, CrashConfig(threshold=0.02, peak_window=1, min_drawdown=0.05))
    assert len(events) == 1
    assert events[0].t_peak == 11  # argmax over t in {10, 11} only
    assert events[0].drawdown == pytest.approx(0.09, abs=1e-15)


def test_detector_monotonicity_in_the_drawdown_floor():
    for traj in (double_crash_trajectory(), simulate(ModelParams(), 0)):
        floors = [0.01, 0.03, 0.05, 0.08, 0.12, 0.2]
        counts = [
            len(detect_crashes(traj, CrashConfig(threshold=0.02, peak_window=500, min_drawdown=f)))
            for f in floors
        ]
        assert counts == sorted(counts, reverse=True)


def test_events_never_overlap_on_simulated_paths():
    for seed in range(5):
        events = detect_crashes(simulate(ModelParams(), seed))
        for prev, nxt in zip(events, events[1:]):
            assert prev.t_cross <= prev.t_peak <= prev.t_trough
            assert prev.t_trough < nxt.t_cross


# random momentum around the 0.02 threshold and a +-1 tick walk of the same length
_walks = hst.integers(2, 150).flatmap(lambda n: hst.tuples(
    hst.lists(hst.floats(-0.1, 0.1), min_size=n, max_size=n),
    hst.lists(hst.sampled_from((-1, 0, 1)), min_size=n, max_size=n).map(np.cumsum),
))


@settings(derandomize=True, deadline=None)
@given(_walks, hst.integers(1, 40), hst.floats(0.001, 0.1))
def test_events_never_overlap_on_random_walks(walk, window, floor):
    cfg = CrashConfig(threshold=0.02, peak_window=window, min_drawdown=floor)
    events = detect_crashes(make_trajectory(*walk), cfg)
    for prev, nxt in zip(events, events[1:]):
        assert prev.t_trough < nxt.t_cross


# drawdowns on the walks are whole ticks of d = 0.01: floors between them
_HALF_TICK_FLOORS = [(k + 0.5) * 0.01 for k in range(8)]


@settings(derandomize=True, deadline=None)
@given(_walks, hst.integers(1, 40))
def test_raising_the_drawdown_floor_only_removes_events(walk, window):
    traj = make_trajectory(*walk)
    found = [
        set(detect_crashes(traj, CrashConfig(threshold=0.02, peak_window=window, min_drawdown=f)))
        for f in _HALF_TICK_FLOORS
    ]
    for lower, higher in zip(found, found[1:]):
        assert higher <= lower


def _bits(v):
    """A field's type and exact value: floats by their bits."""
    return type(v), v.hex() if isinstance(v, float) else v


# the walks above, and simulated paths at the paper's b values, whose own
# b is the detector threshold
_PAPER_B = (0.0001, 0.01, 0.02)
_trajectories = hst.one_of(
    _walks.map(lambda walk: make_trajectory(*walk)),
    hst.tuples(hst.sampled_from(_PAPER_B), hst.integers(0, 2**64 - 1)).map(
        lambda bs: simulate(ModelParams(b=bs[0]), bs[1])
    ),
)
# crossings at t = 1 and at the last period, from a plateau
_EDGE_WALK = make_trajectory([0.0, 0.05, 0.0, 0.0, 0.0, 0.0, 0.05], [0, 1, 1, 0, -1, -1, 0])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_trajectories, hst.integers(1, 40) | hst.integers(1, 2**70), hst.floats(0.001, 0.1))
@example(_EDGE_WALK, 1, 0.005)
@example(_EDGE_WALK, 2**70, 0.005)
def test_detect_crashes_equals_its_numpy_reference_bit_for_bit(traj, window, floor):
    cfg = CrashConfig(threshold=traj.params.b, peak_window=window, min_drawdown=floor)
    got, want = detect_crashes(traj, cfg), detect_crashes_reference(traj, cfg)
    assert len(got) == len(want)
    for ev, ref in zip(got, want):
        for name in CrashEvent.__slots__:
            assert _bits(getattr(ev, name)) == _bits(getattr(ref, name)), name
    gaps = [b.t_cross - a.t_cross for a, b in zip(want, want[1:])]
    stats = summarize(traj, cfg)
    assert stats.n_crashes == len(want)
    assert _bits(stats.mean_inter_crash_interval) == _bits(float(np.mean(gaps)) if gaps else None)


def test_the_edge_walk_crosses_at_t_1_and_at_the_last_period():
    assert up_crossings(_EDGE_WALK.momentum, 0.02).tolist() == [1, len(_EDGE_WALK) - 1]


def test_too_short_trajectories_are_rejected():
    with pytest.raises(ValueError):
        detect_crashes(flat_trajectory(n=1), CFG)


# ---------------------------------------------------------------- summary


def test_flat_summary_is_all_zeros():
    st = summarize(flat_trajectory(), CFG)
    assert st.peak_log_price == 0.0
    assert st.total_trades == 0
    assert st.n_crashes == 0
    assert st.mean_inter_crash_interval is None
    assert st.max_momentum == 0.0
    assert st.time_above_threshold == 0


def test_alternating_trades_count_every_dynamic_period():
    T = 60
    st = summarize(alternating_trades_trajectory(T), CFG)
    assert st.total_trades == T - 1


def test_mean_interval_over_crossing_gaps():
    # two events with crossings at t=10 and t=40: one gap of 30
    st = summarize(double_crash_trajectory(), CFG)
    assert st.n_crashes == 2
    assert st.mean_inter_crash_interval == 30.0
    # a single event has no interval
    st1 = summarize(single_crash_trajectory(), CFG)
    assert st1.n_crashes == 1
    assert st1.mean_inter_crash_interval is None


def test_time_above_threshold_counts_strict_exceedances():
    m = [0.0, 0.0, 0.5, 0.02, 0.3, 0.0]
    traj = make_trajectory(m, [0] * 6)
    st = summarize(traj, CFG)
    assert st.time_above_threshold == 2  # 0.5 and 0.3; 0.02 is not above itself
    assert st.max_momentum == 0.5


def test_golden_baseline_seed1_summary():
    # frozen from the first verified run; guards the whole pipeline at once
    st = summarize(simulate(ModelParams(), 1))
    assert st.peak_log_price == 0.47000000000000003
    assert st.total_trades == 243
    assert st.n_crashes == 6
    assert st.mean_inter_crash_interval == 812.6
    assert st.max_momentum == 0.3851489949055411
    assert st.time_above_threshold == 1997


def test_summary_invariants_across_seeds():
    p = ModelParams(T=800)
    for seed in range(4):
        st = summarize(simulate(p, seed))
        assert st.n_crashes >= 0
        assert st.total_trades <= p.T
        assert st.time_above_threshold <= p.T

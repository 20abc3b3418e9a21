"""Sweep grids: ordering, determinism, error isolation, aggregation."""

import numpy as np
import pytest

from bubblesim import (
    CrashConfig,
    ModelParams,
    SummaryStats,
    SweepCell,
    SweepSpec,
    canonical_axis,
    compare_medians,
    run_sweep,
    simulate,
    summarize,
)
from bubblesim.sweep import _aggregate

SMALL = ModelParams(T=400)


def _stats(peak: float, crashes: int = 0, interval=None) -> SummaryStats:
    return SummaryStats(
        peak_log_price=peak,
        total_trades=0,
        n_crashes=crashes,
        mean_inter_crash_interval=interval,
        max_momentum=0.0,
        time_above_threshold=0,
    )


# ---------------------------------------------------------------- spec


def test_axis_names_are_canonicalized():
    assert canonical_axis("b") == "b"
    assert canonical_axis("lambda") == "Lambda"
    assert canonical_axis("LAMBDA") == "Lambda"
    assert canonical_axis("Lambda") == "Lambda"
    with pytest.raises(ValueError):
        canonical_axis("bogus")
    spec = SweepSpec(base=SMALL, axis="lambda", values=(-2.0, -1.0), seeds=(0,))
    assert spec.axis == "Lambda"


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(base=SMALL, axis="b", values=(), seeds=(0,))
    with pytest.raises(ValueError):
        SweepSpec(base=SMALL, axis="b", values=(0.02, 0.01), seeds=(0,))
    with pytest.raises(ValueError):
        SweepSpec(base=SMALL, axis="b", values=(0.01, 0.01), seeds=(0,))
    with pytest.raises(ValueError):
        SweepSpec(base=SMALL, axis="b", values=(0.01, 0.02), seeds=())
    with pytest.raises(ValueError):
        SweepSpec(base=SMALL, axis="b", values=(0.01, 0.02), seeds=(-1,))


@pytest.mark.parametrize("seeds", [(1.5, True), (True,), (0, 2.7), ("3",), (float("nan"),)])
def test_spec_rejects_bool_and_non_integral_seeds(seeds):
    with pytest.raises(ValueError, match="integer seeds"):
        SweepSpec(base=SMALL, axis="b", values=(0.01,), seeds=seeds)


@pytest.mark.parametrize("values", [(True,), (0.01, True), ("0.01",), (None,)])
def test_spec_rejects_bool_and_non_real_values(values):
    with pytest.raises(ValueError, match="real values"):
        SweepSpec(base=SMALL, axis="b", values=values, seeds=(0,))


@pytest.mark.parametrize("values", [(10**400,), (0.01, -10**400), (float("nan"),), (0.01, float("inf"))])
def test_spec_rejects_non_finite_values(values):
    # an int beyond the float range is not finite either: no OverflowError
    with pytest.raises(ValueError, match="finite values"):
        SweepSpec(base=SMALL, axis="b", values=values, seeds=(0,))


def test_spec_accepts_integral_and_numpy_numbers():
    spec = SweepSpec(base=SMALL, axis="b", values=(np.float64(0.01), 1), seeds=(np.uint64(3), 2.0))
    assert spec.seeds == (3, 2)
    assert all(type(s) is int for s in spec.seeds)
    assert spec.values == (0.01, 1.0)
    assert all(type(v) is float for v in spec.values)


# ---------------------------------------------------------------- running


def test_degenerate_sweep_equals_direct_simulation():
    # one value (the baseline one), one seed: exactly one cell, equal to
    # simulate + summarize done by hand
    spec = SweepSpec(base=SMALL, axis="b", values=(SMALL.b,), seeds=(7,))
    result = run_sweep(spec)
    assert len(result.cells) == 1
    direct = summarize(simulate(SMALL, 7))
    assert result.cells[0].stats == direct
    assert result.cells[0].error is None
    pairs = compare_medians(result, "peak_log_price")
    assert pairs == [(SMALL.b, direct.peak_log_price)]


def test_grid_is_values_major_seeds_minor():
    spec = SweepSpec(base=SMALL, axis="b", values=(0.01, 0.02), seeds=(3, 4, 5))
    result = run_sweep(spec)
    assert [(c.value, c.seed) for c in result.cells] == [
        (0.01, 3), (0.01, 4), (0.01, 5),
        (0.02, 3), (0.02, 4), (0.02, 5),
    ]
    assert result.cell(1, 2).value == 0.02
    assert result.cell(1, 2).seed == 5


def test_matched_seeds_give_paired_cells():
    spec = SweepSpec(base=SMALL, axis="k", values=(5.0, 10.0), seeds=(0, 1))
    result = run_sweep(spec)
    # every value ran the identical seed list
    assert [c.seed for c in result.cells[:2]] == [c.seed for c in result.cells[2:]]


def test_serial_and_parallel_agree_exactly():
    spec = SweepSpec(base=ModelParams(T=800), axis="b", values=(0.01, 0.02), seeds=tuple(range(6)))
    serial = run_sweep(spec, n_jobs=1)
    parallel = run_sweep(spec, n_jobs=2)
    assert serial.cells == parallel.cells
    assert serial.summaries == parallel.summaries


def test_invalid_cells_are_isolated_not_fatal():
    # second value lands above c and is rejected per cell; first value runs
    spec = SweepSpec(base=SMALL, axis="b", values=(0.02, 1.5), seeds=(0, 1))
    result = run_sweep(spec)
    good = [c for c in result.cells if c.error is None]
    bad = [c for c in result.cells if c.error is not None]
    assert len(good) == 2 and all(c.value == 0.02 for c in good)
    assert len(bad) == 2 and all("requires a < b < c" in c.error for c in bad)
    assert result.summaries[1].n_failed == 2
    assert result.summaries[1].median["peak_log_price"] is None


def test_fully_failed_sweep_raises():
    spec = SweepSpec(base=SMALL, axis="b", values=(1.5, 2.5), seeds=(0,))
    with pytest.raises(RuntimeError, match="requires a < b < c"):
        run_sweep(spec)


def test_n_jobs_must_be_a_positive_integer():
    spec = SweepSpec(base=SMALL, axis="b", values=(0.02,), seeds=(0,))
    for bad in (0, -1, 1.5, True):
        with pytest.raises(ValueError):
            run_sweep(spec, n_jobs=bad)


def test_default_detector_follows_the_swept_parameter():
    # with no fixed detector, each cell's threshold is its own b
    spec = SweepSpec(base=SMALL, axis="b", values=(0.0001, 0.02), seeds=(3,))
    result = run_sweep(spec)
    for cell in result.cells:
        params = SMALL.with_value("b", cell.value)
        assert cell.stats == summarize(simulate(params, 3))
    # and a fixed detector overrides that
    fixed = CrashConfig(threshold=0.5, peak_window=500, min_drawdown=0.05)
    result2 = run_sweep(spec, cfg=fixed)
    for cell in result2.cells:
        params = SMALL.with_value("b", cell.value)
        assert cell.stats == summarize(simulate(params, 3), fixed)


# ---------------------------------------------------------------- aggregation


def test_median_of_three_seeds_yielding_1_2_3_is_2():
    cells = [SweepCell(value=0.5, seed=s, stats=_stats(float(v)), error=None)
             for s, v in enumerate((1, 2, 3))]
    agg = _aggregate(0.5, cells)
    assert agg.median["peak_log_price"] == 2.0
    assert agg.iqr["peak_log_price"] == 1.0
    assert agg.n_seeds == 3
    assert agg.n_failed == 0


def test_absent_intervals_aggregate_over_the_seeds_that_have_them():
    cells = [
        SweepCell(value=0.5, seed=0, stats=_stats(1.0, crashes=2, interval=10.0), error=None),
        SweepCell(value=0.5, seed=1, stats=_stats(1.0, crashes=0, interval=None), error=None),
        SweepCell(value=0.5, seed=2, stats=_stats(1.0, crashes=2, interval=20.0), error=None),
    ]
    agg = _aggregate(0.5, cells)
    assert agg.median["mean_inter_crash_interval"] == 15.0
    none_cells = [SweepCell(value=0.5, seed=0, stats=_stats(1.0), error=None)]
    assert _aggregate(0.5, none_cells).median["mean_inter_crash_interval"] is None


def test_compare_medians_rejects_unknown_fields():
    spec = SweepSpec(base=SMALL, axis="b", values=(0.02,), seeds=(0,))
    result = run_sweep(spec)
    with pytest.raises(ValueError, match="unknown summary field"):
        compare_medians(result, "nope")


# ---------------------------------------------------------------- regression


def test_b_sweep_regression_guard(b_sweep_50):
    """Pilot-frozen bounds on the full 50-seed b-sweep.

    These are regression rails around measured behavior (medians strictly
    increasing, micro-bubble peak under half the widest-b peak) plus the
    exact pilot medians; acceptance criterion 06 checks the same ordering
    and bound as the qualitative claim, without the frozen values.
    """
    medians = [m for _, m in compare_medians(b_sweep_50, "peak_log_price")]
    assert medians == sorted(medians)
    assert len(set(medians)) == len(medians)
    assert medians[0] < 0.5 * medians[-1]
    # exact pilot values, frozen
    assert medians == [0.155, 0.23, 0.39]

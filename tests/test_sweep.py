"""Sweep grids: ordering, determinism, error isolation, aggregation, and
the worker pool kept between parallel sweeps."""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bubblesim
import bubblesim.model
import bubblesim.sweep

from bubblesim import (
    CrashConfig,
    ModelParams,
    SummaryStats,
    SweepCell,
    SweepSpec,
    compare_medians,
    run_sweep,
    simulate,
    summarize,
)
from bubblesim.sweep import _aggregate
from oracles import value_summary

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


def _axis(axis) -> str:
    return SweepSpec(SMALL, axis, (1.0,), (0,)).axis


def test_axis_names_are_canonicalized():
    assert _axis("b") == "b"
    assert _axis("lambda") == "Lambda"
    assert _axis("LAMBDA") == "Lambda"
    assert _axis("Lambda") == "Lambda"
    with pytest.raises(ValueError):
        _axis("bogus")
    spec = SweepSpec(base=SMALL, axis="lambda", values=(-2.0, -1.0), seeds=(0,))
    assert spec.axis == "Lambda"


@pytest.mark.parametrize("axis, want", [("LOG_P0", "log_p0"), ("x0", "x0"), ("t", "T")])
def test_any_case_of_a_field_name_is_that_field(axis, want):
    assert _axis(axis) == want


@pytest.mark.parametrize("axis, error", [(3, "must be a string"), ("", "unknown sweep axis ''")])
def test_a_non_field_axis_is_rejected(axis, error):
    with pytest.raises(ValueError, match=error):
        _axis(axis)


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
    with pytest.raises(ValueError, match="SweepSpec seed must be an integer"):
        SweepSpec(base=SMALL, axis="b", values=(0.01,), seeds=seeds)


@pytest.mark.parametrize("values", [(True,), (0.01, True), ("0.01",), (None,)])
def test_spec_rejects_bool_and_non_real_values(values):
    with pytest.raises(ValueError, match="SweepSpec value must be a finite real number"):
        SweepSpec(base=SMALL, axis="b", values=values, seeds=(0,))


@pytest.mark.parametrize("values", [(10**400,), (0.01, -10**400), (float("nan"),), (0.01, float("inf"))])
def test_spec_rejects_non_finite_values(values):
    # an int beyond the float range is not finite either: no OverflowError
    with pytest.raises(ValueError, match="SweepSpec value must be a finite real number"):
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


@pytest.mark.parametrize("value_index, seed_index", [(0, 2), (0, -1), (2, 0), (-1, 0)])
def test_a_cell_outside_the_grid_raises_index_error(value_index, seed_index):
    # unchecked, the flat index of each lands on another cell or past the last one
    result = run_sweep(SweepSpec(base=ModelParams(T=50), axis="b", values=(0.01, 0.02), seeds=(0, 1)))
    with pytest.raises(IndexError, match=rf"cell \({value_index}, {seed_index}\) is outside the 2 x 2 grid"):
        result.cell(value_index, seed_index)


def test_matched_seeds_give_paired_cells():
    spec = SweepSpec(base=SMALL, axis="k", values=(5.0, 10.0), seeds=(0, 1))
    result = run_sweep(spec)
    # every value ran the identical seed list
    assert [c.seed for c in result.cells[:2]] == [c.seed for c in result.cells[2:]]


@pytest.mark.parametrize(
    "values, seeds, n_jobs",
    [
        ((0.01, 0.02), tuple(range(6)), 2),
        ((0.01,), tuple(range(7)), 3),  # chunks of 3, 3 and 1 cells
        ((0.02,), (5,), 2),  # one chunk, one idle worker
        ((0.01, 0.02, 1.5), (0, 1, 2), 2),  # 1.5 lands above c: its cells fail
    ],
    ids=["12-cells-2-jobs", "7-cells-3-jobs", "1-cell-2-jobs", "failed-cells-2-jobs"],
)
def test_serial_and_parallel_agree_exactly(values, seeds, n_jobs):
    spec = SweepSpec(base=ModelParams(T=800), axis="b", values=values, seeds=seeds)
    serial = run_sweep(spec, n_jobs=1)
    parallel = run_sweep(spec, n_jobs=n_jobs)
    assert serial.cells == parallel.cells
    assert serial.summaries == parallel.summaries
    assert [None if p is None else p.tobytes() for p in serial.paths] == [
        None if p is None else p.tobytes() for p in parallel.paths
    ]


def _oracle_cell(base: ModelParams, axis: str, value: float, seed: int):
    """One cell as run_sweep must give it: its own simulate + summarize."""
    try:
        traj = simulate(base.with_value(axis, value), seed)
        return summarize(traj), None, traj.log_price.tobytes()
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}", None


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize(
    "base, axis, values, seeds",
    [
        # seed-major, the failing b = 1.5 cells (above c) sit between cells
        # that share draws: seed 3 runs twice in a row, then seed 0
        (ModelParams(T=300), "b", (0.01, 0.02, 1.5), (3, 3, 0)),
        (ModelParams(T=300), "Lambda", (-2.5, -2.0, -1.5), (0, 1)),  # shares draws, not floors
        (ModelParams(T=300), "k", (5.0, 10.0, 20.0), (2, 0)),
        # T = 1e18 is too big for a numpy array: only its own cells fail
        (ModelParams(T=300), "T", (50.0, 60.0, 1e18), (1, 1)),
        (ModelParams(T=300), "b", (0.005, 0.01, 0.015, 0.02), (4,)),  # on 2 jobs, one seed in two chunks
        (ModelParams(T=300), "b", (0.01, 0.02, 0.03), (0, 1, 2)),  # on 2 jobs, chunks of 5 and 4: seed 1 is cut
        # the a = -1.7e308 cells raise in the path (the cubic overflows to
        # inf), and the cells after them reuse the draws and floors they made
        (ModelParams(T=20, h=1e10, c=1e10), "a", (-1.7e308, -1e10, -1.0), (3, 4)),
        # log P is -0.0 at t = 0, 1 and +0.0 from t = 2 until the first trade
        (ModelParams(T=300, log_p0=-0.0), "b", (0.01, 0.02, 0.03), (0, 1)),
        # only the intensity overflows: valid cells mixed with (got inf) and
        # (got -inf) failures, each raised at the intensity
        (ModelParams(T=40, Lambda=3.0, d=100.0), "k", (1e300, 1e306, 1e307), (0, 1, 2)),
    ],
    ids=[
        "b-failing-repeated-seed", "Lambda", "k", "T-huge", "b-one-seed-four-values", "b-3-seeds-3-values",
        "a-raising-in-the-path", "b-log-p0-minus-zero", "k-only-the-intensity-overflows",
    ],
)
def test_every_cell_equals_its_own_simulation_bit_for_bit(base, axis, values, seeds, n_jobs):
    spec = SweepSpec(base=base, axis=axis, values=values, seeds=seeds)
    result = run_sweep(spec, n_jobs=n_jobs)
    for i, value in enumerate(values):
        for j, seed in enumerate(seeds):
            cell = result.cell(i, j)
            stats, error, path = _oracle_cell(base, spec.axis, value, seed)
            # repr tells every float apart, -0.0 and nan included
            assert (cell.value, cell.seed, repr(cell.stats), cell.error) == (value, seed, repr(stats), error)
            if j == 0:
                kept = result.paths[i]
                assert (None if kept is None else kept.tobytes()) == path


@pytest.mark.parametrize(
    "axis, values, draws, floors",
    [
        ("b", (0.01, 0.02, 0.03), 2, 2),  # per seed: one of each
        ("Lambda", (-2.5, -2.0, -1.5), 2, 6),  # one floor per cell
        ("T", (50.0, 60.0, 70.0), 6, 6),  # nothing shared
    ],
)
def test_a_serial_sweep_draws_each_seed_once_per_t(monkeypatch, axis, values, draws, floors):
    # and builds no direction column: a sweep cell finishes its run into the
    # columns its summary reads, and decides only its trades' directions
    calls = {"take": 0, "_momentum_floor": 0, "_below_normal_cdf": 0}
    checked = []
    model = bubblesim.model
    for owner, step in ((model.RngStream, "take"), (model, "_momentum_floor"), (model, "_below_normal_cdf")):

        def counted(*args, _step=step, _run=getattr(owner, step)):
            calls[_step] += 1
            if _step == "_below_normal_cdf":
                checked.append(len(args[0]))
            return _run(*args)

        monkeypatch.setattr(owner, step, counted)
    result = run_sweep(SweepSpec(base=SMALL, axis=axis, values=values, seeds=(0, 1)))
    assert calls == {"take": draws, "_momentum_floor": floors, "_below_normal_cdf": 6}
    # one check per cell, in the run's seed-major order, the length of its
    # trade count and never T - 1
    ran = sorted(result.cells, key=lambda c: c.seed)
    cells = [(c.stats.total_trades, SMALL.with_value(axis, c.value).T) for c in ran]
    assert checked == [trades for trades, _ in cells]
    assert all(trades < T - 1 for trades, T in cells)


def test_each_value_keeps_the_log_price_path_of_its_first_seed():
    # 1.5 lands above c: its first-seed cell fails and keeps no path
    spec = SweepSpec(base=SMALL, axis="b", values=(0.01, 0.02, 1.5), seeds=(7, 3))
    result = run_sweep(spec)
    assert len(result.paths) == 3 and result.paths[2] is None
    for value, path in zip(spec.values[:2], result.paths):
        direct = simulate(SMALL.with_value("b", value), 7).log_price
        assert path.dtype == direct.dtype and path.tobytes() == direct.tobytes()


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
    with pytest.raises(ValueError, match="requires a < b < c"):
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
    (agg,) = _aggregate((0.5,), cells)
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
    (agg,) = _aggregate((0.5,), cells)
    assert agg.median["mean_inter_crash_interval"] == 15.0
    none_cells = [SweepCell(value=0.5, seed=0, stats=_stats(1.0), error=None)]
    assert _aggregate((0.5,), none_cells)[0].median["mean_inter_crash_interval"] is None


_EDGE_STATS = st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, -math.inf, math.nan])
_STAT_FLOATS = _EDGE_STATS | st.floats()
_CELL_STATS = st.builds(
    SummaryStats,
    peak_log_price=_STAT_FLOATS,
    total_trades=st.integers(0, 2**62),
    n_crashes=st.integers(0, 3),
    mean_inter_crash_interval=st.none() | _STAT_FLOATS,
    max_momentum=_STAT_FLOATS,
    time_above_threshold=st.integers(0, 5000),
)


@st.composite
def _grids(draw):
    """(values, cells) of a 1-4 value by 1-8 seed grid; a None stats is a failed cell."""
    values = tuple(float(v) for v in range(draw(st.integers(1, 4))))
    n_seeds = draw(st.integers(1, 8))
    cells = [
        SweepCell(value=v, seed=s, stats=stats, error=None if stats else "ValueError: bad cell")
        for v in values
        for s, stats in enumerate(
            draw(st.lists(_CELL_STATS | st.none(), min_size=n_seeds, max_size=n_seeds))
        )
    ]
    return values, cells


def _summary_bits(summary) -> tuple:
    """A ValueSummary with each float as its type and float64 bits, any NaN as one key."""

    def bits(x):
        return None if x is None else (type(x), "nan" if math.isnan(x) else x.hex())

    return (
        summary.value,
        summary.n_seeds,
        summary.n_failed,
        [(name, bits(x)) for name, x in summary.median.items()],
        [(name, bits(x)) for name, x in summary.iqr.items()],
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_grids())
def test_grid_aggregation_equals_the_per_value_oracle_bit_for_bit(grid):
    values, cells = grid
    n_seeds = len(cells) // len(values)
    want = [
        value_summary(value, cells[i * n_seeds : (i + 1) * n_seeds])
        for i, value in enumerate(values)
    ]
    assert [_summary_bits(s) for s in _aggregate(values, cells)] == [_summary_bits(s) for s in want]


def test_compare_medians_rejects_unknown_fields():
    spec = SweepSpec(base=SMALL, axis="b", values=(0.02,), seeds=(0,))
    result = run_sweep(spec)
    with pytest.raises(ValueError, match="unknown summary field"):
        compare_medians(result, "nope")


# ---------------------------------------------------------------- worker pool

POOL_SPEC = SweepSpec(base=ModelParams(T=300), axis="b", values=(0.01, 0.02), seeds=tuple(range(4)))


def _workers() -> dict[int, multiprocessing.Process]:
    """The live worker processes, by pid; the tests start no other children."""
    return {p.pid: p for p in multiprocessing.active_children()}


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(bubblesim.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def test_parallel_sweeps_reuse_the_workers():
    serial = run_sweep(POOL_SPEC)
    first = run_sweep(POOL_SPEC, n_jobs=2)
    workers = _workers()
    second = run_sweep(POOL_SPEC, n_jobs=2)
    assert len(workers) == 2 and _workers().keys() == workers.keys()
    assert first == serial and second == serial


def test_a_sweep_starts_at_most_one_worker_per_cell():
    spec = SweepSpec(base=ModelParams(T=300), axis="b", values=(0.01, 0.02), seeds=(0,))
    bubblesim.sweep._drop_pool()  # so every live worker is one this sweep started
    assert run_sweep(spec, n_jobs=4) == run_sweep(spec)
    assert 1 <= len(_workers()) <= 2


def test_a_sweep_with_fewer_cells_than_kept_workers_reuses_them():
    small = SweepSpec(base=ModelParams(T=300), axis="b", values=(0.01, 0.02), seeds=(0,))
    assert run_sweep(POOL_SPEC, n_jobs=3) == run_sweep(POOL_SPEC)
    workers = _workers()
    assert run_sweep(small, n_jobs=3) == run_sweep(small)
    assert len(workers) == 3 and _workers().keys() == workers.keys()


def test_a_new_n_jobs_replaces_the_pool_after_joining_the_old_one():
    serial = run_sweep(POOL_SPEC)
    with warnings.catch_warnings():
        # from Python 3.12 a fork while another thread is alive warns, so an
        # executor thread of the old pool still running at the fork fails here
        warnings.simplefilter("error", DeprecationWarning)
        assert run_sweep(POOL_SPEC, n_jobs=2) == serial
        old = _workers()
        assert run_sweep(POOL_SPEC, n_jobs=3) == serial
    assert len(old) == 2 and all(p.exitcode is not None for p in old.values())
    assert len(_workers()) == 3 and not _workers().keys() & old.keys()


def test_a_sweep_after_the_idle_workers_were_killed_equals_the_serial_one():
    serial = run_sweep(POOL_SPEC)
    run_sweep(POOL_SPEC, n_jobs=2)
    killed = _workers()
    for pid in killed:
        os.kill(pid, signal.SIGKILL)
    # the pool may not know yet that its workers are gone
    assert run_sweep(POOL_SPEC, n_jobs=2) == serial
    assert all(p.exitcode == -signal.SIGKILL for p in killed.values())
    assert len(_workers()) == 2 and not _workers().keys() & killed.keys()


def test_a_new_pool_that_breaks_raises_and_is_dropped(monkeypatch):
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    def broken(*args, **kwargs):
        raise BrokenProcessPool("broken at the first map")

    bubblesim.sweep._drop_pool()  # so the sweep starts a new pool
    monkeypatch.setattr(ProcessPoolExecutor, "map", broken)
    with pytest.raises(BrokenProcessPool, match="broken at the first map"):
        run_sweep(POOL_SPEC, n_jobs=2)
    assert bubblesim.sweep._pool is None


def test_an_interrupted_sweep_drops_the_pool_and_joins_its_workers(monkeypatch):
    from concurrent.futures.process import ProcessPoolExecutor

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    run_sweep(POOL_SPEC, n_jobs=2)
    workers = _workers()
    monkeypatch.setattr(ProcessPoolExecutor, "map", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(POOL_SPEC, n_jobs=2)
    assert bubblesim.sweep._pool is None
    assert len(workers) == 2 and not any(p.is_alive() for p in workers.values()) and not _workers()


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_threads_sharing_the_pool_get_their_own_cells():
    # a pool of 2 and one of 3 take turns: without the pool lock one thread
    # would shut the other's pool down under it
    serial = run_sweep(POOL_SPEC)
    results: list = []

    def sweeps(n_jobs: int) -> None:
        results.extend(run_sweep(POOL_SPEC, n_jobs=n_jobs) for _ in range(6))

    threads = [threading.Thread(target=sweeps, args=(n,)) for n in (2, 3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 12 and all(r == serial for r in results)


def test_a_serial_sweep_starts_no_process():
    proc = _run_python(
        "import multiprocessing, sys; from bubblesim import ModelParams, SweepSpec, run_sweep; "
        "run_sweep(SweepSpec(ModelParams(T=50), 'b', (0.01, 0.02), (0, 1))); "
        "print(len(multiprocessing.active_children()), 'concurrent.futures.process' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_a_process_that_ran_a_parallel_sweep_exits_cleanly():
    # the pool is shut down at exit, before module teardown could trip it
    proc = _run_python(
        "from bubblesim import ModelParams, SweepSpec, run_sweep; "
        "run_sweep(SweepSpec(ModelParams(T=50), 'b', (0.01, 0.02), (0, 1)), n_jobs=2)"
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_a_test_run_with_a_parallel_sweep_ends_without_an_ignored_exception(tmp_path):
    # without the exit hook, module teardown after a hypothesis test trips the
    # kept pool's executor thread: "Exception ignored in: ... weakref_cb"
    (tmp_path / "test_exit.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "from bubblesim import ModelParams, SweepSpec, run_sweep\n"
        "def test_sweep():\n"
        "    run_sweep(SweepSpec(ModelParams(T=50), 'b', (0.01, 0.02), (0, 1)), n_jobs=2)\n"
        "@given(st.integers())\n"
        "def test_given(i):\n"
        "    assert i == i\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bubblesim.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_exit.py"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Exception ignored" not in proc.stdout + proc.stderr


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_serial_equals_parallel_under_every_start_method(tmp_path, method):
    # spawn and forkserver workers import the main module again, so it is a file
    (tmp_path / "sweep_main.py").write_text(
        "import multiprocessing\n"
        "from bubblesim import ModelParams, SweepSpec, run_sweep\n"
        "if __name__ == '__main__':\n"
        f"    multiprocessing.set_start_method({method!r})\n"
        "    spec = SweepSpec(ModelParams(T=200), 'b', (0.01, 0.02), (0, 1))\n"
        "    serial, parallel = run_sweep(spec), run_sweep(spec, n_jobs=2)\n"
        "    paths = all((a == b).all() for a, b in zip(serial.paths, parallel.paths))\n"
        "    print(multiprocessing.get_start_method(), parallel == serial and paths)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bubblesim.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "sweep_main.py"], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [method, "True"]


def _sweep_in_child(conn, spec: SweepSpec) -> None:
    os.setpgid(0, 0)  # so the test can kill the child and its workers together
    conn.send(run_sweep(spec, n_jobs=2))


def _run_in_forked_child(spec: SweepSpec):
    """The exit code of a forked child that ran an n_jobs=2 sweep, and its result."""
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_sweep_in_child, args=(child, spec))
    proc.start()
    child.close()
    try:
        result = parent.recv() if parent.poll(30) else None
        proc.join(timeout=30)
    finally:
        if proc.is_alive():
            os.killpg(proc.pid, signal.SIGKILL)
            proc.join()
        parent.close()
    return proc.exitcode, result


def test_a_forked_child_that_ran_a_parallel_sweep_exits():
    bubblesim.sweep._drop_pool()  # the child then starts a pool of its own
    assert _run_in_forked_child(POOL_SPEC) == (0, run_sweep(POOL_SPEC))


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_does_not_use_the_parents_pool():
    serial = run_sweep(POOL_SPEC)
    assert run_sweep(POOL_SPEC, n_jobs=2) == serial
    workers = _workers()
    assert _run_in_forked_child(POOL_SPEC) == (0, serial)
    assert run_sweep(POOL_SPEC, n_jobs=2) == serial  # the parent's pool is still its own
    assert _workers().keys() == workers.keys()


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

"""One-parameter-at-a-time experiments over matched-seed ensembles.

A sweep varies a single scalar parameter over an ordered list of values and
runs the same list of seeds at every value.  Matching the seeds across values
makes comparisons paired: cell (value_i, seed_s) and cell (value_j, seed_s)
differ only in the parameter, never in the noise realization.

Per value the ensemble is reduced to the median and interquartile range of
each summary field.  Medians, not means: peak log-prices are heavy-tailed
across seeds, and the claims a sweep supports are qualitative orderings.
The reductions are batched per group length, not per value: the present
stats of every (value, field) group of one length form the rows of one
array, reduced by one np.median and one np.percentile call along its rows.

One caveat worth knowing before trusting an ordering: the median peak is not
largest at an intermediate return-memory r.  At r = 0.0005 / 0.001 / 0.005
the median peak log-prices on seeds 50..1049 are 0.505 / 0.39 / 0.54, the
same U shape as on seeds 0..49, and r = 0.001 is the largest of the three in
only 0.02% of 50-seed subsets of them (and on about 13% of single paths).
The test suite checks that ordering explicitly and reports the measured
deviation rather than hiding it.

Cells are independent pure function evaluations, so run_sweep can fan them
out to worker processes, and the output is bit-identical whether run serially
or in parallel.  A worker runs a contiguous chunk of the seed-major grid on
one kernel runner, reading each cell's seed and value from the spec; what
the cells of one seed share is the runner's rule, stated in model.py.  How
the chunks go to the workers, and when the kept worker pool is started,
reused, replaced and shut down, is stated once, in run_sweep's docstring.
A cell whose derived parameters are invalid (say a swept b landing above c)
records an error string and the sweep continues; only a sweep with no
surviving cell raises.

A cell hands its finished run to summarize as it is: it builds the trade
column on its way to n_trades, but no intensity, x or direction column
(model.py states the one finishing step it shares with simulate).
The first seed's cell of each value also hands back its log-price path, the
representative path plot_sweep draws, so a sweep and its plot simulate every
(value, seed) pair once.  The result then holds |values| x (T+1) floats of
paths besides the cell statistics; in a parallel sweep only those cells send
a path back from the workers.
"""

from __future__ import annotations

import atexit
import os
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import CrashConfig, SummaryStats, summarize
from .model import _simulator
from .params import PARAM_FIELDS, ModelParams, as_seed, integer, real

STAT_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(SummaryStats))


@dataclass(frozen=True)
class SweepSpec:
    """Definition of one sweep: base parameters, axis, values, matched seeds."""

    base: ModelParams
    axis: str
    values: tuple[float, ...]
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.axis, str):
            raise ValueError(f"sweep axis must be a string (got {self.axis!r})")
        # any case of a field name is that field: "lambda" and "LAMBDA" name Lambda
        axis = {f.lower(): f for f in PARAM_FIELDS}.get(self.axis.lower())
        if axis is None:
            raise ValueError(
                f"unknown sweep axis {self.axis!r}; expected one of {', '.join(PARAM_FIELDS)}"
            )
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "values", tuple(real(v, "SweepSpec value") for v in self.values))
        object.__setattr__(self, "seeds", tuple(as_seed(s, "SweepSpec seed") for s in self.seeds))
        if not self.values:
            raise ValueError("SweepSpec requires a non-empty values list")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"SweepSpec requires strictly increasing values (got {self.values})")
        if not self.seeds:
            raise ValueError("SweepSpec requires a non-empty seeds list")


@dataclass(frozen=True)
class SweepCell:
    """Outcome of one (value, seed) evaluation: stats, or an error string."""

    value: float
    seed: int
    stats: SummaryStats | None
    error: str | None


@dataclass(frozen=True)
class ValueSummary:
    """Median and IQR of every summary field across the seeds at one value.

    Fields whose per-seed value can be absent (inter-crash interval) are
    aggregated over the seeds where they exist, and are None when they exist
    nowhere.  n_failed counts cells that errored at this value.
    """

    value: float
    n_seeds: int
    n_failed: int
    median: dict[str, float | None]
    iqr: dict[str, float | None]


@dataclass(frozen=True)
class SweepResult:
    """Full sweep output: the |values| x |seeds| cell grid plus per-value
    aggregates, cells ordered values-major then seeds-minor.

    ``paths`` holds one representative path per value, the log-price column
    of its first seed's cell (None where that cell failed), which is what
    plot_sweep draws: |values| x (T+1) floats.  It takes no part in equality.
    """

    spec: SweepSpec
    cells: tuple[SweepCell, ...]
    summaries: tuple[ValueSummary, ...]
    paths: tuple[np.ndarray | None, ...] = field(compare=False, repr=False)

    def cell(self, value_index: int, seed_index: int) -> SweepCell:
        n_values, n_seeds = len(self.spec.values), len(self.spec.seeds)
        if not (0 <= value_index < n_values and 0 <= seed_index < n_seeds):
            raise IndexError(f"cell ({value_index}, {seed_index}) is outside the {n_values} x {n_seeds} grid")
        return self.cells[value_index * n_seeds + seed_index]


def _run_cells(
    spec: SweepSpec, cfg: CrashConfig | None, start: int, stop: int
) -> list[tuple[SweepCell, np.ndarray | None]]:
    """Evaluate cells start..stop-1 of the seed-major grid, where cell i is
    (``spec.values[i % n]``, ``spec.seeds[i // n]``) for n values; the first
    seed's cells (i < n) that succeed also give their log-price path.
    Module-level so workers can pickle it.

    One ``model._simulator`` runs the chunk's cells, so they share draws and
    floors by its rule, and each cell's stats and path are the bits of its
    own ``simulate`` + ``summarize``.
    """
    n_values = len(spec.values)
    run = _simulator()
    outcomes = []
    for i in range(start, stop):
        seed, value = spec.seeds[i // n_values], spec.values[i % n_values]
        try:
            params = spec.base.with_value(spec.axis, value)
            ran = run(params, seed)
            stats = summarize(ran, cfg)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            outcomes.append((SweepCell(value=value, seed=seed, stats=None, error=error), None))
            continue
        path = ran.log_price if i < n_values else None
        outcomes.append((SweepCell(value=value, seed=seed, stats=stats, error=None), path))
    return outcomes


def _aggregate(values: tuple[float, ...], cells: list[SweepCell]) -> tuple[ValueSummary, ...]:
    """The ValueSummary of each value, from the grid's cells in grid order.

    The present stats of each (value, field) group form one row, and the rows
    of each group length are stacked into one 2-D array, so a whole sweep
    takes one np.median and one np.percentile call per distinct length.  Row
    by row these give the numbers of the 1-D calls on each group.
    """
    n_seeds = len(cells) // len(values)
    groups = [cells[i * n_seeds : (i + 1) * n_seeds] for i in range(len(values))]
    medians = [dict.fromkeys(STAT_FIELDS) for _ in values]
    iqrs = [dict.fromkeys(STAT_FIELDS) for _ in values]
    rows: dict[int, list[tuple[int, str, list]]] = {}  # by group length
    for i, group in enumerate(groups):
        stats = [c.stats for c in group if c.stats is not None]
        for name in STAT_FIELDS:
            present = [v for s in stats if (v := getattr(s, name)) is not None]
            if present:
                rows.setdefault(len(present), []).append((i, name, present))
    for stacked in rows.values():
        arr = np.array([present for _, _, present in stacked], dtype=float)
        with np.errstate(invalid="ignore"):  # inf stats: the IQR is nan by design
            median = np.median(arr, axis=1)
            q25, q75 = np.percentile(arr, [25, 75], axis=1)
            iqr = q75 - q25
        for (i, name, _), m, q in zip(stacked, median.tolist(), iqr.tolist()):
            medians[i][name] = m
            iqrs[i][name] = q
    return tuple(
        ValueSummary(
            value=value,
            n_seeds=n_seeds,
            n_failed=sum(1 for c in group if c.error is not None),
            median=median,
            iqr=iqr,
        )
        for value, group, median, iqr in zip(values, groups, medians, iqrs)
    )


# The worker pool kept between parallel sweeps, as (workers, executor), or
# None; the lock serializes the sweeps of threads that share it.
_pool = None
_POOL_LOCK = threading.Lock()


def _pool_map(
    spec: SweepSpec, cfg: CrashConfig | None, n_jobs: int
) -> list[tuple[SweepCell, np.ndarray | None]]:
    """The outcomes of ``_run_cells`` on the whole grid, in order, from the
    kept pool, which runs one ``_run_cells`` call per chunk (see run_sweep).

    A kept pool of size to n_jobs workers is reused, so a small sweep after
    a large one with the same n_jobs starts nothing.  Any other pool is shut
    down and joined before a new one of size workers forks, so no executor
    thread is alive at the fork.  Any exception drops the pool before it
    propagates, except that a kept pool found broken (its idle
    workers were killed, say) is replaced and the cells run once more: cells
    are pure, so the rerun gives the same cells.  A new pool that breaks
    raises.
    """
    # imported here: a serial run never needs them
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from functools import partial
    from multiprocessing import parent_process

    global _pool
    n = len(spec.values) * len(spec.seeds)
    size = min(n_jobs, n)  # a worker started for no cell would only cost its start-up
    reused = _pool is not None and size <= _pool[0] <= n_jobs
    if not reused:
        _drop_pool()
        _pool = (size, ProcessPoolExecutor(max_workers=size))
    bounds = [*range(0, n, -(-n // size)), n]
    try:
        done = list(_pool[1].map(partial(_run_cells, spec, cfg), bounds, bounds[1:]))
    except BrokenProcessPool:
        _drop_pool()
        if not reused:
            raise
        return _pool_map(spec, cfg, n_jobs)  # on a new pool, which raises if it breaks
    except BaseException:
        _drop_pool()
        raise
    if parent_process() is not None:
        # a multiprocessing child joins its non-daemon children when its
        # target returns and runs no atexit hook: these workers would hang it
        _drop_pool()
    return [outcome for outcomes in done for outcome in outcomes]


@atexit.register
def _drop_pool() -> None:
    """Shut the kept pool down, if there is one, and wait for its workers."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown(wait=True, cancel_futures=True)


def _forget_pool() -> None:
    """In a forked child: the kept pool's workers and executor thread belong
    to the parent, and the lock may have been held by another of its threads."""
    global _pool, _POOL_LOCK
    _pool, _POOL_LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def run_sweep(
    spec: SweepSpec,
    cfg: CrashConfig | None = None,
    n_jobs: int = 1,
) -> SweepResult:
    """Evaluate the full (value, seed) grid and aggregate per value.

    With cfg=None each cell derives its detector from its own parameters, so
    the crossing threshold tracks a swept b.  The grid ordering (values-major,
    seeds-minor) and every number in the result are independent of n_jobs.
    The cells of one seed share its draws (see model.py), and each cell is
    bit for bit what its own ``simulate`` + ``summarize`` gives.

    n_jobs > 1 runs the cells on worker processes.  With size =
    min(n_jobs, cells), the seed-major grid is cut into at most size
    contiguous chunks of ceil(cells / size) cells, and the next chunk goes to
    the first idle worker: on a fresh pool one worker may run two chunks
    before another has started (spawn and forkserver often do).  No worker
    takes over cells from a slow one, so a worker held up by the host holds
    up the sweep.  A sweep starts at most size workers, and reuses a kept
    pool of size to n_jobs workers, so only the first parallel sweep in a
    process pays their start-up.  The pool is replaced when it has more than n_jobs workers or
    fewer than size, or when it breaks.  It is shut down at interpreter exit,
    and its workers see the package as it was when they were started.  A
    forked child starts its own workers, and in a multiprocessing child, which
    runs no exit hook, they are shut down before the sweep returns.

    A cell that fails (invalid derived parameters, say) is recorded with its
    error and excluded from the aggregates.  If every cell fails, raises
    ValueError carrying the first error.

    Each value's first-seed cell also keeps its log-price path in
    ``paths``, so plotting the sweep simulates nothing again.
    """
    n_jobs = integer(n_jobs, "run_sweep n_jobs")
    if n_jobs < 1:
        raise ValueError(f"run_sweep requires n_jobs >= 1 (got {n_jobs})")
    n_values = len(spec.values)
    if n_jobs == 1:
        outcomes = _run_cells(spec, cfg, 0, n_values * len(spec.seeds))
    else:
        with _POOL_LOCK:
            outcomes = _pool_map(spec, cfg, n_jobs)
    outcomes = [outcome for i in range(n_values) for outcome in outcomes[i::n_values]]
    cells = [cell for cell, _ in outcomes]
    if all(c.error is not None for c in cells):
        raise ValueError(f"every sweep cell failed; first error: {cells[0].error}")
    paths = tuple(path for _, path in outcomes[:: len(spec.seeds)])
    return SweepResult(
        spec=spec, cells=tuple(cells), summaries=_aggregate(spec.values, cells), paths=paths
    )


def compare_medians(result: SweepResult, field: str) -> list[tuple[float, float | None]]:
    """(value, median-of-field) pairs in the sweep's value order."""
    if field not in STAT_FIELDS:
        raise ValueError(f"unknown summary field {field!r}; expected one of {', '.join(STAT_FIELDS)}")
    return [(s.value, s.median[field]) for s in result.summaries]

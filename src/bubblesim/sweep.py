"""One-parameter-at-a-time experiments over matched-seed ensembles.

A sweep varies a single scalar parameter over an ordered list of values and
runs the same list of seeds at every value.  Matching the seeds across values
makes comparisons paired: cell (value_i, seed_s) and cell (value_j, seed_s)
differ only in the parameter, never in the noise realization.

Per value the ensemble is reduced to the median and interquartile range of
each summary field.  Medians, not means: peak log-prices are heavy-tailed
across seeds, and the claims a sweep supports are qualitative orderings.

One caveat worth knowing before trusting an ordering: the median peak is not
largest at an intermediate return-memory r.  At r = 0.0005 / 0.001 / 0.005
the median peak log-prices on seeds 50..1049 are 0.505 / 0.39 / 0.54, the
same U shape as on seeds 0..49, and r = 0.001 is the largest of the three in
only 0.02% of 50-seed subsets of them (and on about 13% of single paths).
The test suite checks that ordering explicitly and reports the measured
deviation rather than hiding it.

Cells are independent pure function evaluations, so run_sweep can fan them
out to worker processes; results are collected by cell index and the output
is bit-identical whether run serially or in parallel.  The worker processes
are kept between parallel sweeps: the first one in a process pays their
start-up, later ones with the same n_jobs reuse the warm workers.  The pool
is replaced when n_jobs changes or when it breaks, and is shut down when the
interpreter exits.  A forked child starts workers of its own, and in a
multiprocessing child, which runs no exit hook, each parallel sweep shuts
them down before it returns.  Workers see the package as it was when they
were started, not changes made to its modules afterwards.  A cell whose
derived parameters are invalid (say a swept b landing above c) records an
error string and the sweep continues; only a sweep with no surviving cell
raises.
"""

from __future__ import annotations

import atexit
import numbers
import os
import threading
from dataclasses import dataclass, fields

import numpy as np

from .analysis import CrashConfig, SummaryStats, summarize
from .model import simulate
from .params import PARAM_FIELDS, ModelParams, finite_real

STAT_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(SummaryStats))

# accepted spellings for CLI-facing axis names
_AXIS_ALIASES = {"lambda": "Lambda"}


def canonical_axis(axis: str) -> str:
    """Map an axis name to the matching parameter field, case-tolerantly."""
    if not isinstance(axis, str):
        raise ValueError(f"sweep axis must be a string (got {axis!r})")
    name = _AXIS_ALIASES.get(axis.lower(), axis)
    if name in PARAM_FIELDS:
        return name
    lowered = {f.lower(): f for f in PARAM_FIELDS}
    if name.lower() in lowered:
        return lowered[name.lower()]
    raise ValueError(
        f"unknown sweep axis {axis!r}; expected one of {', '.join(PARAM_FIELDS)}"
    )


def _is_integral(x) -> bool:
    """True for integers and for finite reals with no fractional part."""
    if isinstance(x, numbers.Integral):
        return True
    return finite_real(x) and x == int(x)


@dataclass(frozen=True)
class SweepSpec:
    """Definition of one sweep: base parameters, axis, values, matched seeds."""

    base: ModelParams
    axis: str
    values: tuple[float, ...]
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", canonical_axis(self.axis))
        values, seeds = tuple(self.values), tuple(self.seeds)
        for v in values:
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"SweepSpec requires real values (got {v!r})")
        for s in seeds:
            if isinstance(s, bool) or not _is_integral(s):
                raise ValueError(f"SweepSpec requires integer seeds (got {s!r})")
        if not all(map(finite_real, values)):
            raise ValueError(f"SweepSpec requires finite values (got {values})")
        object.__setattr__(self, "values", tuple(float(v) for v in values))
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))
        if not self.values:
            raise ValueError("SweepSpec requires a non-empty values list")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"SweepSpec requires strictly increasing values (got {self.values})")
        if not self.seeds:
            raise ValueError("SweepSpec requires a non-empty seeds list")
        for s in self.seeds:
            if not 0 <= s < 2**64:
                raise ValueError(f"SweepSpec requires seeds in [0, 2**64) (got {s})")


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
    aggregates, cells ordered values-major then seeds-minor."""

    spec: SweepSpec
    cells: tuple[SweepCell, ...]
    summaries: tuple[ValueSummary, ...]

    def cell(self, value_index: int, seed_index: int) -> SweepCell:
        return self.cells[value_index * len(self.spec.seeds) + seed_index]


def _run_cell(task: tuple[ModelParams, str, float, int, CrashConfig | None]) -> SweepCell:
    """Evaluate one grid cell; module-level so worker processes can pickle it."""
    base, axis, value, seed, cfg = task
    try:
        params = base.with_value(axis, value)
        stats = summarize(simulate(params, seed), cfg)
        return SweepCell(value=value, seed=seed, stats=stats, error=None)
    except Exception as exc:
        return SweepCell(value=value, seed=seed, stats=None, error=f"{type(exc).__name__}: {exc}")


def _aggregate(value: float, cells: list[SweepCell]) -> ValueSummary:
    median: dict[str, float | None] = {}
    iqr: dict[str, float | None] = {}
    for name in STAT_FIELDS:
        vals = [
            getattr(c.stats, name)
            for c in cells
            if c.stats is not None and getattr(c.stats, name) is not None
        ]
        if vals:
            arr = np.asarray(vals, dtype=float)
            with np.errstate(invalid="ignore"):  # inf stats: the IQR is nan by design
                median[name] = float(np.median(arr))
                iqr[name] = float(np.percentile(arr, 75) - np.percentile(arr, 25))
        else:
            median[name] = None
            iqr[name] = None
    return ValueSummary(
        value=value,
        n_seeds=len(cells),
        n_failed=sum(1 for c in cells if c.error is not None),
        median=median,
        iqr=iqr,
    )


# The worker pool kept between parallel sweeps, as (n_jobs, executor), or
# None; the lock serializes the sweeps of threads that share it.
_pool = None
_POOL_LOCK = threading.Lock()


def _pool_map(tasks: list, n_jobs: int) -> list[SweepCell]:
    """The cells of ``tasks``, in order, from the kept pool of n_jobs workers.

    A pool of another size is shut down and joined before the new one forks,
    so no executor thread is alive at the fork.  Any exception drops the pool
    before it propagates, except that a kept pool found broken (its idle
    workers were killed, say) is replaced and the tasks run once more: cells
    are pure, so the rerun gives the same cells.  A new pool that breaks
    raises.
    """
    # imported here: a serial run never needs them
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from multiprocessing import parent_process

    global _pool
    reused = _pool is not None and _pool[0] == n_jobs
    if not reused:
        _drop_pool()
        _pool = (n_jobs, ProcessPoolExecutor(max_workers=n_jobs))
    chunk = max(1, len(tasks) // (4 * n_jobs))
    try:
        cells = list(_pool[1].map(_run_cell, tasks, chunksize=chunk))
    except BrokenProcessPool:
        _drop_pool()
        if not reused:
            raise
        return _pool_map(tasks, n_jobs)  # on a new pool, which raises if it breaks
    except BaseException:
        _drop_pool()
        raise
    if parent_process() is not None:
        # a multiprocessing child joins its non-daemon children when its
        # target returns and runs no atexit hook: these workers would hang it
        _drop_pool()
    return cells


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
    the crossing threshold tracks a swept b.  n_jobs > 1 fans cells out to
    that many worker processes; the grid ordering (values-major, seeds-minor)
    and every number in the result are independent of the execution mode.

    The workers are kept for later parallel sweeps, so only the first one in
    a process pays their start-up.  They are replaced when n_jobs changes or
    the pool breaks, shut down at interpreter exit, and see the package as it
    was when they were started.  A forked child starts its own workers, and
    in a multiprocessing child they are shut down before the sweep returns.

    A cell that fails (invalid derived parameters, say) is recorded with its
    error and excluded from the aggregates.  If every cell fails, raises
    RuntimeError carrying the first error.
    """
    if not isinstance(n_jobs, int) or isinstance(n_jobs, bool) or n_jobs < 1:
        raise ValueError(f"run_sweep requires integer n_jobs >= 1 (got {n_jobs!r})")
    tasks = [
        (spec.base, spec.axis, value, seed, cfg)
        for value in spec.values
        for seed in spec.seeds
    ]
    if n_jobs == 1:
        cells = [_run_cell(t) for t in tasks]
    else:
        with _POOL_LOCK:
            cells = _pool_map(tasks, n_jobs)
    if all(c.error is not None for c in cells):
        raise RuntimeError(f"every sweep cell failed; first error: {cells[0].error}")
    n_seeds = len(spec.seeds)
    summaries = tuple(
        _aggregate(value, cells[i * n_seeds : (i + 1) * n_seeds])
        for i, value in enumerate(spec.values)
    )
    return SweepResult(spec=spec, cells=tuple(cells), summaries=summaries)


def compare_medians(result: SweepResult, field: str) -> list[tuple[float, float | None]]:
    """(value, median-of-field) pairs in the sweep's value order."""
    if field not in STAT_FIELDS:
        raise ValueError(f"unknown summary field {field!r}; expected one of {', '.join(STAT_FIELDS)}")
    return [(s.value, s.median[field]) for s in result.summaries]

"""Crash detection and per-trajectory summary statistics.

A "crash" here is a bubble/bust episode read off the simulated path: momentum
crossing up through a threshold marks the onset of a run-up, the log-price
peak within a bounded window after the crossing marks the top, and the
subsequent minimum (before the story restarts at the next crossing) marks the
bottom.  Episodes whose peak-to-trough drawdown stays below a floor are
discarded as noise.

Detection is deliberately a pure filter: candidate episodes are resolved the
same way regardless of the drawdown floor, and the floor only selects which
ones are reported.  Raising the floor therefore never creates new events,
only removes marginal ones, which makes sweeps over the floor monotone.

Detection and the summary read only a trajectory's log-price, momentum and
n_trades columns.  ``detect_crashes`` and ``summarize`` hand those to
``_crashes`` and ``_summary``, which work on the arrays alone, so a sweep
cell, which builds just those three columns, is summarized by the same code
and the detector exists once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import Trajectory
from .params import ModelParams, integer, real


@dataclass(frozen=True, slots=True)
class CrashConfig:
    """Detector knobs: crossing threshold, peak search window, drawdown floor."""

    threshold: float
    peak_window: int
    min_drawdown: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold", real(self.threshold, "CrashConfig threshold"))
        object.__setattr__(self, "peak_window", integer(self.peak_window, "CrashConfig peak_window"))
        object.__setattr__(self, "min_drawdown", real(self.min_drawdown, "CrashConfig min_drawdown"))
        if self.peak_window < 1:
            raise ValueError(f"CrashConfig requires peak_window >= 1 (got {self.peak_window})")
        if self.min_drawdown <= 0:
            raise ValueError(f"CrashConfig requires min_drawdown > 0 (got {self.min_drawdown})")

    @classmethod
    def for_params(cls, params: ModelParams, **settings) -> "CrashConfig":
        """Defaults tied to the model: threshold at the middle cubic root b
        (where accumulation flips to selling pressure) and a drawdown floor of
        five ticks, well above single-trade noise.  A setting given by keyword
        replaces its default, which is then never checked."""
        defaults = {"threshold": params.b, "peak_window": 500, "min_drawdown": 5.0 * params.d}
        return cls(**{**defaults, **settings})


@dataclass(frozen=True, slots=True)
class CrashEvent:
    """One resolved bubble/bust episode, indices into the trajectory."""

    t_cross: int
    t_peak: int
    t_trough: int
    peak_log_price: float
    trough_log_price: float
    drawdown: float


@dataclass(frozen=True, slots=True)
class SummaryStats:
    """Scalar summary of one trajectory under one detector configuration.

    mean_inter_crash_interval is None when fewer than two crashes occurred.
    time_above_threshold counts periods t >= 1 with momentum strictly above
    the detector threshold, so it is at most T.
    """

    peak_log_price: float
    total_trades: int
    n_crashes: int
    mean_inter_crash_interval: float | None
    max_momentum: float
    time_above_threshold: int


def up_crossings(momentum: np.ndarray, threshold: float) -> np.ndarray:
    """Indices t with momentum[t-1] <= threshold < momentum[t], ascending."""
    m = np.asarray(momentum, dtype=float)
    if m.ndim != 1:
        raise ValueError(f"up_crossings requires a 1-d array (got ndim={m.ndim})")
    if m.size < 2:
        return np.empty(0, dtype=np.int64)
    hits = np.flatnonzero((m[:-1] <= threshold) & (m[1:] > threshold)) + 1
    return hits.astype(np.int64)


def detect_crashes(traj: Trajectory, cfg: CrashConfig | None = None) -> list[CrashEvent]:
    """Resolve bubble/bust episodes along a trajectory, in time order.

    For each unconsumed up-crossing t_c of momentum through the threshold:

      * peak:   argmax of log-price over [t_c, t_c + peak_window], clipped to
                the end of the trajectory (first index on ties);
      * trough: argmin of log-price from the peak up to (not including) the
                next crossing after the peak, or to the end if there is none;
      * the episode is reported iff peak - trough >= min_drawdown.

    Every crossing at or before the resolved trough is consumed whether or not
    the episode passes the floor, so each period belongs to at most one
    episode and reported events never overlap: t_trough[i] < t_cross[i+1].
    Consuming them needs no code of its own: they are the crossings up to
    the peak, because the trough search stops before the next crossing.
    The floor is applied last, so the detector stays a pure filter.

    The crossings are walked as a list of Python ints, and each price is
    read once as a Python float; the numpy form of the same steps lives with
    the tests, which check every event against it field by field and bit
    for bit.
    """
    if cfg is None:
        cfg = CrashConfig.for_params(traj.params)
    return _crashes(traj.log_price, traj.momentum, cfg)


def _crashes(lp: np.ndarray, momentum: np.ndarray, cfg: CrashConfig) -> list[CrashEvent]:
    """``detect_crashes`` on the log-price and momentum columns."""
    if len(lp) < 2:
        raise ValueError(f"detect_crashes requires at least 2 records (got {len(lp)})")
    cross = up_crossings(momentum, cfg.threshold).tolist()
    window = cfg.peak_window + 1
    events: list[CrashEvent] = []
    i = 0
    while i < len(cross):
        t_c = cross[i]
        t_peak = t_c + int(lp[t_c : t_c + window].argmax())  # the slice clips at the end
        # the next episode starts at the first crossing after the peak, and
        # the trough search stops before it
        i = bisect_right(cross, t_peak)  # > i: cross[i] <= t_peak
        t_end = cross[i] if i < len(cross) else len(lp)
        t_trough = t_peak + int(lp[t_peak:t_end].argmin())
        peak, trough = lp.item(t_peak), lp.item(t_trough)
        drawdown = peak - trough
        if drawdown >= cfg.min_drawdown:
            events.append(CrashEvent(t_c, t_peak, t_trough, peak, trough, drawdown))
    return events


def summarize(traj: Trajectory, cfg: CrashConfig | None = None) -> SummaryStats:
    """Scalar summary: price peak, trade count, crash count and spacing.

    mean_inter_crash_interval averages successive crossing-to-crossing gaps of
    the reported events.
    """
    if cfg is None:
        cfg = CrashConfig.for_params(traj.params)
    return _summary(traj.log_price, traj.momentum, traj.n_trades, cfg)


def _summary(
    log_price: np.ndarray, momentum: np.ndarray, n_trades: np.ndarray, cfg: CrashConfig
) -> SummaryStats:
    """``summarize`` on the three columns it reads, which are all a sweep
    cell builds."""
    events = _crashes(log_price, momentum, cfg)
    if len(events) >= 2:
        gaps = [b.t_cross - a.t_cross for a, b in zip(events, events[1:])]
        mean_gap: float | None = sum(gaps) / len(gaps)
    else:
        mean_gap = None
    return SummaryStats(
        peak_log_price=float(np.max(log_price)),
        total_trades=int(n_trades[-1]),
        n_crashes=len(events),
        mean_inter_crash_interval=mean_gap,
        max_momentum=float(np.max(momentum)),
        # periods 0 and 1 are initial conditions; momentum exists for t >= 1
        time_above_threshold=int(np.sum(momentum[1:] > cfg.threshold)),
    )

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Trajectory
from .params import ModelParams, finite_real


@dataclass(frozen=True, slots=True)
class CrashConfig:
    """Detector knobs: crossing threshold, peak search window, drawdown floor."""

    threshold: float
    peak_window: int
    min_drawdown: float

    def __post_init__(self) -> None:
        if not isinstance(self.peak_window, int) or isinstance(self.peak_window, bool):
            raise ValueError(f"CrashConfig requires an integer peak_window (got {self.peak_window!r})")
        if self.peak_window < 1:
            raise ValueError(f"CrashConfig requires peak_window >= 1 (got {self.peak_window})")
        if not finite_real(self.threshold):
            raise ValueError(f"CrashConfig requires a finite real threshold (got {self.threshold!r})")
        if not finite_real(self.min_drawdown) or self.min_drawdown <= 0:
            raise ValueError(f"CrashConfig requires a finite real min_drawdown > 0 (got {self.min_drawdown!r})")

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
    """
    if cfg is None:
        cfg = CrashConfig.for_params(traj.params)
    if len(traj) < 2:
        raise ValueError(f"detect_crashes requires at least 2 records (got {len(traj)})")
    lp = traj.log_price
    n = len(lp)
    cross = up_crossings(traj.momentum, cfg.threshold)
    events: list[CrashEvent] = []
    i = 0
    while i < len(cross):
        t_c = int(cross[i])
        peak_end = min(t_c + cfg.peak_window, n - 1)
        t_peak = t_c + int(np.argmax(lp[t_c : peak_end + 1]))
        j = int(np.searchsorted(cross, t_peak, side="right"))  # > i: cross[i] <= t_peak
        t_end = int(cross[j]) if j < len(cross) else n
        t_trough = t_peak + int(np.argmin(lp[t_peak:t_end]))
        drawdown = float(lp[t_peak] - lp[t_trough])
        if drawdown >= cfg.min_drawdown:
            events.append(
                CrashEvent(
                    t_cross=t_c,
                    t_peak=t_peak,
                    t_trough=t_trough,
                    peak_log_price=float(lp[t_peak]),
                    trough_log_price=float(lp[t_trough]),
                    drawdown=drawdown,
                )
            )
        i = j  # cross[j] > t_trough: the trough search stopped before it
    return events


def summarize(traj: Trajectory, cfg: CrashConfig | None = None) -> SummaryStats:
    """Scalar summary: price peak, trade count, crash count and spacing.

    mean_inter_crash_interval averages successive crossing-to-crossing gaps of
    the reported events.
    """
    if cfg is None:
        cfg = CrashConfig.for_params(traj.params)
    events = detect_crashes(traj, cfg)
    if len(events) >= 2:
        gaps = [b.t_cross - a.t_cross for a, b in zip(events, events[1:])]
        mean_gap: float | None = float(np.mean(gaps))
    else:
        mean_gap = None
    return SummaryStats(
        peak_log_price=float(np.max(traj.log_price)),
        total_trades=int(traj.n_trades[-1]),
        n_crashes=len(events),
        mean_inter_crash_interval=mean_gap,
        max_momentum=float(np.max(traj.momentum)),
        # periods 0 and 1 are initial conditions; momentum exists for t >= 1
        time_above_threshold=int(np.sum(traj.momentum[1:] > cfg.threshold)),
    )

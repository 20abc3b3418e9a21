"""Deterministic simulator of momentum-driven market bubbles and crashes.

The model couples three pieces: an exponentially weighted momentum of past
log-returns, a Bernoulli trade-arrival channel whose intensity rises with
momentum, and a cubic direction-pressure state that turns moderate momentum
into trend following and overheated momentum into selling.  Prices move on
a fixed tick lattice, one tick per trade.

Everything downstream of a (parameters, seed) pair is reproducible bit for
bit: trajectories, crash detections, sweep ensembles, and the CSV/JSON/SVG
artifacts the CLI writes.
"""

from .analysis import (
    CrashConfig,
    CrashEvent,
    SummaryStats,
    detect_crashes,
    summarize,
    up_crossings,
)
from .io import (
    ARTIFACT_VERSION as __version__,
    CSV_HEADER,
    read_trajectory_csv,
    summary_payload,
    sweep_payload,
    write_summary_json,
    write_trajectory_csv,
)
from .model import Trajectory, normal_cdf, simulate
from .params import PARAM_FIELDS, ModelParams
from .rng import RngStream
from .svgplot import plot_sweep, plot_trajectory
from .sweep import (
    SweepCell,
    SweepResult,
    SweepSpec,
    ValueSummary,
    compare_medians,
    run_sweep,
)

__all__ = [
    "CSV_HEADER",
    "CrashConfig",
    "CrashEvent",
    "ModelParams",
    "PARAM_FIELDS",
    "RngStream",
    "SummaryStats",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "Trajectory",
    "ValueSummary",
    "compare_medians",
    "detect_crashes",
    "normal_cdf",
    "plot_sweep",
    "plot_trajectory",
    "read_trajectory_csv",
    "run_sweep",
    "simulate",
    "summarize",
    "summary_payload",
    "sweep_payload",
    "up_crossings",
    "write_summary_json",
    "write_trajectory_csv",
]

"""The public API: every name in ``bubblesim.__all__``, pinned."""

import bubblesim

PUBLIC_NAMES = [
    "ARTIFACT_VERSION",
    "BASELINE",
    "CSV_HEADER",
    "CrashConfig",
    "CrashEvent",
    "ModelParams",
    "PARAM_FIELDS",
    "RngStream",
    "STAT_FIELDS",
    "SummaryStats",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "Trajectory",
    "ValueSummary",
    "canonical_axis",
    "compare_medians",
    "cubic_increment",
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


def test_public_names_are_pinned_and_resolve():
    # a name added to or dropped from the API shows up as a diff of this list
    assert sorted(bubblesim.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 31
    missing = [name for name in PUBLIC_NAMES if not hasattr(bubblesim, name)]
    assert missing == []

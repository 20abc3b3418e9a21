"""The public API: every name in ``bubblesim.__all__``, pinned, and what
importing it loads."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import bubblesim

PUBLIC_NAMES = [
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


def test_public_names_are_pinned_and_resolve():
    # a name added to or dropped from the API shows up as a diff of this list
    assert sorted(bubblesim.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 26
    missing = [name for name in PUBLIC_NAMES if not hasattr(bubblesim, name)]
    assert missing == []


# (importing module, imported module, name) of every private name that one
# module of the package imports from another: the seams between modules
PRIVATE_IMPORTS = [
    ("cli", "io", "_csv_text"),
    ("cli", "io", "_json_text"),
    ("cli", "io", "_write_files"),
    ("cli", "svgplot", "_sweep_svg"),
    ("cli", "svgplot", "_trajectory_svg"),
    ("svgplot", "io", "_points"),
    ("svgplot", "io", "_write_files"),
    ("sweep", "analysis", "_summary"),
    ("sweep", "model", "_simulator"),
]


def test_private_names_imported_across_modules_are_pinned():
    # a seam widened or narrowed shows up as a diff of this list
    found = []
    for path in sorted(Path(bubblesim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found += [(path.stem, node.module, a.name) for a in node.names if a.name.startswith("_")]
    assert sorted(found) == PRIVATE_IMPORTS


def test_names_only_the_tests_used_are_not_exported():
    # BASELINE and canonical_axis are deleted; the other three stay in
    # bubblesim.io, bubblesim.sweep and bubblesim.model
    gone = ["ARTIFACT_VERSION", "BASELINE", "STAT_FIELDS", "canonical_axis", "cubic_increment"]
    assert [name for name in gone if hasattr(bubblesim, name)] == []
    assert bubblesim.__version__ == "0.1.0"


def test_readme_python_examples_run():
    # the blocks build on each other, so they run in order in one interpreter
    readme = Path(bubblesim.__file__).parents[2] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(Path(bubblesim.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", "\n".join(blocks)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_out_modules_only_some_runs_need():
    # xml.sax pulls in urllib.request, and the process pool is imported by
    # run_sweep only when it fans out; none of them belongs in start-up
    code = (
        "import sys, bubblesim; "
        "print(sorted(m for m in ('xml.sax', 'urllib.request', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bubblesim.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

"""The committed golden corpus: every (params, seed) case must still give the
bytes, draw count, stats and events recorded in golden.json, or the same
``ValueError`` text, as a simulation and as a one-cell sweep, and every CLI
run the same exit code and file bytes.  make_golden.py writes the file; this
test only reads it."""

import json

from bubblesim import SweepSpec, run_sweep
from make_golden import GOLDEN, cli_outcome, outcome, params_of, stats_json

_CORPUS = [case for case in json.loads(GOLDEN.read_text(encoding="utf-8")) if "params" in case]
_CLI_RUNS = [run for run in json.loads(GOLDEN.read_text(encoding="utf-8")) if "argv" in run]


def test_the_corpus_covers_refusals_events_and_long_paths():
    assert len(_CORPUS) >= 160
    assert sum("error" in case for case in _CORPUS) >= 10
    assert sum(len(case.get("events", ())) for case in _CORPUS) >= 50
    assert {case["params"]["T"] for case in _CORPUS} >= {2, 3, 10, 500, 5000}


def test_every_case_gives_its_recorded_outcome():
    mismatches = []
    for case in _CORPUS:
        want = {k: v for k, v in case.items() if k not in ("params", "seed")}
        got = outcome(case["params"], case["seed"])
        if got != want:
            mismatches.append((case["params"], case["seed"], sorted(
                k for k in want.keys() | got.keys() if want.get(k) != got.get(k))))
    assert not mismatches, f"{len(mismatches)} cases differ, first: {mismatches[0]}"


def test_every_case_whose_params_construct_gives_its_recorded_stats_as_a_one_cell_sweep():
    # a sweep cell finishes its run into the columns its summary reads, not
    # into a Trajectory: it must give the recorded stats bit for bit, or fail
    # with the recorded text of the run or of its default detector
    mismatches, cells = [], 0
    for case in _CORPUS:
        try:
            p = params_of(case["params"])
        except ValueError:
            continue
        cells += 1
        try:
            got = {"stats": stats_json(run_sweep(SweepSpec(p, "b", (p.b,), (case["seed"],))).cells[0].stats)}
        except ValueError as exc:
            got = {"error": str(exc)}
        error = case.get("error", case.get("detector_error"))
        want = {"stats": case["stats"]} if error is None else {
            "error": f"every sweep cell failed; first error: ValueError: {error}"}
        if got != want:
            mismatches.append((case["params"], case["seed"]))
    assert cells >= 190
    assert not mismatches, f"{len(mismatches)} of {cells} cells differ, first: {mismatches[0]}"


def test_every_cli_run_writes_its_recorded_bytes():
    assert len(_CLI_RUNS) >= 6 and {"sweep.svg", "trajectory.csv"} <= {
        name for run in _CLI_RUNS for name in run["files"]}
    for run in _CLI_RUNS:
        assert cli_outcome(run["argv"]) == {"exit": run["exit"], "files": run["files"]}, run["argv"]

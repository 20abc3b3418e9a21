"""The committed golden corpus: every (params, seed) case must still give the
bytes, draw count, stats and events recorded in golden.json, or the same
``ValueError`` text, and every CLI run the same exit code and file bytes.
make_golden.py writes the file; this test only reads it."""

import json

from make_golden import GOLDEN, cli_outcome, outcome

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


def test_every_cli_run_writes_its_recorded_bytes():
    assert len(_CLI_RUNS) >= 6 and {"sweep.svg", "trajectory.csv"} <= {
        name for run in _CLI_RUNS for name in run["files"]}
    for run in _CLI_RUNS:
        assert cli_outcome(run["argv"]) == {"exit": run["exit"], "files": run["files"]}, run["argv"]

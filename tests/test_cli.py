"""CLI behavior: flag/file layering, outputs, exit codes."""

import builtins
import itertools
import json
import os
import subprocess
import sys
import warnings

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bubblesim.io
from bubblesim import CSV_HEADER, CrashConfig, ModelParams, read_trajectory_csv, simulate
from bubblesim.cli import (
    _CONFIG_KEYS,
    ConfigError,
    build_parser,
    main,
    parse_config,
    parse_seed_range,
    parse_value_list,
)
from bubblesim.params import PARAM_FIELDS


def _run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------- parsing


def test_seed_range_parsing():
    assert parse_seed_range("0..2") == (0, 1, 2)
    assert parse_seed_range("7..7") == (7,)
    with pytest.raises(ConfigError):
        parse_seed_range("5..2")
    with pytest.raises(ConfigError):
        parse_seed_range("1-3")
    with pytest.raises(ConfigError):
        parse_seed_range("a..b")
    # refused before a tuple is built: B >= 2**64, and 2**64 seeds in 0..2**64-1
    with pytest.raises(ConfigError, match="B < 2\\*\\*64"):
        parse_seed_range("0..99999999999999999999")
    with pytest.raises(ConfigError, match="too long"):
        parse_seed_range("0..18446744073709551615")


def test_a_huge_seed_bound_exits_1_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ("sweep", "--axis", "b", "--values", "0.01", "--seeds", "0..99999999999999999999")
    assert _run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.strip()]
    assert "Traceback" not in err
    assert not out.exists()


def test_value_list_parsing():
    assert parse_value_list("0.0001,0.01,0.02") == (0.0001, 0.01, 0.02)
    with pytest.raises(ConfigError):
        parse_value_list("1,two,3")


# ---------------------------------------------------------------- simulate


def test_simulate_writes_three_files_by_default(tmp_path):
    out = tmp_path / "run"
    assert _run("simulate", "--seed", "42", "--out", str(out), "--T", "300") == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "trajectory.svg").exists()


def test_no_plot_skips_the_svg(tmp_path):
    out = tmp_path / "run"
    assert _run("simulate", "--seed", "1", "--out", str(out), "--T", "200", "--no-plot") == 0
    assert not (out / "trajectory.svg").exists()
    assert (out / "trajectory.csv").exists()


def test_simulate_output_matches_the_library(tmp_path):
    out = tmp_path / "run"
    assert _run("simulate", "--seed", "5", "--out", str(out), "--T", "250", "--no-plot") == 0
    cols = read_trajectory_csv(out / "trajectory.csv")
    traj = simulate(ModelParams(T=250), 5)
    assert (cols["log_price"] == traj.log_price).all()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 5
    assert summary["config"]["params"]["T"] == 250


def test_constraint_violation_exits_1(tmp_path, capsys):
    assert _run("simulate", "--b", "-5", "--a", "-1", "--out", str(tmp_path)) == 1
    assert "requires a < b < c" in capsys.readouterr().err


def test_a_memory_error_without_text_still_prints_a_message(tmp_path, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("bubblesim.cli.simulate", out_of_memory)
    assert _run("simulate", "--T", "10", "--out", str(tmp_path / "run")) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_unknown_flag_exits_1(capsys):
    assert _run("simulate", "--bogus", "1") == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "b", "--values", "0.01", "--seed", "3"],  # not --seeds
    ["simulate", "--th", "0.1"],  # not --threshold
    ["sweep", "--axis", "b", "--val", "1"],  # not --values
])
def test_abbreviated_flags_exit_1_and_write_nothing(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert _run(*argv, "--T", "50", "--out", str(out)) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    assert _run("--help") == 0
    assert _run("simulate", "--help") == 0


# ---------------------------------------------------------------- config file


def test_empty_config_is_the_stock_setup(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    out = tmp_path / "run"
    assert _run("simulate", "--config", str(cfg), "--out", str(out), "--no-plot",
                "--T", "200") == 0
    summary = json.loads((out / "summary.json").read_text())
    expected = ModelParams(T=200).as_dict()
    assert summary["config"]["params"] == expected


def test_flags_override_the_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 0.01, "T": 200, "seed": 3}))
    out = tmp_path / "run"
    assert _run("simulate", "--config", str(cfg), "--b", "0.03", "--out", str(out), "--no-plot") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["params"]["b"] == 0.03  # flag wins
    assert summary["config"]["params"]["T"] == 200  # file fills the rest
    assert summary["seed"] == 3


_REALS = st.floats(-1e3, 1e3)
_SCALES = st.floats(1e-9, 1e3)
# values each config key may take with every other key at its default
_CONFIG_VALUES = {
    "T": st.integers(2, 10**6), "d": _SCALES, "r": _SCALES, "k": _SCALES, "h": _SCALES,
    "Lambda": _REALS, "log_p0": _REALS, "x0": _REALS,
    "a": st.floats(-1e3, 0.0), "b": st.floats(-0.99, 0.99), "c": st.floats(0.03, 1e3),
    "threshold": _REALS, "peak_window": st.integers(1, 10**4), "min_drawdown": _SCALES,
    "seed": st.integers(0, 2**64 - 1),
    "seeds": st.tuples(st.integers(0, 99), st.integers(0, 9)).map(lambda ab: f"{ab[0]}..{sum(ab)}"),
    "axis": st.sampled_from(PARAM_FIELDS),
    "values": st.lists(_REALS, min_size=1, max_size=4),
    "out": st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True),
    "plot": st.booleans(),
}
_DETECTOR_FLAGS = {"threshold": "--threshold", "peak_window": "--peak-window",
                   "min_drawdown": "--min-drawdown"}
_PARSER = build_parser()


def _config_flag(key, value):
    if key == "plot":
        return ["--plot" if value else "--no-plot"]
    if key == "values":
        value = ",".join(map(repr, value))
    return [f"{_DETECTOR_FLAGS.get(key, '--' + key)}={value}"]


def _config_value(key, raw):
    """What a config file or flag entry ``raw`` for ``key`` resolves to."""
    return {"seeds": parse_seed_range, "values": tuple, "out": Path}.get(key, lambda v: v)(raw)


def _resolved(cfg, key):
    if key in PARAM_FIELDS:
        return getattr(cfg.params, key)
    if key in _DETECTOR_FLAGS:
        return getattr(cfg.crash or CrashConfig.for_params(cfg.params), key)
    return getattr(cfg, key)


def _default(key):
    if key in PARAM_FIELDS:
        return getattr(ModelParams(), key)
    if key in _DETECTOR_FLAGS:
        return getattr(CrashConfig.for_params(ModelParams()), key)
    return {"seed": 0, "seeds": tuple(range(50)), "axis": None, "values": None,
            "out": Path("out"), "plot": True}[key]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(key=st.sampled_from(sorted(_CONFIG_VALUES)), data=st.data())
def test_a_flag_beats_the_file_and_the_file_beats_the_default(tmp_path_factory, key, data):
    assert set(_CONFIG_VALUES) == _CONFIG_KEYS
    filed = data.draw(_CONFIG_VALUES[key].filter(lambda v: _config_value(key, v) != _default(key)))
    flagged = data.draw(
        _CONFIG_VALUES[key].filter(lambda v: _config_value(key, v) != _config_value(key, filed))
    )
    path = tmp_path_factory.getbasetemp() / "precedence.json"
    path.write_text(json.dumps({key: filed}))
    command = "simulate" if key == "seed" else "sweep"  # --seed and --seeds live on one each

    def resolve(*argv):
        return _resolved(parse_config(_PARSER.parse_args([command, *argv])), key)

    assert resolve() == _default(key)
    assert resolve("--config", str(path)) == _config_value(key, filed)
    assert resolve("--config", str(path), *_config_flag(key, flagged)) == _config_value(key, flagged)


def test_unknown_config_key_exits_1_and_names_it(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1, "T": 100}))
    assert _run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
    assert "bogus_key" in capsys.readouterr().err


def test_config_constraint_violation_quotes_the_constraint(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 2, "c": 1}))
    assert _run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
    assert "requires a < b < c" in capsys.readouterr().err


def test_config_int_beyond_the_float_range_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"r": 1' + "0" * 400 + "}")  # a 401-digit JSON integer
    assert _run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ModelParams requires finite values (got r=1000")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seeds", [[True, False], [0, -1], [2**64], [1, 2.0]])
def test_config_seeds_must_be_64_bit_integers(tmp_path, capsys, seeds):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": seeds}))
    out = tmp_path / "o"
    assert _run("sweep", "--config", str(cfg), "--axis", "b", "--values", "0.01",
                "--T", "50", "--out", str(out)) == 1
    assert "config seeds must be" in capsys.readouterr().err
    assert not out.exists()


def test_config_seed_list_at_the_64_bit_edges_is_accepted(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": [0, 2**64 - 1]}))
    out = tmp_path / "o"
    assert _run("sweep", "--config", str(cfg), "--axis", "b", "--values", "0.01",
                "--T", "50", "--out", str(out), "--no-plot") == 0
    assert json.loads((out / "sweep.json").read_text())["seed"] == [0, 2**64 - 1]


def test_missing_or_invalid_config_exits_1(tmp_path, capsys):
    assert _run("simulate", "--config", str(tmp_path / "nope.json")) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run("simulate", "--config", str(bad)) == 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert _run("simulate", "--config", str(deep)) == 1
    assert "nested too deeply" in capsys.readouterr().err


def test_detector_overrides_reach_the_summary(tmp_path):
    out = tmp_path / "run"
    assert _run("simulate", "--seed", "1", "--T", "200", "--min-drawdown", "0.2",
                "--out", str(out), "--no-plot") == 0
    summary = json.loads((out / "summary.json").read_text())
    det = summary["config"]["detector"]
    assert det["min_drawdown"] == 0.2
    assert det["threshold"] == 0.02  # unset pieces keep their defaults


def test_the_plot_draws_the_detector_threshold_of_the_run(tmp_path):
    out = tmp_path / "run"
    assert _run("simulate", "--T", "300", "--threshold", "0.05", "--out", str(out)) == 0
    threshold = json.loads((out / "summary.json").read_text())["config"]["detector"]["threshold"]
    assert threshold == 0.05
    assert f'data-level="{threshold!r}"' in (out / "trajectory.svg").read_text()


def test_a_given_min_drawdown_replaces_a_default_that_would_fail(tmp_path, capsys):
    # 5*d overflows to inf, so the default floor fails; a given floor is used
    # without computing or checking the default
    out = tmp_path / "run"
    huge_d = ("simulate", "--d", "1e308", "--T", "5", "--out", str(out), "--no-plot")
    assert _run(*huge_d, "--min-drawdown", "1") == 0
    det = json.loads((out / "summary.json").read_text())["config"]["detector"]
    assert det == {"threshold": 0.02, "peak_window": 500, "min_drawdown": 1.0}
    capsys.readouterr()
    assert _run(*huge_d, "--threshold", "0.03") == 1
    assert "min_drawdown > 0 (got inf)" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    {"peak_window": 2.7},
    {"peak_window": True},
    {"peak_window": "300"},
    {"threshold": True},
    {"threshold": "0.02"},
    {"min_drawdown": True},
    {"min_drawdown": [0.1]},
    {"min_drawdown": 10**400},
    {"axis": "r", "values": [True]},
    {"values": [0.01, "0.02"]},
])
def test_config_detector_keys_and_values_are_checked_not_truncated(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"axis": "b", "values": [0.01], **entry}))
    out = tmp_path / "o"
    assert _run("sweep", "--config", str(cfg), "--seeds", "0..1", "--T", "50",
                "--out", str(out)) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entry", [{"out": 5}, {"out": ["a"]}, {"plot": "false"}, {"plot": 0}])
def test_config_out_and_plot_types_are_checked(tmp_path, monkeypatch, capsys, entry):
    # no --out flag: it would override the file's out
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(entry))
    assert _run("simulate", "--config", "cfg.json", "--T", "50") == 1
    assert capsys.readouterr().err.startswith(f"error: config {next(iter(entry))} must be")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("data, argv, error", [
    ([1, 2], (), "config file cfg.json must hold a JSON object"),
    ({"seed": "x"}, (), "seed must be an integer (got 'x')"),
    ({"seed": 1.0}, (), "seed must be an integer (got 1.0)"),
    ({"values": 3}, (), "config values must be a list of reals (got 3)"),
    ({"values": "0.01,0.02"}, (), "config values must be a list of reals (got '0.01,0.02')"),
    ({}, ("--values", "0.02,0.01"), "SweepSpec requires strictly increasing values"),
    # several bad entries: parameters, detector, seed, values, out/plot, seeds
    ({"T": 1, "seed": "x", "values": 3, "out": 5}, (), "ModelParams requires T >= 2"),
    ({"b": 5, "plot": 0}, (), "ModelParams requires a < b < c"),
    ({"threshold": "x", "seed": "x"}, (), "config threshold must be a real number"),
    ({"seed": "x", "values": 3}, (), "seed must be an integer"),
    ({"values": 3, "out": 5}, (), "config values must be"),
    ({"plot": 0, "seeds": 5}, (), "config plot must be"),
])
def test_the_first_bad_config_entry_exits_1(tmp_path, monkeypatch, capsys, data, argv, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    assert _run("sweep", "--config", "cfg.json", "--axis", "b", "--seeds", "0..1", *argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("data, argv, key, want", [
    ({"out": "filed"}, ("--out", ""), "out", Path("filed")),
    ({"axis": "r"}, ("--axis", ""), "axis", "r"),
    ({}, ("--out", "", "--axis", ""), "out", Path("out")),
    ({}, ("--out", "", "--axis", ""), "axis", None),
    # a flag wins over the file whatever the file holds
    ({"out": 5}, ("--out", "d"), "out", Path("d")),
    ({"plot": 0}, ("--no-plot",), "plot", False),
    ({"values": "0.01,0.02"}, ("--values", "0.1"), "values", (0.1,)),
    ({"seeds": 5}, ("--seeds", "3..4"), "seeds", (3, 4)),
])
def test_precedence_at_the_edges(tmp_path, data, argv, key, want):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    cfg = parse_config(_PARSER.parse_args(["sweep", "--config", str(path), *argv]))
    assert getattr(cfg, key) == want


def test_config_whole_number_peak_window_is_accepted(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"peak_window": 300.0, "threshold": 0, "min_drawdown": 1}))
    out = tmp_path / "o"
    assert _run("simulate", "--config", str(cfg), "--T", "50", "--out", str(out), "--no-plot") == 0
    det = json.loads((out / "summary.json").read_text())["config"]["detector"]
    assert det == {"peak_window": 300, "threshold": 0.0, "min_drawdown": 1.0}
    assert type(det["peak_window"]) is int and type(det["threshold"]) is float


# ---------------------------------------------------------------- sweep


def test_sweep_writes_grid_and_plot(tmp_path, capsys):
    out = tmp_path / "sw"
    assert _run("sweep", "--axis", "b", "--values", "0.01,0.02", "--seeds", "0..2",
                "--T", "250", "--out", str(out)) == 0
    data = json.loads((out / "sweep.json").read_text())
    assert len(data["sweep"]["cells"]) == 6
    assert data["seed"] == [0, 1, 2]
    assert (out / "sweep.svg").exists()
    assert "median peak_log_price" in capsys.readouterr().out


def test_sweep_requires_axis_and_values(tmp_path, capsys):
    assert _run("sweep", "--values", "1,2", "--out", str(tmp_path)) == 1
    assert _run("sweep", "--axis", "b", "--out", str(tmp_path)) == 1


def test_sweep_axis_lambda_spelling(tmp_path):
    out = tmp_path / "sw"
    assert _run("sweep", "--axis", "lambda", "--values=-2.5,-2.0", "--seeds", "0..1",
                "--T", "250", "--out", str(out), "--no-plot") == 0
    data = json.loads((out / "sweep.json").read_text())
    assert data["sweep"]["axis"] == "Lambda"


def test_sweep_with_no_valid_cell_exits_1(tmp_path, capsys):
    assert _run("sweep", "--axis", "b", "--values", "1.5,2.5", "--seeds", "0..1",
                "--T", "250", "--out", str(tmp_path / "sw")) == 1
    assert "requires a < b < c" in capsys.readouterr().err


# a log-price path that overflows to inf has no range to plot
_UNPLOTTABLE = ("--log_p0", "1.79e308", "--d", "1e307", "--Lambda", "30", "--T", "2")


@pytest.mark.parametrize("argv", [
    ("simulate", "--seed", "0", *_UNPLOTTABLE),
    ("sweep", "--axis", "Lambda", "--values", "30,31", "--seeds", "0..3", *_UNPLOTTABLE),
])
def test_a_failed_plot_writes_no_artifact(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(*argv, "--out", str(out)) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "cannot scale non-finite data range" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def _no_bare_constants(token):
    raise ValueError(f"bare {token} is not JSON")


@pytest.mark.parametrize("argv, name", [
    (("simulate", "--seed", "0", *_UNPLOTTABLE), "summary.json"),
    (("sweep", "--axis", "Lambda", "--values", "30,31", "--seeds", "0..3", *_UNPLOTTABLE), "sweep.json"),
])
def test_non_finite_stats_are_strict_json(tmp_path, argv, name):
    out = tmp_path / "o"
    assert _run(*argv, "--out", str(out), "--no-plot") == 0
    data = json.loads((out / name).read_text(), parse_constant=_no_bare_constants)
    if name == "summary.json":
        assert float(data["stats"]["peak_log_price"]) == np.inf
    else:
        summary = data["sweep"]["summaries"][0]
        assert float(summary["median"]["peak_log_price"]) == np.inf
        assert np.isnan(float(summary["iqr"]["peak_log_price"]))


# ---------------------------------------------------------------- baseline


def test_baseline_subcommand_emits_all_outputs(tmp_path):
    out = tmp_path / "base"
    assert _run("baseline", "--seed", "0", "--out", str(out)) == 0
    for name in ("trajectory.csv", "summary.json", "trajectory.svg"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["params"] == ModelParams().as_dict()


# ---------------------------------------------------------------- process


def test_io_failure_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert _run("simulate", "--T", "100", "--out", str(blocker / "sub")) == 2


def _files(out: Path) -> dict[str, bytes]:
    """Every file in ``out``, temp files included, by name."""
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _artifacts(out: Path, *argv) -> dict[str, bytes]:
    """The files a clean run of ``argv`` writes to ``out``."""
    assert _run(*argv, "--out", str(out)) == 0
    return _files(out)


class _Faults:
    """Counts the open, write and os.replace calls of bubblesim.io, and makes
    the k-th of them raise OSError."""

    def __init__(self, k: int):
        self.k, self.calls, self.replaced = k, 0, 0
        self.fired: str | None = None

    def tick(self, what: str) -> None:
        self.calls += 1
        if self.calls == self.k:
            self.fired = what
            raise OSError(5, f"injected failure of {what}")

    def install(self, mp: pytest.MonkeyPatch) -> None:
        faults, real_replace = self, os.replace

        class CountedFile:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._fh.close()

            def write(self, text):
                faults.tick("write")
                return self._fh.write(text)

        def counted_open(*args, **kwargs):
            faults.tick("open")
            return CountedFile(builtins.open(*args, **kwargs))

        def counted_replace(src, dst):
            faults.tick("replace")
            real_replace(src, dst)
            faults.replaced += 1

        mp.setattr(bubblesim.io, "open", counted_open, raising=False)
        mp.setattr(bubblesim.io.os, "replace", counted_replace)


_COMMITS = [
    (("simulate", "--T", "50"), ("--seed", "1"), ("--seed", "2")),
    (("sweep", "--axis", "b", "--values", "0.01,0.02", "--T", "50"), ("--seeds", "0..1"), ("--seeds", "2..3")),
]


@pytest.mark.parametrize("argv, first, second", _COMMITS, ids=["simulate", "sweep"])
def test_a_failed_commit_leaves_no_file_of_the_failed_run(tmp_path, capsys, argv, first, second):
    new = _artifacts(tmp_path / "new", *argv, *second)
    out = tmp_path / "out"
    old = _artifacts(out, *argv, *first)
    assert old.keys() == new.keys() and all(old[name] != new[name] for name in old)
    capsys.readouterr()
    failed = set()
    for k in itertools.count(1):
        faults = _Faults(k)
        with pytest.MonkeyPatch.context() as mp:
            faults.install(mp)
            code = _run(*argv, *second, "--out", str(out))
        if faults.fired is None:
            break
        failed.add(faults.fired)
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and len(err) == 1 and err[0].startswith("error: failed to write ")
        left = _files(out)
        assert not any(data == new[name] for name, data in left.items())
        assert {name: old[name] for name in left} == left  # no temp file either
        if faults.replaced == 0:
            assert left == old
        if left != old:
            old = _artifacts(out, *argv, *first)  # the next k starts from the whole first set
    assert code == 0 and _files(out) == new
    assert failed == {"open", "write", "replace"}


def test_a_failed_rename_of_the_summary_keeps_only_the_previous_files(tmp_path, monkeypatch, capsys):
    out = tmp_path / "D"
    old = _artifacts(out, "simulate", "--seed", "1", "--T", "200")
    real_replace = os.replace

    def refuse_summary(src, dst):
        if Path(dst).name == "summary.json":
            raise OSError(5, "Input/output error")
        real_replace(src, dst)

    monkeypatch.setattr(bubblesim.io.os, "replace", refuse_summary)
    assert _run("simulate", "--seed", "2", "--T", "200", "--out", str(out)) == 2
    assert f"error: failed to write {out / 'summary.json'}" in capsys.readouterr().err
    assert _files(out) == {name: old[name] for name in ("summary.json", "trajectory.svg")}


@pytest.mark.parametrize("argv, first, second", _COMMITS, ids=["simulate", "sweep"])
def test_a_run_without_a_plot_drops_the_stale_plot(tmp_path, argv, first, second):
    out = tmp_path / "out"
    assert any(name.endswith(".svg") for name in _artifacts(out, *argv, *first))
    assert _artifacts(out, *argv, *second, "--no-plot") == _artifacts(
        tmp_path / "fresh", *argv, *second, "--no-plot"
    )


def test_horizon_too_large_to_allocate_exits_1(tmp_path, capsys):
    # the 2(T-1) float64 draws of T = 10**17 take about 1.4 EiB, more than
    # any 64-bit address space, so numpy refuses the allocation at once
    assert _run("simulate", "--T", str(10**17), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate")
    assert not (tmp_path / "o").exists()


def test_console_script_runs_end_to_end(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "bubblesim", "simulate", "--seed", "2", "--T", "120",
         "--out", str(out), "--no-plot"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == CSV_HEADER

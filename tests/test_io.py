"""CSV/JSON serialization: schema, exact round-trips, stable bytes, atomic writes."""

import builtins
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bubblesim.io
from bubblesim import (
    CSV_HEADER,
    CrashConfig,
    ModelParams,
    SweepSpec,
    Trajectory,
    read_trajectory_csv,
    run_sweep,
    simulate,
    summarize,
    summary_payload,
    sweep_payload,
    write_summary_json,
    write_trajectory_csv,
)
from oracles import read_trajectory_csv_whole, trajectory_csv_text
from synthetic import flat_trajectory

P = ModelParams(T=300)


def test_header_is_the_fixed_schema():
    assert CSV_HEADER == "t,log_price,momentum,lambda,x,trade,direction,n_trades"


def test_traj_column_reads_the_csv_columns_only():
    traj = simulate(ModelParams(T=3), 0)
    assert bubblesim.io.traj_column(traj, "lambda") is traj.lam
    assert bubblesim.io.traj_column(traj, "n_trades") is traj.n_trades
    for name in ("bogus", "lam", "params"):
        with pytest.raises(ValueError, match=f"unknown trajectory column '{name}'"):
            bubblesim.io.traj_column(traj, name)


def test_csv_structure(tmp_path):
    traj = simulate(P, 3)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(traj) + 1
    ts = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert ts == list(range(len(traj)))


def test_csv_round_trip_is_bit_exact(tmp_path):
    traj = simulate(P, 3)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    cols = read_trajectory_csv(path)
    assert np.array_equal(cols["t"], traj.t)
    assert np.array_equal(cols["log_price"], traj.log_price)  # floats, bitwise
    assert np.array_equal(cols["momentum"], traj.momentum)
    assert np.array_equal(cols["lambda"], traj.lam)
    assert np.array_equal(cols["x"], traj.x)
    assert np.array_equal(cols["trade"], traj.trade)
    assert np.array_equal(cols["direction"], traj.direction)
    assert np.array_equal(cols["n_trades"], traj.n_trades)
    assert cols["t"].dtype == np.int64
    assert cols["momentum"].dtype == np.float64


# extremes the writers must carry: signed zero, the smallest subnormal, the
# smallest normal, +-1.7e308, the largest double, and the ends of int64
_EDGE_REALS = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
               1.7976931348623157e308, -1.7976931348623157e308]
_EDGE_INTS = [0, -1, 2**63 - 1, -(2**63)]


def _columns_trajectory(reals: list[list[float]], ints: list[list[int]]) -> Trajectory:
    """A Trajectory holding arbitrary columns: four real, four int64."""
    log_price, momentum, lam, x = (np.array(c, dtype=float) for c in reals)
    t, trade, direction, n_trades = (np.array(c, dtype=np.int64) for c in ints)
    return Trajectory(params=P, seed=0, t=t, log_price=log_price, momentum=momentum,
                      lam=lam, x=x, trade=trade, direction=direction,
                      n_trades=n_trades, n_rng_draws=0)


@st.composite
def _trajectories(draw, reals=st.floats(allow_nan=False, allow_infinity=False)):
    n = draw(st.integers(0, 12))
    real = st.one_of(reals, st.sampled_from(_EDGE_REALS))
    ints = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(_EDGE_INTS))
    return _columns_trajectory(
        [draw(st.lists(real, min_size=n, max_size=n)) for _ in range(4)],
        [draw(st.lists(ints, min_size=n, max_size=n)) for _ in range(4)],
    )


_EDGE_TRAJECTORY = _columns_trajectory([_EDGE_REALS] * 4, [_EDGE_INTS * 2, [0] * 8, [1] * 8, [-1] * 8])


def _ulps(x: float, steps: int) -> list[float]:
    """x and the doubles up to ``steps`` ulps either side of it."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(steps):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


# the edges of the integer '%.17g' kernel: where floor(log10|v|) may be off
# by one, the ends of 1e-11 <= |v| < 1e15, the switch to exponent form below
# 1e-4, exact ties at the 17th digit (odd/2**(17-j) in [10**j, 10**(j+1)),
# 100000 + 1/4096 rounding down to even and + 3/4096 up), the 0.01 lattice
# and a geometric decay like the momentum's
_KERNEL_EDGE_TRAJECTORY = _columns_trajectory(
    [
        _ulps(1e15, 1) + _ulps(1e-11, 1) + _ulps(1e-4, 1) + [1e-7, -1e-6],  # log10 gives -7, -6
        [100000.000244140625, 100000.000732421875, -5e-05, 0.5 / 2**17, 0.0, 0.00012345,
         9.999999999999999e14, 1e-05, 123456789012345.67, 3e-05, -7.5e-08],
        [0.07, -0.29, 0.57, 1.1, 10.01, -0.01, 0.1, 0.3, 2.675, 0.0, -0.0],
        [0.999**k for k in (1, 10, 100, 1000, 10_000, 25_000)] + [0.5**40, -(0.5**37), 0.9**240, 1.0, -1.0],
    ],
    [list(range(11)), [0] * 11, [1, -1] * 5 + [0], [10**k for k in range(11)]],
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(traj=_trajectories(reals=st.floats()))
@example(traj=_EDGE_TRAJECTORY)
@example(traj=_KERNEL_EDGE_TRAJECTORY)
def test_csv_text_equals_the_per_cell_oracle(tmp_path_factory, traj):
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    write_trajectory_csv(traj, path)
    assert path.read_text(encoding="utf-8") == trajectory_csv_text(traj)


@pytest.mark.parametrize("error", [-1.0, 1.0])
def test_csv_kernel_falls_back_when_log10_is_off_by_one(tmp_path, monkeypatch, error):
    # the decade check must catch a floor(log10|v|) one too small or too large
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
    path = tmp_path / "traj.csv"
    for traj in (_KERNEL_EDGE_TRAJECTORY, simulate(P, 3)):
        write_trajectory_csv(traj, path)
        assert path.read_text(encoding="utf-8") == trajectory_csv_text(traj)


def _kernel_test_doubles() -> np.ndarray:
    """120k deterministic doubles that stress the '%.17g' kernel."""
    rng = np.random.default_rng(1990)
    n = 20_000
    random_bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    in_range = 10.0 ** rng.uniform(-11, 15, n) * rng.choice([-1.0, 1.0], n)
    near_powers = [y for j in range(-13, 18) for x in (10.0**j, -(10.0**j)) for y in _ulps(x, 3)]
    ties = []  # exact halves at the 17th digit: odd m / 2**(17 - j) in [10**j, 10**(j + 1))
    for j in range(-8, 15):
        scale = 2.0 ** (17 - j)
        lo, hi = max(1, int(10.0**j * scale)), int(10.0 ** (j + 1) * scale)
        ties.append((rng.integers(lo, hi, 2 * n // 23) | 1) / scale)
    lattice = np.arange(-n // 2, n // 2) * 0.01
    decay = np.concatenate([np.cumprod(np.full(n // 2, 0.999)), -np.cumprod(np.full(n // 2, 0.995))])
    return np.concatenate([random_bits, in_range, near_powers, *ties, lattice, decay])


def test_csv_kernel_equals_the_oracle_on_120k_edge_doubles(tmp_path):
    reals = _kernel_test_doubles()
    rows = -(-len(reals) // 4)  # several _BLOCK_ROWS blocks
    reals = np.resize(reals, 4 * rows).reshape(4, rows)
    ints = np.random.default_rng(8).integers(-(2**63), 2**63 - 1, (4, rows), endpoint=True)
    traj = _columns_trajectory(list(reals), list(ints))
    path = tmp_path / "edges.csv"
    write_trajectory_csv(traj, path)
    got, want = path.read_text(encoding="utf-8").split("\n"), trajectory_csv_text(traj).split("\n")
    wrong = [(g, w) for g, w in zip(got, want) if g != w]  # a short report, not a 3 MB diff
    assert not wrong and len(got) == len(want), (len(wrong), wrong[:3])
    # the integer kernel, not the Python fallback, wrote every covered cell
    # but those a few ulps from a power of ten
    a = np.abs(reals.ravel())
    covered = (a >= 1e-11) & (a < 1e15)
    _, fallback = bubblesim.io._g17_cells(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        near_power = np.abs(a / 10.0 ** np.round(np.log10(a)) - 1) < 1e-15
    assert covered.sum() > 90_000
    assert not (fallback & covered & ~near_power).any()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(traj=_trajectories())
@example(traj=_EDGE_TRAJECTORY)
def test_csv_round_trips_bitwise_for_any_finite_doubles(tmp_path_factory, traj):
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    write_trajectory_csv(traj, path)
    cols = read_trajectory_csv(path)
    for name in CSV_HEADER.split(","):
        want = bubblesim.io.traj_column(traj, name)
        assert cols[name].dtype == want.dtype
        assert cols[name].tobytes() == want.tobytes(), name  # bitwise, so -0.0 != 0.0


def test_reals_carry_seventeen_significant_digits(tmp_path):
    path = tmp_path / "flat.csv"
    write_trajectory_csv(simulate(ModelParams(T=2), 0), path)
    text = path.read_text()
    # x after the first dynamic step is exactly the 0.004 cubic increment
    assert "0.0040000000000000001" in text


def test_repeated_writes_are_byte_identical(tmp_path):
    traj = simulate(P, 9)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(traj, a)
    write_trajectory_csv(traj, b)
    assert a.read_bytes() == b.read_bytes()


def test_read_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_trajectory_csv(bad)
    short = tmp_path / "short.csv"
    short.write_text(CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(ValueError, match="fields"):
        read_trajectory_csv(short)
    with pytest.raises(OSError, match="missing.csv"):
        read_trajectory_csv(tmp_path / "missing.csv")


def test_read_reports_bad_cells_and_reads_a_header_only_file(tmp_path):
    path = tmp_path / "cells.csv"
    path.write_text(CSV_HEADER + "\n0,0,0,-2,0,0,0,0\n1.5,0,0,-2,0,0,0,0\n")
    with pytest.raises(ValueError, match=r"^invalid literal for int\(\) with base 10: '1.5'$"):
        read_trajectory_csv(path)
    path.write_text(CSV_HEADER + "\n0,0,abc,-2,0,x,0,0\n")  # columns fail left to right
    with pytest.raises(ValueError, match=r"^could not convert string to float: 'abc'$"):
        read_trajectory_csv(path)
    path.write_text(CSV_HEADER + "\n")
    cols = read_trajectory_csv(path)
    assert list(cols) == CSV_HEADER.split(",")
    assert all(len(col) == 0 for col in cols.values())
    assert cols["t"].dtype == np.int64 and cols["x"].dtype == np.float64


def _one_cell_csv(path, column, cell):
    """A one-row trajectory CSV whose ``column`` cell reads ``cell``."""
    row = dict(zip(CSV_HEADER.split(","), "0 0 0 -2 0 0 0 0".split()))
    row[column] = cell
    path.write_text(CSV_HEADER + "\n" + ",".join(row.values()) + "\n", encoding="utf-8")


# cells parse as Python's int() and float() parse them
@pytest.mark.parametrize("column, cell, value", [
    ("t", " 5", 5),
    ("t", "+5", 5),
    ("t", "5_000", 5000),
    ("t", "-0", 0),
    ("t", "\u0665", 5),  # ARABIC-INDIC DIGIT FIVE
    ("n_trades", str(2**63 - 1), 2**63 - 1),
    ("n_trades", str(-(2**63)), -(2**63)),
    ("x", "1_0.5", 10.5),
    ("momentum", "nan", np.nan),
    ("x", "-inf", -np.inf),
    ("x", "infinity", np.inf),
    ("x", "1e400", np.inf),
    ("x", "5e-324", 5e-324),
    ("x", "4.9e-324", 5e-324),
    ("x", "2.2250738585072009e-308", 2.2250738585072009e-308),  # largest subnormal
])
def test_read_parses_cells_as_python_does(tmp_path, column, cell, value):
    path = tmp_path / "cell.csv"
    _one_cell_csv(path, column, cell)
    got = read_trajectory_csv(path)[column]
    assert got.dtype == (np.int64 if column in ("t", "n_trades") else np.float64)
    assert np.array_equal(got, [value], equal_nan=got.dtype.kind == "f")


@pytest.mark.parametrize("column, cell, error, text", [
    ("t", str(2**63), OverflowError, "Python int too large to convert to C long"),
    ("t", "1" * 20, OverflowError, "Python int too large to convert to C long"),
    ("t", "x", ValueError, "invalid literal for int() with base 10: 'x'"),
    ("t", "", ValueError, "invalid literal for int() with base 10: ''"),
    ("t", "1.0", ValueError, "invalid literal for int() with base 10: '1.0'"),
    ("t", "1e3", ValueError, "invalid literal for int() with base 10: '1e3'"),
    ("t", "0x10", ValueError, "invalid literal for int() with base 10: '0x10'"),
    ("x", "0x1p3", ValueError, "could not convert string to float: '0x1p3'"),
    ("x", "", ValueError, "could not convert string to float: ''"),
])
def test_read_rejects_cells_as_python_does(tmp_path, column, cell, error, text):
    path = tmp_path / "cell.csv"
    _one_cell_csv(path, column, cell)
    with pytest.raises(error) as info:
        read_trajectory_csv(path)
    assert str(info.value) == text


def _read_outcome(read, path):
    """What reading ``path`` gives: the columns as (name, dtype, bytes), or
    the error's type and text."""
    try:
        cols = read(path)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return [(name, col.dtype, col.tobytes()) for name, col in cols.items()]


_GOOD_ROW = b"7,0.5,-0.25,-2,1e-05,1,-1,3"
# lines of every kind the reader tells apart, bad cells in several columns
_CSV_LINES = st.sampled_from([
    _GOOD_ROW, _GOOD_ROW, _GOOD_ROW, b"", b"1,2,3", _GOOD_ROW + b",9",
    b"1.5,0,0,-2,0,0,0,0", b"0,abc,0,-2,0,0,0,0", b"0,0,0,-2,nan,x,0,0",
    b"0,0,0,-2,0,0,0," + str(2**63).encode(), b"0,0,\xff,-2,0,0,0,0", CSV_HEADER.encode(),
])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    header=st.sampled_from([CSV_HEADER.encode(), b"", b"a,b,c"]),
    lines=st.lists(_CSV_LINES, max_size=14),
    ends=st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=15, max_size=15),
    block_rows=st.sampled_from([1, 2, 3, 8192]),
)
def test_block_reader_equals_the_whole_file_oracle(tmp_path_factory, header, lines, ends, block_rows):
    # same arrays or the same error, whichever block each defect falls in
    path = tmp_path_factory.mktemp("csv") / "read.csv"
    path.write_bytes(b"".join(ln + end for ln, end in zip([header, *lines], ends)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bubblesim.io, "_BLOCK_ROWS", block_rows)
        got = _read_outcome(read_trajectory_csv, path)
    assert got == _read_outcome(read_trajectory_csv_whole, path)


def test_block_reader_numbers_rows_and_places_bad_bytes_in_the_whole_file(tmp_path):
    # three blocks of the real size, blank lines not counted as rows
    rows = [_GOOD_ROW] * (2 * 8192 + 4) + [b""] * 5
    path = tmp_path / "long.csv"
    path.write_bytes(b"\n".join([CSV_HEADER.encode(), *rows, b"1,2,3", _GOOD_ROW]) + b"\n")
    with pytest.raises(ValueError, match=r"^row 16389 of .* has 3 fields, expected 8$"):
        read_trajectory_csv(path)
    # a bad byte outranks a bad header before it, and is placed by its
    # offset in the file, not in the block that held it
    for header in (CSV_HEADER.encode(), b"a,b,c"):
        path.write_bytes(b"\n".join([header, *rows, b"0,\xff"]) + b"\n")
        with pytest.raises(UnicodeDecodeError) as info:
            read_trajectory_csv(path)
        assert f"in position {path.stat().st_size - 2}:" in str(info.value)


def test_write_error_carries_the_path(tmp_path):
    target = tmp_path / "not-a-dir" / "x.csv"
    with pytest.raises(OSError, match="x.csv"):
        write_trajectory_csv(simulate(ModelParams(T=2), 0), target)


class _HalfWrittenFile:
    """File stand-in that writes half of its text, then fails like a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(28, "No space left on device")


def _fail_mid_write(monkeypatch):
    monkeypatch.setattr(bubblesim.io, "open",
                        lambda *a, **kw: _HalfWrittenFile(builtins.open(*a, **kw)), raising=False)


def _fail_on_replace(monkeypatch):
    def refuse(src, dst):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(bubblesim.io.os, "replace", refuse)


@pytest.mark.parametrize("inject", [_fail_mid_write, _fail_on_replace])
def test_failed_write_leaves_the_existing_file_and_no_temp_file(tmp_path, monkeypatch, inject):
    target = tmp_path / "trajectory.csv"
    target.write_text("previous artifact\n")
    inject(monkeypatch)
    with pytest.raises(OSError, match=f"failed to write {target}"):
        write_trajectory_csv(simulate(P, 1), target)
    assert target.read_text() == "previous artifact\n"
    assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]


def test_successful_write_replaces_the_file_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "summary.json"
    target.write_text("previous artifact\n")
    write_summary_json({"a": 1}, target)
    assert target.read_text() == '{\n  "a": 1\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


# ---------------------------------------------------------------- JSON


def test_summary_payload_schema(tmp_path):
    traj = simulate(P, 5)
    stats = summarize(traj)
    payload = summary_payload(stats, P, 5)
    assert sorted(payload) == ["config", "seed", "stats", "version"]
    assert payload["seed"] == 5
    assert payload["config"]["params"] == P.as_dict()
    assert payload["config"]["detector"]["threshold"] == P.b
    assert payload["stats"]["total_trades"] == stats.total_trades
    path = tmp_path / "summary.json"
    write_summary_json(payload, path)
    text = path.read_text()
    assert json.loads(text)["version"] == payload["version"]
    # stable key ordering: serialization sorts keys
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_flat_summary_reports_zero_crashes(tmp_path):
    flat = flat_trajectory()
    cfg = CrashConfig(threshold=0.02, peak_window=500, min_drawdown=0.05)
    payload = summary_payload(summarize(flat, cfg), flat.params, 0, cfg)
    path = tmp_path / "flat.json"
    write_summary_json(payload, path)
    assert json.loads(path.read_text())["stats"]["n_crashes"] == 0


def test_sweep_payload_schema_and_single_cell_grid():
    spec = SweepSpec(base=P, axis="b", values=(P.b,), seeds=(2,))
    result = run_sweep(spec)
    payload = sweep_payload(result)
    assert sorted(payload) == ["config", "seed", "sweep", "version"]
    assert payload["seed"] == [2]
    assert payload["config"]["axis"] == "b"
    assert payload["config"]["detector"] is None  # derived per cell
    assert len(payload["sweep"]["cells"]) == 1
    assert len(payload["sweep"]["summaries"]) == 1
    cell = payload["sweep"]["cells"][0]
    assert cell["error"] is None
    assert cell["stats"]["n_crashes"] == result.cells[0].stats.n_crashes


def test_json_numbers_survive_a_round_trip(tmp_path):
    traj = simulate(P, 8)
    payload = summary_payload(summarize(traj), P, 8)
    path = tmp_path / "s.json"
    write_summary_json(payload, path)
    back = json.loads(path.read_text())
    assert back["stats"]["peak_log_price"] == payload["stats"]["peak_log_price"]
    assert back["config"]["params"]["r"] == P.r

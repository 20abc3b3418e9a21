"""CSV/JSON serialization: schema, exact round-trips, stable bytes, atomic writes."""

import builtins
import json
import threading
import tracemalloc
from fractions import Fraction

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
from faults import Faults
from oracles import read_trajectory_csv_whole, sweep_payload_by_field, trajectory_csv_text
from synthetic import flat_trajectory

# A file left open on a commit path fails its test: the unclosed file's
# finalizer warns, and pytest reports that as an unraisable exception.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

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
    for name in CSV_HEADER.split(","):
        want = bubblesim.io.traj_column(traj, name)
        assert cols[name].dtype == want.dtype
        assert cols[name].tobytes() == want.tobytes(), name  # floats, bitwise
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


# cells '%.17g' leaves to Python (nan, inf, the smallest subnormal, 1e15
# and up, below 1e-11) and values a few ulps from a power of ten, in two or
# more of the stacked real columns of one row, on rows 2 and 3, 5 and 6
_NEAR_TEN = float(np.nextafter(1e-7, 0.0))
_SPLICED_TRAJECTORY = _columns_trajectory(
    [
        [0.5, -1.25, float("nan"), 3.0, 0.125, 1e300, 2.5, -0.0, 7.0],
        [1e-3, 2e-5, 0.25, 5e-324, -4.0, _NEAR_TEN, 1e-12, 0.5, -1e15],
        [-2.0, 1.5, float("inf"), -float("inf"), 9.75, 0.1, _NEAR_TEN, 1e16, 3.5],
        [0.0, 1e-7, 1e15, 1e-320, 6.5, -1e-11, 1e-12, 2.0, float("nan")],
    ],
    [list(range(9)), [0, 1] * 4 + [1], [-1, 0, 1] * 3, [0, 5, 2**63 - 1, -(2**63), 7, 8, 9, -10, 11]],
)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 4, 8, 9])
def test_spliced_cells_land_in_place_across_small_blocks(tmp_path, monkeypatch, block_rows):
    # one kernel call formats all the real (or int) columns of a block
    # stacked; the kernel writes each Python text into its own element's
    # column, whichever side of a block boundary it falls on
    monkeypatch.setattr(bubblesim.io, "_BLOCK_ROWS", block_rows)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(_SPLICED_TRAJECTORY, path)
    assert path.read_text(encoding="utf-8") == trajectory_csv_text(_SPLICED_TRAJECTORY)


def test_csv_write_memory_does_not_grow_with_t(tmp_path):
    # the writer holds one block of _BLOCK_ROWS rows at a time: its
    # tracemalloc peak measured about 390 KB at both T (the whole-column
    # writer it replaced peaked at 1.7 MB and 3.5 MB)
    peaks = []
    for T in (5000, 20000):
        traj = simulate(ModelParams(T=T), 1)
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, tmp_path / "traj.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 800_000, peaks


def test_csv_kernel_equals_the_oracle_on_120k_edge_doubles(tmp_path, monkeypatch):
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
    masks, python_cells = [], bubblesim.io._python_cells

    def spy(cells, v, fallback, fmt):  # records the elements left to Python
        masks.append((fmt, fallback.copy()))
        return python_cells(cells, v, fallback, fmt)

    monkeypatch.setattr(bubblesim.io, "_python_cells", spy)
    bubblesim.io._g17_cells(a)
    [(fmt, fallback)] = masks
    assert fmt == b"%.17g"
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


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_reader_sizes_its_columns_for_every_kind_of_line_break(tmp_path, end):
    # the columns are allocated from a count of the file's line breaks; a
    # file that ends its lines with \r alone has no \n to count, and one
    # that ends them with \r\n has one break per line, not two
    path = tmp_path / "ends.csv"
    path.write_bytes(end.join([CSV_HEADER.encode(), *[_GOOD_ROW] * 20, b""]))
    got = _read_outcome(read_trajectory_csv, path)
    assert got == _read_outcome(read_trajectory_csv_whole, path)
    assert len(got[0][2]) == 20 * 8
    assert read_trajectory_csv(path)["t"].base.size <= 20 + 2


def test_block_reader_numbers_rows_and_places_bad_bytes_in_the_whole_file(tmp_path):
    # three blocks of the real size, blank lines not counted as rows
    block_rows = bubblesim.io._BLOCK_ROWS
    rows = [_GOOD_ROW] * (2 * block_rows + 4) + [b""] * 5
    path = tmp_path / "long.csv"
    path.write_bytes(b"\n".join([CSV_HEADER.encode(), *rows, b"1,2,3", _GOOD_ROW]) + b"\n")
    with pytest.raises(ValueError, match=rf"^row {2 * block_rows + 5} of .* has 3 fields, expected 8$"):
        read_trajectory_csv(path)
    # a bad byte outranks a bad header before it, and is placed by its
    # offset in the file, not in the block that held it
    for header in (CSV_HEADER.encode(), b"a,b,c"):
        path.write_bytes(b"\n".join([header, *rows, b"0,\xff"]) + b"\n")
        with pytest.raises(UnicodeDecodeError) as info:
            read_trajectory_csv(path)
        assert f"in position {path.stat().st_size - 2}:" in str(info.value)


def test_read_memory_does_not_grow_with_t(tmp_path):
    # the reader holds one block of _BLOCK_ROWS lines at a time besides the
    # columns it returns: its tracemalloc peak above them measured about
    # 1.4 MB at both T (with 8192-line blocks, 4.0 MB and 11 MB)
    above = []
    for T in (5000, 20000):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(simulate(ModelParams(T=T), 1), path)
        tracemalloc.start()
        try:
            cols = read_trajectory_csv(path)
            above.append(tracemalloc.get_traced_memory()[1] - sum(col.nbytes for col in cols.values()))
        finally:
            tracemalloc.stop()
    assert max(above) < 2_500_000, above


def test_write_error_carries_the_path(tmp_path):
    target = tmp_path / "not-a-dir" / "x.csv"
    with pytest.raises(OSError, match="x.csv"):
        write_trajectory_csv(simulate(ModelParams(T=2), 0), target)


# What a failed open, write or rename leaves behind is checked for every k,
# every writer and every CLI command by the fault table in test_cli.py; the
# two faults below are the one-file cases of its write_trajectory_csv entry.


def _fail_mid_write(probe: Faults) -> tuple[int, str]:
    """The call after the open and the header piece: a write, over a
    half-written file."""
    return 3, "write"


def _fail_on_replace(probe: Faults) -> tuple[int, str]:
    """The one rename, the last call of the commit."""
    return probe.calls, "replace"


@pytest.mark.parametrize("inject", [_fail_mid_write, _fail_on_replace])
def test_failed_write_leaves_the_existing_file_and_no_temp_file(tmp_path, inject):
    traj = simulate(P, 1)
    probe = Faults(0)
    with pytest.MonkeyPatch.context() as mp:
        probe.install(mp)
        write_trajectory_csv(traj, tmp_path / "probe.csv")
    out = tmp_path / "out"
    out.mkdir()
    target = out / "trajectory.csv"
    target.write_text("previous artifact\n")
    k, what = inject(probe)
    faults = Faults(k)
    with pytest.MonkeyPatch.context() as mp:
        faults.install(mp)
        with pytest.raises(OSError, match=f"failed to write {target}"):
            write_trajectory_csv(traj, target)
    assert faults.fired == what
    assert target.read_text() == "previous artifact\n"
    assert [p.name for p in out.iterdir()] == ["trajectory.csv"]


def test_successful_write_replaces_the_file_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "summary.json"
    target.write_text("previous artifact\n")
    write_summary_json({"a": 1}, target)
    assert target.read_text() == '{\n  "a": 1\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


def test_a_255_byte_name_is_written_and_leaves_no_temp_file(tmp_path):
    # the temp file's name does not grow with its target's, so a target of
    # the longest legal name commits too
    traj = simulate(P, 1)
    target = tmp_path / ("x" * 251 + ".csv")
    write_trajectory_csv(traj, target)
    assert target.read_text() == trajectory_csv_text(traj)
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_two_writers_of_one_path_each_commit_whole_and_the_last_wins(tmp_path, monkeypatch):
    # writer A is held between opening its temp file and writing it, until
    # writer B's whole commit of the same path has returned
    target = tmp_path / "summary.json"
    texts = {"A": b"a" * 5000 + b"\n", "B": b"b" * 3000 + b"\n"}
    a_opened, b_done = threading.Event(), threading.Event()
    errors = []

    def held_open(*args, **kwargs):
        fh = builtins.open(*args, **kwargs)
        if threading.current_thread().name == "A":
            a_opened.set()
            b_done.wait(timeout=10)
        return fh

    def commit(name):
        try:
            bubblesim.io._write_files({target: texts[name]})
        except OSError as exc:
            errors.append(exc)

    monkeypatch.setattr(bubblesim.io, "open", held_open, raising=False)
    a = threading.Thread(target=commit, args=("A",), name="A")
    a.start()
    try:
        assert a_opened.wait(timeout=10)
        commit("B")
    finally:
        b_done.set()
        a.join(timeout=10)
    assert not a.is_alive()
    assert errors == []
    assert target.read_bytes() == texts["A"]
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


def test_a_str_text_raises_type_error_and_leaves_no_file(tmp_path):
    # a text reaches the commit as bytes; a str is refused, not encoded
    target = tmp_path / "summary.json"
    with pytest.raises(TypeError):
        bubblesim.io._write_files({target: "text"})
    assert list(tmp_path.iterdir()) == []


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


def test_summary_payload_checks_the_seed_and_writes_it_as_an_int():
    stats = summarize(simulate(P, 7))
    for seed in (7, 7.0, np.int64(7), np.uint64(7), np.float64(7.0)):
        written = summary_payload(stats, P, seed)["seed"]
        assert written == 7 and type(written) is int
    for seed in (1.9, True, np.True_, -1, 2**64, "7"):
        with pytest.raises(ValueError, match="seed must be"):
            summary_payload(stats, P, seed)


@pytest.mark.parametrize("setting", [
    {"threshold": np.float32(0.02)},
    {"min_drawdown": np.int64(1)},
    {"threshold": Fraction(1, 50)},
], ids=["float32-threshold", "int64-min_drawdown", "Fraction-threshold"])
def test_a_detector_of_any_real_type_serializes_through_both_payloads(tmp_path, setting):
    cfg = CrashConfig.for_params(P, **setting)
    stats = summarize(simulate(P, 3), cfg)
    write_summary_json(summary_payload(stats, P, 3, cfg), tmp_path / "summary.json")
    result = run_sweep(SweepSpec(base=P, axis="b", values=(P.b,), seeds=(3,)), cfg)
    write_summary_json(sweep_payload(result, cfg), tmp_path / "sweep.json")
    want = {"threshold": P.b, "peak_window": 500, "min_drawdown": 5 * P.d}
    want.update({k: float(v) for k, v in setting.items()})
    for name in ("summary.json", "sweep.json"):
        assert json.loads((tmp_path / name).read_text())["config"]["detector"] == want


@pytest.mark.parametrize("spec, cfg, shows", [
    (SweepSpec(base=P, axis="b", values=(0.5, 1.5), seeds=(0, 1)), None, b'"error": "ValueError: '),
    (SweepSpec(base=P, axis="r", values=(0.001, 0.005), seeds=(3, 4)),
     CrashConfig(threshold=0.05, peak_window=100, min_drawdown=0.02), b'"peak_window": 100'),
    (SweepSpec(base=ModelParams(log_p0=1.79e308, d=1e307, T=2), axis="Lambda", values=(30, 31),
               seeds=(0, 1, 2, 3)), None, b'"NaN"'),
], ids=["failed-cells", "fixed-detector", "non-finite"])
def test_sweep_payload_equals_the_field_by_field_oracle(spec, cfg, shows):
    result = run_sweep(spec, cfg)
    text = bubblesim.io._json_text(sweep_payload(result, cfg))
    assert shows in text
    assert text == bubblesim.io._json_text(sweep_payload_by_field(result, cfg))

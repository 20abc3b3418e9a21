"""Trajectory CSV, summary JSON and SVG polyline points serialization.

CSV carries the per-period trajectory columns (streamable, diffable), JSON
scalar summaries and nested sweep grids, _points svgplot's polyline points.
All are written with explicit "\\n" newlines and UTF-8 so that a fixed
(config, seed) pair yields byte-identical files on every platform.

Reals are serialized with 17 significant digits, which round-trips every
IEEE-754 double exactly: reading a file back reproduces the in-memory values
bit for bit.  Every JSON summary embeds the complete effective configuration
(parameters plus detector), the seed or seed list, and the artifact version,
so any output file is sufficient to re-run its simulation identically.
JSON has no non-finite numbers; inf, -inf and nan are written as the strings
"Infinity", "-Infinity" and "NaN".

The CSV rows (Python's '%.17g' and '%d') and the SVG polyline points
('%.2f') are both written _BLOCK_ROWS rows at a time by _cells and
_rows_text: per block, one numpy cell kernel call (_int_cells, _g17_cells
or _f2_cells) formats all the columns that use that kernel, stacked, and
_rows_text lays a table's columns out as bytes.  A real's 17 digits come
from exact integer arithmetic on its significand.  The few cells a kernel's
arithmetic does not cover (for '%.17g', |v| outside [1e-11, 1e15) but
zeros, and values next to a power of ten whose log10 misleads it; for
'%.2f', near-ties, large and non-finite values) get Python's text, which
the kernel writes into the element's own column, so every cell it returns
is finished.  The reader parses _BLOCK_ROWS lines at a time too.  Every
text reaches _write_files as bytes, which it writes in binary mode.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import threading
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import asdict
from os import PathLike
from pathlib import Path

import numpy as np

from .analysis import CrashConfig, SummaryStats
from .model import Trajectory
from .params import ModelParams, as_seed
from .sweep import SweepResult

ARTIFACT_VERSION = "0.1.0"

CSV_HEADER = "t,log_price,momentum,lambda,x,trade,direction,n_trades"
_COLUMNS = tuple(CSV_HEADER.split(","))

_INT_COLUMNS = frozenset({"t", "trade", "direction", "n_trades"})


def write_trajectory_csv(traj: Trajectory, path: str | PathLike[str]) -> None:
    """Write one row per period, t ascending, under the fixed header.

    Each cell reads as ``'%.17g' % v`` for reals and ``'%d' % v`` for
    integers.  Rows are formatted and written _BLOCK_ROWS (1024) at a time,
    so the memory a write takes does not grow with T (its tracemalloc peak
    is about 390 KB), and no buffer of a block reaches glibc's 128 KB mmap
    threshold: a write reuses heap pages instead of faulting in fresh ones.
    1024 is the largest power of two that keeps it so; smaller blocks cost
    more numpy calls per row.
    """
    _write_files({path: _csv_text(traj)})


def _csv_text(traj: Trajectory) -> Iterator[bytes]:
    """The CSV bytes write_trajectory_csv writes, as the header and then one
    piece per _BLOCK_ROWS rows, each formatted only when it is reached."""
    columns = [traj_column(traj, name) for name in _COLUMNS]
    ints = [i for i, name in enumerate(_COLUMNS) if name in _INT_COLUMNS]
    reals = [i for i in range(len(_COLUMNS)) if i not in ints]
    seps = b"," * (len(_COLUMNS) - 1) + b"\n"
    yield (CSV_HEADER + "\n").encode()
    for rows in _row_blocks(len(traj)):
        cells = {}
        for kernel, at in ((_int_cells, ints), (_g17_cells, reals)):
            cells.update(zip(at, _cells([columns[i][rows] for i in at], kernel)))
        yield _rows_text([cells.pop(i) for i in range(len(columns))], seps)


def _points(xs: np.ndarray, ys: list[np.ndarray], sx: Callable, sys: list[Callable]) -> list[list[bytes]]:
    """The SVG polyline points "x,y x,y ..." of each y series against the
    shared xs, mapped to pixels by sx and by its own of sys, each coordinate
    as '%.2f' would write it, as one piece per _BLOCK_ROWS points.

    Each block is scaled as float64 columns, the same IEEE operations per
    element as scaling each point on its own.  One '%.2f' kernel call then
    formats the block's x and every y, and each series is written as the
    two-column table of x and its y.
    """
    points: list[list[bytes]] = [[] for _ in ys]
    for rows in _row_blocks(len(xs)):
        columns = [sx(np.asarray(xs[rows], dtype=float))]
        columns += [sy(np.asarray(y[rows], dtype=float)) for y, sy in zip(ys, sys)]
        x, *cells = _cells(columns, _f2_cells)
        for pieces, y in zip(points, cells):
            pieces.append(_rows_text([x, y], b", "))
    for pieces in points:
        if pieces:
            pieces[-1] = pieces[-1][:-1]  # no space after the last point
    return points


# The block of the writers (CSV rows, SVG points) and of the reader (lines
# parsed per step), chosen by measurement on a 2-core Linux host: at 1024
# rows a block's largest buffer, the '%.17g' cells of the four real
# columns, is 112 KB, below glibc's 128 KB mmap threshold.  A `bubblesim
# simulate` write at T = 5000 then took about 20 minor page faults, against
# 600 to 760 with 8192-row blocks; 768 rows took none but wrote the CSV
# about 10% slower, 1280 rows (143 KB cells) took about 50.  The reader's
# peak above its result is 1.4 MB at any T; 8192 lines took 4 MB to 11 MB.
_BLOCK_ROWS = 1024


def _row_blocks(n: int) -> Iterator[slice]:
    """The slices of _BLOCK_ROWS rows that cover n rows, in order."""
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS))


_ZERO = ord("0")
_MINUS = np.uint8(ord("-"))  # a bool mask times this is a sign slot, as uint8
_ONE, _S32, _S52, _SIXTY_FOUR = np.uint64(1), np.uint64(32), np.uint64(52), np.uint64(64)
_LOW32, _FRAC_HI, _HIDDEN_HI = np.uint64(0xFFFFFFFF), np.uint64(2**20 - 1), np.uint64(2**20)
_TEN, _E9 = np.uint32(10), np.uint64(10**9)
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)

# '%.17g' cells from integer digits cover 1e-11 <= |v| < 1e15: there the
# decimal exponent k lies in [-11, 14], so 10**(16 - k) = 5**P * 2**P with
# 5**P < 2**63.  The tables below are indexed by k + 11.
_K_LO, _K_HI = -11, 14
_KS = range(_K_LO, _K_HI + 1)
_FIVE_LO = np.array([5 ** (16 - k) & 0xFFFFFFFF for k in _KS], dtype=np.uint64)
_FIVE_HI = np.array([5 ** (16 - k) >> 32 for k in _KS], dtype=np.uint64)
# |v| = M * 2**(e - 1075) with e the biased exponent, so |v| * 10**(16 - k)
# = M * 5**(16 - k) / 2**s with s = 1059 + k - e, between 1 and 61 for the
# right k
_SHIFT_BASE = np.array([1059 + k for k in _KS], dtype=np.uint64)
# digits before the '.': k + 1 in fixed form, 1 in exponent form (k < -4),
# none for -4 <= k < 0, which is written "0." plus -k - 1 zeros first
_INT_DIGITS = np.array([k + 1 if k >= 0 else 1 if k < -4 else 0 for k in _KS], np.uint8)
# the slot of the '.' among the digits: after the integer ones; without any,
# slot 17, which is cleared unless a digit moved there
_DOT = np.array([d if d > 0 else 17 for d in _INT_DIGITS], np.uint8)
# the "0.000" prefix of -4 <= k < 0 and the "e-XX" suffix of k < -4, one
# column per k, 0 in unused slots
_PREFIX = np.array([list((b"0.000"[: 1 - k] if -4 <= k < 0 else b"").ljust(5, b"\0")) for k in _KS], np.uint8)
_SUFFIX = np.array([list((b"e-%02d" % -k if k < -4 else b"").ljust(4, b"\0")) for k in _KS], np.uint8)
_PREFIX, _SUFFIX = _PREFIX.T.copy(), _SUFFIX.T.copy()
_SLOTS = np.arange(18, dtype=np.uint8)  # 17 digits and a '.'


def _cells(columns: list[np.ndarray], kernel) -> list[tuple]:
    """Each column's cells from one ``kernel`` call on all of them stacked.

    A kernel returns every cell finished, slot-major: one uint8 row per
    character position, 0 in unused slots.  Each column gets (its cells as
    a view, the slots it uses).
    """
    n, k = len(columns[0]), len(columns)
    cells = kernel(np.concatenate(columns))
    used = np.maximum.reduce(cells.reshape(len(cells), k, n), axis=2).T.tolist()  # each slot's top byte
    return [(cells[:, i * n:(i + 1) * n], [slot for slot, top in enumerate(used[i]) if top]) for i in range(k)]


def _rows_text(columns: list[tuple], seps: bytes) -> bytes:
    """The rows of a table given by its columns' _cells, each cell followed
    by its column's byte of ``seps``.

    The used slots of every column and one separator row per column are
    stacked into one matrix whose transpose, without its zero bytes, reads
    row after row.  Empties ``columns`` once the matrix is built, and drops
    each copy once the next is made, so that cells no caller holds are
    freed before the copies.
    """
    n = columns[0][0].shape[1]
    block = np.empty((sum(len(used) + 1 for _, used in columns), n), np.uint8)
    row = 0
    for (cells, used), sep in zip(columns, seps):
        cells.take(used, axis=0, out=block[row:row + len(used)], mode="clip")
        block[row + len(used)] = sep
        row += len(used) + 1
    columns.clear()
    text = block.T.tobytes()
    del block
    return text.translate(None, b"\0")


def _python_cells(cells: np.ndarray, v: np.ndarray, fallback: np.ndarray, fmt: bytes) -> np.ndarray:
    """``cells`` with the column of each element of ``v`` in ``fallback``
    holding ``fmt % v`` from its first slot on, zero-padded; zero rows are
    added below when a text is longer than the columns are tall."""
    texts = [fmt % x for x in v[fallback].tolist()]
    height = max([len(cells), *map(len, texts)])
    if height > len(cells):
        cells = np.concatenate([cells, np.zeros((height - len(cells), cells.shape[1]), np.uint8)])
    text = np.frombuffer(b"".join(t.ljust(height, b"\0") for t in texts), np.uint8)
    cells[:, fallback] = text.reshape(len(texts), height).T
    return cells


def _digits(u: np.ndarray, width: int) -> np.ndarray:
    """The decimal digits of each unsigned integer below 10**width as ASCII
    bytes, one column per element, most significant first, leading zeros
    included.

    The integers are split into uint32 groups of nine digits, which are
    then worked on together, one digit slot of every group per step.
    """
    n, groups = len(u), -(-width // 9)
    g = np.empty((groups, n), np.uint32)
    for i in range(groups - 1, 0, -1):
        rest = u // _E9
        g[i] = u - rest * _E9
        u = rest
    g[0] = u
    out = np.empty((groups, 9, n), np.uint8)
    for slot in range(8, 8 - min(width, 9), -1):
        rest = g // _TEN
        out[:, slot] = g - rest * _TEN
        g = rest
    out = out.reshape(9 * groups, n)[9 * groups - width:]
    out += _ZERO
    return out


def _int_cells(v: np.ndarray) -> np.ndarray:
    """The '%d' text of each int64 as a column of ASCII bytes."""
    v = np.asarray(v, dtype=np.int64)
    u = np.abs(v).view(np.uint64)  # the magnitude: abs(-2**63) wraps to -2**63, read as 2**63
    return _fixed_cells(u, v < 0)


def _fixed_cells(u: np.ndarray, negative: np.ndarray, decimals: int = 0) -> np.ndarray:
    """A sign slot, '-' where ``negative``, then the digits of each unsigned
    integer in as many slots as the largest needs, with a '.' before the
    last ``decimals`` of them (none for 0) and the leading zeros of the
    whole part cleared but for its units digit; one column per element."""
    width = max(len(str(int(u.max(initial=0)))), decimals + 1)
    whole = width - decimals  # digit slots before the '.'
    digits = _digits(u, width)
    cells = np.empty((width + 1 + (decimals > 0), len(u)), np.uint8)
    cells[0] = negative * _MINUS
    cells[1:whole + 1] = digits[:whole]
    cells[1:whole] *= u >= _POW10[width - 1:decimals:-1, None]  # leading zeros
    if decimals:
        cells[whole + 1] = ord(".")
        cells[whole + 2:] = digits[whole:]
    return cells


def _f2_cells(v: np.ndarray) -> np.ndarray:
    """The '%.2f' text of each float64 as a column of ASCII bytes.

    A column holds the sign taken from the sign bit (so -0.001 gives
    "-0.00") and the digits of n = rint(|v| * 100) with a '.' before the
    last two.  n equals the correctly rounded hundredths unless the product
    sits within its rounding error of a tie: below 2**30 that error is at
    most 2**-24, so elements within 2**-20 of a tie, at or above 2**30, or
    not finite get Python's text.  The others' n fits in a uint32.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.abs(v) * 100.0
        fallback = ~(y < 2.0**30) | (np.abs(y - np.floor(y) - 0.5) <= 2.0**-20)
    np.copyto(y, 0.0, where=fallback)
    cells = _fixed_cells(np.rint(y, out=y).astype(np.uint32), np.signbit(v), 2)
    return _python_cells(cells, v, fallback, b"%.2f")


def _g17_cells(v: np.ndarray) -> np.ndarray:
    """The '%.17g' text of each float64 as a column of ASCII bytes.

    A column holds the sign, the "0.000" prefix of -4 <= k < 0, 17 digit
    slots and a '.', and the "e-XX" suffix of exponent form, 0 in unused
    slots.  The 17 digits are q = round-half-even(|v| * 10**(16 - k)),
    computed exactly: the 53-bit significand times 5**(16 - k) as a 128-bit
    product of 32-bit limbs, shifted right with the remainder deciding the
    rounding.  k = floor(log10|v|) comes from floating point and may be off
    by one near a power of ten; |v| * 10**(16 - k) >= 10**16 and q < 10**17
    both hold only when it is right (and q did not round up to the next
    decade).  Signed zeros are written here too.  Other elements outside
    1e-11 <= |v| < 1e15 (non-finite and subnormal ones among them) and those
    failing the decade check get Python's text, at most 24 bytes, which fits
    the 28 slots.
    """
    n = len(v)
    a = np.abs(np.asarray(v, dtype=np.float64))
    zero = a == 0
    ok = (a >= 1e-11) & (a < 1e15)
    np.copyto(a, 1.0, where=~ok)  # a zero is laid out as 1, then its digit lowered to '0'
    ok |= zero
    k = np.log10(a)
    np.minimum(np.maximum(np.floor(k, out=k), _K_LO, out=k), _K_HI, out=k)
    ki = k.astype(np.intp)
    ki -= _K_LO
    del k  # each array goes once dead: a block's working set stays small
    q, decade = _scaled(a, ki)
    del a
    ok &= decade
    ok &= q < _POW10[17]

    digits = _digits(q, 17)
    del q
    mask = digits != _ZERO
    # the digits left after trailing zeros
    kept = np.maximum.reduce(np.multiply(mask, _SLOTS[1:, None], out=mask.view(np.uint8)), axis=0)
    cells = np.empty((28, n), np.uint8)
    cells[0] = np.signbit(v) * _MINUS
    _PREFIX.take(ki, axis=1, out=cells[1:6], mode="clip")
    _SUFFIX.take(ki, axis=1, out=cells[24:], mode="clip")
    int_digits, dot = _INT_DIGITS[ki], _DOT[ki]
    del ki
    body = cells[6:24]
    body[:17] = digits
    body[17] = 0
    np.copyto(body[1:], digits, where=np.greater(_SLOTS[1:, None], dot, out=mask))
    del digits, mask
    shown = np.maximum(kept, int_digits) + (kept > dot)  # the '.' only before a kept digit
    at = dot.astype(np.intp)
    at *= n
    at += np.arange(n)
    body.reshape(-1)[at] = ord(".")  # body[dot[i], i] for each i
    body *= _SLOTS[:, None] < shown
    cells[6] -= zero
    return _python_cells(cells, v, ~ok, b"%.17g")


def _scaled(a: np.ndarray, ki: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q = round-half-even(a * 10**(16 - k)), exactly, for each float64 a
    and the table index ki = k - _K_LO of its decade k, and a mask of the
    elements whose product is at least 10**16 before rounding.

    The arithmetic works on 32-bit limbs held in uint64 arrays, and each
    array is reused (``out=``) once its value is dead, so that the working
    set stays a few arrays deep.
    """
    bits = a.view(np.uint64)
    s = _SHIFT_BASE[ki]
    s -= bits >> _S52
    m_lo = bits & _LOW32  # the significand's low limb; its high one has the hidden bit
    m_hi = bits >> _S32
    m_hi &= _FRAC_HI
    m_hi |= _HIDDEN_HI
    f_lo, f_hi = _FIVE_LO[ki], _FIVE_HI[ki]
    ll = m_lo * f_lo
    mid = np.multiply(m_lo, f_hi, out=m_lo)
    mid += np.multiply(m_hi, f_lo, out=f_lo)
    mid += np.right_shift(ll, _S32, out=f_lo)  # < 2**63 + 2**53 + 2**32
    hi = np.multiply(m_hi, f_hi, out=f_hi)
    hi += np.right_shift(mid, _S32, out=m_hi)
    lo = np.left_shift(mid, _S32, out=mid)
    lo |= np.bitwise_and(ll, _LOW32, out=ll)
    q = np.left_shift(hi, np.subtract(_SIXTY_FOUR, s, out=m_hi), out=hi)
    q |= np.right_shift(lo, s, out=f_lo)
    decade = q >= _POW10[16]  # before rounding: 1e-7 is 9.99...95e-08 and rounds up to 10**16
    s -= _ONE
    half = np.left_shift(_ONE, s, out=s)
    rem = np.left_shift(half, _ONE, out=m_hi)
    rem -= _ONE
    rem &= lo
    up = rem > half
    up |= (rem == half) & (q & _ONE).astype(bool)
    q += up
    return q, decade


def traj_column(traj: Trajectory, name: str) -> np.ndarray:
    """The trajectory column behind a CSV column name."""
    if name not in _COLUMNS:
        raise ValueError(f"unknown trajectory column {name!r}")
    return getattr(traj, "lam" if name == "lambda" else name)  # lambda is a keyword


def read_trajectory_csv(path: str | PathLike[str]) -> dict[str, np.ndarray]:
    """Read a trajectory CSV back into {column name: array}.

    Integer columns come back as int64, reals as float64; values equal the
    originally written ones exactly.  Blank lines are skipped.  The file is
    opened once, as UTF-8 text, and read twice.  The first pass decodes the
    whole file and counts its lines, each ended by \\n, \\r\\n or \\r as the
    decoder reads them; each column is allocated once for that many rows.
    The second pass parses _BLOCK_ROWS lines at a time, so at most one block
    of the text is held at once, fills the columns block by block, and
    slices them to the rows read.

    A malformed file raises the error a whole-file parse would: a file that
    is not UTF-8 raises that before anything else, then a bad header, then
    the first row with the wrong number of fields, then the first bad cell of
    the leftmost column that has one.  Rows are numbered from 1 after the
    header, blank lines not counted.
    """
    dtypes = [np.int64 if name in _INT_COLUMNS else np.float64 for name in _COLUMNS]
    error: Exception | None = None  # the leftmost bad cell, raised once every row is checked
    parsed = len(_COLUMNS)  # columns left of the leftmost bad cell so far
    n_rows = 0
    try:
        with Path(path).open(encoding="utf-8") as fh:
            try:
                lines = 1 + sum(chunk.count("\n") for chunk in iter(lambda: fh.read(1 << 16), ""))
            except UnicodeDecodeError:
                Path(path).read_text(encoding="utf-8")  # raises it again, placed in the whole file
                raise
            columns = [np.empty(lines, dtype) for dtype in dtypes]
            fh.seek(0)
            header = next(filter(None, (ln.rstrip("\n") for ln in fh)), None)
            if header != CSV_HEADER:
                got = "<empty file>" if header is None else header
                raise ValueError(f"bad trajectory CSV header in {path}: {got!r}")
            while block := list(itertools.islice(fh, _BLOCK_ROWS)):
                rows = [ln.split(",") for ln in "".join(block).split("\n") if ln]
                for i, row in enumerate(rows):
                    if len(row) != len(_COLUMNS):
                        raise ValueError(
                            f"row {n_rows + i + 1} of {path} has {len(row)} fields, "
                            f"expected {len(_COLUMNS)}"
                        )
                start, n_rows = n_rows, n_rows + len(rows)
                for j, col in enumerate(list(zip(*rows))[:parsed]):
                    try:
                        columns[j][start:n_rows] = np.array(col, dtype=dtypes[j])
                    except (ValueError, OverflowError) as exc:
                        error, parsed = exc, j
                        break
    except OSError as exc:
        raise OSError(f"failed to read trajectory CSV {path}: {exc}") from exc
    if error is not None:
        raise error
    return {name: col[:n_rows] for name, col in zip(_COLUMNS, columns)}


def summary_payload(
    stats: SummaryStats,
    params: ModelParams,
    seed: int,
    cfg: CrashConfig | None = None,
) -> dict:
    """JSON payload for a single run: config, seed, stats, version."""
    if cfg is None:
        cfg = CrashConfig.for_params(params)
    return {
        "config": {"params": params.as_dict(), "detector": asdict(cfg)},
        "seed": as_seed(seed),
        "stats": asdict(stats),
        "version": ARTIFACT_VERSION,
    }


def sweep_payload(result: SweepResult, cfg: CrashConfig | None = None) -> dict:
    """JSON payload for a sweep: config, seed list, grid + aggregates, version.

    detector is null when no fixed detector was supplied, meaning each cell
    derived its detector from its own parameters.
    """
    spec = result.spec
    return {
        "config": {
            "params": spec.base.as_dict(),
            "detector": None if cfg is None else asdict(cfg),
            "axis": spec.axis,
            "values": list(spec.values),
        },
        "seed": list(spec.seeds),
        "sweep": {
            "axis": spec.axis,
            "values": list(spec.values),
            "summaries": [asdict(s) for s in result.summaries],
            "cells": [asdict(c) for c in result.cells],
        },
        "version": ARTIFACT_VERSION,
    }


def write_summary_json(payload: dict, path: str | PathLike[str]) -> None:
    """Write a summary payload with sorted keys and a trailing newline.

    JSON has no non-finite numbers, so inf, -inf and nan are written as the
    strings "Infinity", "-Infinity" and "NaN", which float() reads back.
    """
    _write_files({path: _json_text(payload)})


def _json_text(payload: dict) -> bytes:
    """The bytes write_summary_json writes for ``payload``."""
    return (json.dumps(_finite_json(payload), indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def _finite_json(obj):
    """``obj`` with every non-finite float replaced by its string name."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else "Infinity" if obj > 0 else "-Infinity"
    if isinstance(obj, dict):
        return {key: _finite_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(value) for value in obj]
    return obj


def _write_files(
    files: Mapping[str | PathLike[str], bytes | Iterable[bytes] | None],
) -> list[str | PathLike[str]]:
    """Commit a set of files, each given as its bytes or their pieces in
    order, or as None for a file the set drops; returns the paths written.
    A str raises TypeError, with every file left as it was.

    Every text goes to a temp file next to its target first, named
    ".bubblesim.<pid>.<thread id>.<index in the set>.tmp", so that a target
    of any legal name gets a legal temp name, two writers of one file never
    share a temp file, and the last complete one-file commit wins; two
    writers of one multi-file set may interleave and are not supported.
    Once all of them are written, the dropped files are removed, and only
    then do the temp files replace their targets, one rename each in the
    given order.  If anything fails, every temp file is removed, and so is
    every target this call already replaced, before OSError("failed to
    write <path>: ...") names the file that failed.  So a failure while
    writing, or while removing a dropped file, leaves every file the set
    replaces as it was.  A failed rename leaves no file of this call
    behind, only those previous files it had not renamed onto yet; the
    dropped files are already gone.
    """
    texts = {path: text for path, text in files.items() if text is not None}
    dropped = [path for path, text in files.items() if text is None]
    staged, replaced = [], []  # (path, temp file, target) per text; the targets renamed onto
    try:
        for i, (path, text) in enumerate(texts.items()):
            target = Path(path)
            tmp = target.with_name(f".bubblesim.{os.getpid()}.{threading.get_ident()}.{i}.tmp")
            staged.append((path, tmp, target))
            with open(tmp, "wb") as fh:
                for piece in [text] if isinstance(text, bytes) else text:
                    fh.write(piece)
                    del piece  # a streamed piece is freed before the next one is made
        for path in dropped:
            Path(path).unlink(missing_ok=True)
        for path, tmp, target in staged:
            os.replace(tmp, target)
            replaced.append(target)
    except BaseException as exc:
        for p in [tmp for _, tmp, _ in staged] + replaced:
            with contextlib.suppress(OSError):
                p.unlink(missing_ok=True)  # a temp file is already gone once replaced
        if isinstance(exc, OSError):
            raise OSError(f"failed to write {path}: {exc}") from exc
        raise
    return list(texts)

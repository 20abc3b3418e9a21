"""Trajectory CSV and summary JSON serialization.

CSV carries the per-period trajectory columns (streamable, diffable); JSON
carries scalar summaries and nested sweep grids.  Both are written with
explicit "\\n" newlines and UTF-8 so that a fixed (config, seed) pair yields
byte-identical files on every platform.

Reals are serialized with 17 significant digits, which round-trips every
IEEE-754 double exactly: reading a file back reproduces the in-memory values
bit for bit.  Every JSON summary embeds the complete effective configuration
(parameters plus detector), the seed or seed list, and the artifact version,
so any output file is sufficient to re-run its simulation identically.
JSON has no non-finite numbers; inf, -inf and nan are written as the strings
"Infinity", "-Infinity" and "NaN".

The CSV rows (Python's '%.17g' and '%d') and the SVG polyline points
('%.2f') are both written by _rows_text, with one numpy cell kernel per
column: _int_cells, _g17_cells or _f2_cells.  A real's 17 digits come from
exact integer arithmetic on its significand.  The few cells a kernel does
not cover (for '%.17g', |v| outside [1e-11, 1e15) but zeros, and values
next to a power of ten whose log10 misleads it; for '%.2f', near-ties,
large and non-finite values) get Python's text spliced in.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import threading
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import asdict
from os import PathLike
from pathlib import Path

import numpy as np

from .analysis import CrashConfig, SummaryStats
from .model import Trajectory
from .params import ModelParams
from .rng import as_seed
from .sweep import SweepResult

ARTIFACT_VERSION = "0.1.0"

CSV_HEADER = "t,log_price,momentum,lambda,x,trade,direction,n_trades"
_COLUMNS = tuple(CSV_HEADER.split(","))

_INT_COLUMNS = frozenset({"t", "trade", "direction", "n_trades"})


def write_trajectory_csv(traj: Trajectory, path: str | PathLike[str]) -> None:
    """Write one row per period, t ascending, under the fixed header.

    Each cell reads as ``'%.17g' % v`` for reals and ``'%d' % v`` for
    integers.  Rows are formatted and written _BLOCK_ROWS at a time, so the
    memory a write takes does not grow with T.
    """
    _write_files({path: _csv_text(traj)})


def _csv_text(traj: Trajectory) -> Iterator[str]:
    """The CSV text write_trajectory_csv writes, as the header and then one
    piece per _BLOCK_ROWS rows, each formatted only when it is reached."""
    columns = [traj_column(traj, name) for name in _COLUMNS]
    kernels = [_int_cells if name in _INT_COLUMNS else _g17_cells for name in _COLUMNS]
    seps = "," * (len(_COLUMNS) - 1) + "\n"
    blocks = (
        _rows_text([col[start:start + _BLOCK_ROWS] for col in columns], kernels, "%.17g", seps)
        for start in range(0, len(traj), _BLOCK_ROWS)
    )
    return itertools.chain([CSV_HEADER + "\n"], blocks)


_BLOCK_ROWS = 8192

_ZERO = ord("0")
_MINUS = np.uint8(ord("-"))  # a bool mask times this is a sign slot, as uint8
_MARK = 1  # the byte that stands for a cell formatted by Python (see _rows_text)
_ONE, _TEN, _S32 = np.uint64(1), np.uint64(10), np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)
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
# the "0.000" prefix (first 5 bytes) and "e-XX" suffix (bytes 8 to 11) of
# each k, 16 bytes a k so that one gather fetches both
_AFFIXES = np.frombuffer(
    b"".join(
        (b"0.000"[: 1 - k] if -4 <= k < 0 else b"").ljust(8, b"\0")
        + (b"e-%02d" % -k if k < -4 else b"").ljust(8, b"\0")
        for k in _KS
    ),
    dtype="V16",
)
_SLOTS = np.arange(18, dtype=np.uint8)  # 17 digits and a '.'


def _rows_text(columns: list[np.ndarray], kernels: list, fmt: str, seps: str) -> str:
    """The rows of a table given by its columns, each cell as its column's
    kernel writes it and followed by the column's character of ``seps``.

    A kernel returns its cells slot-major, one uint8 row per character
    position with 0 in unused slots, and a mask of the cells it leaves to
    Python; those are cleared and marked with _MARK.  All cells and
    separators are stacked into one matrix whose transpose reads row after
    row, minus the slots no row uses.  The marks, in row-major order, are
    then replaced by ``fmt % v``.
    """
    n = len(columns[0])
    parts, marked = [], []
    for col, kernel, sep in zip(columns, kernels, seps):
        cells, fallback = kernel(col)
        if fallback.any():
            cells[:, fallback] = 0
            cells[0, fallback] = _MARK
            marked.append((col, fallback))
        parts += [cells, np.full((1, n), ord(sep), np.uint8)]
    block = np.concatenate(parts)
    parts.clear()  # frees the cells before the copies below, for a lower peak
    block = block[block.any(axis=1)]
    text = block.T.tobytes().translate(None, b"\0").decode("ascii")
    if not marked:
        return text
    cols, masks = zip(*marked)
    spliced = list(map(fmt.__mod__, np.column_stack(cols)[np.column_stack(masks)].tolist()))
    pieces = text.split(chr(_MARK))
    joined = [""] * (2 * len(pieces) - 1)
    joined[0::2] = pieces
    joined[1::2] = spliced  # raises unless there is one text per mark
    return "".join(joined)


def _digits(u: np.ndarray, width: int) -> np.ndarray:
    """The last ``width`` decimal digits of each uint64 as ASCII bytes, one
    column per element, most significant first, leading zeros included."""
    out = np.empty((width, len(u)), np.uint8)
    for slot in range(width - 1, -1, -1):
        rest = u // _TEN
        out[slot] = u - rest * _TEN
        u = rest
    out += _ZERO
    return out


def _int_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The '%d' text of each int64 as a column of ASCII bytes (a sign slot
    and as many digit slots as the largest magnitude needs, 0 in unused
    slots), and an empty mask: no element is left to Python."""
    v = np.asarray(v, dtype=np.int64)
    u = np.abs(v).view(np.uint64)  # the magnitude: abs(-2**63) wraps to -2**63, read as 2**63
    width = len(str(int(u.max(initial=0))))
    cells = np.empty((width + 1, len(v)), np.uint8)
    cells[0] = (v < 0) * _MINUS
    cells[1:] = _digits(u, width)
    cells[1:-1] *= u >= _POW10[width - 1:0:-1, None]  # leading zeros; the units digit stays
    return cells, np.zeros(len(v), bool)


def _f2_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The '%.2f' text of each float64 as a column of ASCII bytes, and a mask
    of the elements left to Python.

    A column holds the '%d' cells of the whole part with the sign taken from
    the sign bit (so -0.001 gives "-0.00"), '.', and two decimals.
    n = rint(|v| * 100) equals the correctly rounded hundredths unless the
    product sits within its rounding error of a tie: below 2**30 that error
    is at most 2**-24, so elements within 2**-20 of a tie, at or above
    2**30, or not finite are masked.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.abs(v) * 100.0
        fallback = ~(y < 2.0**30) | (np.abs(y - np.floor(y) - 0.5) <= 2.0**-20)
    whole, cents = np.divmod(np.rint(np.where(fallback, 0.0, y)).astype(np.uint64), np.uint64(100))
    point = np.full((1, len(v)), ord("."), np.uint8)
    cells = np.concatenate([_int_cells(whole)[0], point, _digits(cents, 2)])
    cells[0] = np.signbit(v) * _MINUS
    return cells, fallback


def _g17_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The '%.17g' text of each float64 as a column of ASCII bytes, and a
    mask of the elements left to Python.

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
    failing the decade check are masked.
    """
    n = len(v)
    a = np.abs(np.asarray(v, dtype=np.float64))
    zero = a == 0
    ok = (a >= 1e-11) & (a < 1e15)
    a = np.where(ok, a, 1.0)  # a zero is laid out as 1, then its digit lowered to '0'
    ok |= zero
    ki = np.clip(np.floor(np.log10(a)), _K_LO, _K_HI).astype(np.intp) - _K_LO
    bits = a.view(np.uint64)
    m = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    s = _SHIFT_BASE[ki] - (bits >> np.uint64(52))
    f_lo, f_hi = _FIVE_LO[ki], _FIVE_HI[ki]
    m_lo, m_hi = m & _LOW32, m >> _S32
    ll = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo + (ll >> _S32)  # < 2**63 + 2**53 + 2**32
    lo = (mid << _S32) | (ll & _LOW32)
    hi = m_hi * f_hi + (mid >> _S32)
    q = (hi << (np.uint64(64) - s)) | (lo >> s)
    ok &= q >= _POW10[16]  # before rounding: 1e-7 is 9.99...95e-08 and rounds up to 10**16
    half = _ONE << (s - _ONE)
    rem = lo & ((half << _ONE) - _ONE)
    q += (rem > half) | ((rem == half) & (q & _ONE).astype(bool))
    ok &= q < _POW10[17]

    digits = _digits(q, 17)
    kept = ((digits != _ZERO) * _SLOTS[1:, None]).max(axis=0)  # digits left after trailing zeros
    int_digits = _INT_DIGITS[ki]
    # the digits with a '.' after the integer ones; without any, the '.' goes
    # to slot 17, which is always cleared below
    dot = np.where(int_digits > 0, int_digits, 17)
    body = np.zeros((18, n), np.uint8)
    body[:17] = digits
    np.copyto(body[1:], digits, where=_SLOTS[1:, None] > dot)
    body[dot, np.arange(n)] = ord(".")
    shown = np.maximum(kept, int_digits) + (kept > dot)  # the '.' only before a kept digit
    body *= _SLOTS[:, None] < shown

    affixes = _AFFIXES[ki].view(np.uint8).reshape(n, 16)
    cells = np.empty((28, n), np.uint8)
    cells[0] = np.signbit(v) * _MINUS
    cells[1:6] = affixes[:, :5].T
    cells[6:24] = body
    cells[24:] = affixes[:, 8:12].T
    cells[6] -= zero
    return cells, ~ok


def traj_column(traj: Trajectory, name: str) -> np.ndarray:
    """The trajectory column behind a CSV column name."""
    if name not in _COLUMNS:
        raise ValueError(f"unknown trajectory column {name!r}")
    return getattr(traj, "lam" if name == "lambda" else name)  # lambda is a keyword


def read_trajectory_csv(path: str | PathLike[str]) -> dict[str, np.ndarray]:
    """Read a trajectory CSV back into {column name: array}.

    Integer columns come back as int64, reals as float64; values equal the
    originally written ones exactly.  Blank lines are skipped.  The file is
    read _BLOCK_ROWS lines at a time, so at most one block of its text is
    held at once.

    A malformed file raises the error a whole-file parse would: a file that
    is not UTF-8 raises that before anything else, then a bad header, then
    the first row with the wrong number of fields, then the first bad cell of
    the leftmost column that has one.  Rows are numbered from 1 after the
    header, blank lines not counted.
    """
    dtypes = [np.int64 if name in _INT_COLUMNS else np.float64 for name in _COLUMNS]
    parts = [[np.empty(0, dtype)] for dtype in dtypes]  # each column's blocks
    error: Exception | None = None  # raised once the whole file has decoded
    final = False  # error outranks every error a later line could give
    parsed = len(_COLUMNS)  # columns left of the leftmost bad cell so far
    n_rows = 0
    try:
        with Path(path).open(encoding="utf-8") as fh:
            header = next(filter(None, (ln.rstrip("\n") for ln in fh)), None)
            if header != CSV_HEADER:
                got = "<empty file>" if header is None else header
                error = ValueError(f"bad trajectory CSV header in {path}: {got!r}")
                final = True
            while block := list(itertools.islice(fh, _BLOCK_ROWS)):
                if final:
                    continue  # read on: a later undecodable byte still wins
                rows = [ln.split(",") for ln in "".join(block).split("\n") if ln]
                for i, row in enumerate(rows):
                    if len(row) != len(_COLUMNS):
                        error = ValueError(
                            f"row {n_rows + i + 1} of {path} has {len(row)} fields, "
                            f"expected {len(_COLUMNS)}"
                        )
                        final = True
                        break
                n_rows += len(rows)
                for j, col in enumerate(list(zip(*rows))[: 0 if final else parsed]):
                    try:
                        parts[j].append(np.array(col, dtype=dtypes[j]))
                    except (ValueError, OverflowError) as exc:
                        error, parsed = exc, j
                        break
    except UnicodeDecodeError:
        Path(path).read_text(encoding="utf-8")  # raises it again, placed in the whole file
        raise
    except OSError as exc:
        raise OSError(f"failed to read trajectory CSV {path}: {exc}") from exc
    if error is not None:
        raise error
    out: dict[str, np.ndarray] = {}
    for name, part in zip(_COLUMNS, parts):
        out[name] = np.concatenate(part)
        part.clear()  # so the blocks of one column at a time outlive their copy
    return out


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


def _json_text(payload: dict) -> str:
    """The text write_summary_json writes for ``payload``."""
    return json.dumps(_finite_json(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    files: Mapping[str | PathLike[str], str | Iterable[str] | None],
) -> list[str | PathLike[str]]:
    """Commit a set of files, each given as one string or its pieces in
    order, or as None for a file the set drops; returns the paths written.

    Every text goes to a temp file next to its target first, named for the
    writing process and thread, so that two writers of one file never share
    a temp file and the last complete one-file commit wins; two writers of
    one multi-file set may interleave and are not supported.  Once all of
    them are written, the dropped files are removed, and only then do the
    temp files replace their targets, one rename each in the given order.
    If anything fails, every temp file is removed, and so is every target
    this call already replaced, before OSError("failed to write <path>:
    ...") names the file that failed.  So a failure while writing, or while
    removing a dropped file, leaves every file the set replaces as it was.
    A failed rename leaves no file of this call behind, only those previous
    files it had not renamed onto yet; the dropped files are already gone.
    """
    texts = {path: text for path, text in files.items() if text is not None}
    dropped = [path for path, text in files.items() if text is None]
    staged, replaced = [], []  # (path, temp file, target) per text; the targets renamed onto
    try:
        for path, text in texts.items():
            target = Path(path)
            tmp = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
            staged.append((path, tmp, target))
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                for piece in [text] if isinstance(text, str) else text:
                    fh.write(piece)
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

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
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import asdict
from os import PathLike
from pathlib import Path

import numpy as np

from .analysis import CrashConfig, SummaryStats
from .model import Trajectory
from .params import ModelParams
from .sweep import SweepResult

ARTIFACT_VERSION = "0.1.0"

CSV_HEADER = "t,log_price,momentum,lambda,x,trade,direction,n_trades"

_INT_COLUMNS = frozenset({"t", "trade", "direction", "n_trades"})

# Trajectory attribute behind each CSV column ("lambda" is a Python keyword)
_COLUMN_ATTRS = {
    "t": "t",
    "log_price": "log_price",
    "momentum": "momentum",
    "lambda": "lam",
    "x": "x",
    "trade": "trade",
    "direction": "direction",
    "n_trades": "n_trades",
}


def write_trajectory_csv(traj: Trajectory, path: str | PathLike[str]) -> None:
    """Write one row per period, t ascending, under the fixed header.

    Rows are formatted from whole columns through one row template:
    ``%.17g`` for reals and ``%d`` for integers.
    """
    names = CSV_HEADER.split(",")
    row = ",".join("%d" if name in _INT_COLUMNS else "%.17g" for name in names) + "\n"
    columns = [traj_column(traj, name).tolist() for name in names]
    _write_text(path, CSV_HEADER + "\n" + "".join(map(row.__mod__, zip(*columns))))


def traj_column(traj: Trajectory, name: str) -> np.ndarray:
    """The trajectory column behind a CSV column name."""
    try:
        return getattr(traj, _COLUMN_ATTRS[name])
    except KeyError:
        raise ValueError(f"unknown trajectory column {name!r}") from None


def read_trajectory_csv(path: str | PathLike[str]) -> dict[str, np.ndarray]:
    """Read a trajectory CSV back into {column name: array}.

    Integer columns come back as int64, reals as float64; values equal the
    originally written ones exactly.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed to read trajectory CSV {path}: {exc}") from exc
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != CSV_HEADER:
        got = lines[0] if lines else "<empty file>"
        raise ValueError(f"bad trajectory CSV header in {path}: {got!r}")
    names = CSV_HEADER.split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != len(names):
            raise ValueError(f"row {i + 1} of {path} has {len(row)} fields, expected {len(names)}")
    columns = list(zip(*rows)) or [()] * len(names)
    out: dict[str, np.ndarray] = {}
    for name, col in zip(names, columns):
        out[name] = np.array(col, dtype=np.int64 if name in _INT_COLUMNS else float)
    return out


def _detector_dict(cfg: CrashConfig | None) -> dict | None:
    return None if cfg is None else asdict(cfg)


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
        "config": {"params": params.as_dict(), "detector": _detector_dict(cfg)},
        "seed": int(seed),
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
            "detector": _detector_dict(cfg),
            "axis": spec.axis,
            "values": list(spec.values),
        },
        "seed": [int(s) for s in spec.seeds],
        "sweep": {
            "axis": spec.axis,
            "values": list(spec.values),
            "summaries": [
                {
                    "value": s.value,
                    "n_seeds": s.n_seeds,
                    "n_failed": s.n_failed,
                    "median": dict(s.median),
                    "iqr": dict(s.iqr),
                }
                for s in result.summaries
            ],
            "cells": [
                {
                    "value": c.value,
                    "seed": c.seed,
                    "stats": None if c.stats is None else asdict(c.stats),
                    "error": c.error,
                }
                for c in result.cells
            ],
        },
        "version": ARTIFACT_VERSION,
    }


def write_summary_json(payload: dict, path: str | PathLike[str]) -> None:
    """Write a summary payload with sorted keys and a trailing newline."""
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_text(path: str | PathLike[str], text: str) -> None:
    """Write all of ``text`` or nothing: a failed write leaves ``path`` as it was.

    The text goes to a temp file next to the target, which then replaces the
    target in one rename; the temp file is removed if anything fails.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)  # already gone after a successful replace

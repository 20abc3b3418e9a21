"""Self-contained SVG line charts for trajectories and sweeps.

The figures here are plain line charts, so they are emitted directly as SVG
markup: no plotting toolkit, no external renderer, no font or network
dependency.  Output is deterministic text, which makes the documents easy to
assert on structurally (well-formed XML, expected panel count, threshold line
present) and stable enough to diff across runs.

plot_trajectory writes one document with four vertically stacked panels
sharing the time axis: log-price, momentum (with a dashed horizontal line at
the crossing threshold), trade intensity, and direction pressure.
plot_sweep overlays the representative log-price path that run_sweep kept
for each swept value (it simulates nothing itself), adds a small inset of
median peak log-price against the value index, and a legend mapping colors
to values.  This module scales each polyline's coordinates; io._points
writes them, with the table kernel that writes the CSV rows.  A document
is a list of bytes pieces, which io._write_files writes in order.  Text
and attribute values go in unescaped: names, ints and finite floats'
repr, '%g' or '%.4g' need no XML escape.
"""

from __future__ import annotations

from collections.abc import Callable
from os import PathLike

import numpy as np

from .analysis import CrashConfig
from .io import _points, _write_files
from .model import Trajectory
from .sweep import SweepResult, compare_medians

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W = 900
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_PANEL_H = 130
_PANEL_GAP = 46
_TOP = 40
_BOTTOM = 48


def _span(lo: float, hi: float) -> tuple[float, float]:
    """Pad a value range so flat data still gets a drawable extent; raises
    ValueError when the padded range has no finite width, as when an end is
    not finite or the padding overflows."""
    pad = max(0.5, abs(lo) * 0.1) if hi <= lo else (hi - lo) * 0.05
    if not np.isfinite((hi + pad) - (lo - pad)):
        raise ValueError(f"cannot scale non-finite data range [{lo}, {hi}]")
    return lo - pad, hi + pad


def _scale(lo: float, hi: float, pix_lo: float, pix_hi: float) -> Callable:
    """Affine map from data coordinates [lo, hi] to pixels [pix_lo, pix_hi]."""
    return lambda v: pix_lo + (v - lo) / (hi - lo) * (pix_hi - pix_lo)


def _polyline(points: list[bytes], stroke: str, cls: str = "series", extra: str = "") -> list[bytes]:
    head = f'<polyline class="{cls}" fill="none" stroke="{stroke}" stroke-width="1.2" points="'
    return [head.encode(), *points, f'"{extra}/>'.encode()]


def _text(x: float, y: float, s: str, cls: str, anchor: str = "start", size: int = 12) -> str:
    return (
        f'<text class="{cls}" x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="{size}">{s}</text>'
    )


def _frame(x: float, y: float | str, width: float, height: float) -> str:
    return (
        f'<rect class="frame" x="{x}" y="{y}" width="{width}" height="{height}" '
        'fill="none" stroke="#888" stroke-width="0.8"/>'
    )


def _panel(
    name: str,
    title: str,
    top: float,
    series: np.ndarray,
    threshold: float | None = None,
) -> tuple[Callable, list]:
    """One framed panel's y scale, and its lines up to the series: title, y
    extent labels, optional dashed horizontal threshold line (included in
    the y range so it is always visible)."""
    x0 = _MARGIN_LEFT
    x1 = _W - _MARGIN_RIGHT
    lo = float(np.min(series))
    hi = float(np.max(series))
    if threshold is not None:
        lo = min(lo, threshold)
        hi = max(hi, threshold)
    lo, hi = _span(lo, hi)
    sy = _scale(lo, hi, top + _PANEL_H, top)

    parts = [f'<g class="panel" data-name="{name}">']
    parts.append(_frame(x0, f"{top:.2f}", x1 - x0, _PANEL_H))
    parts.append(_text(x0, top - 7, title, "title", size=13))
    parts.append(_text(x0 - 6, sy(hi) + 4, f"{hi:.4g}", "ytick", anchor="end"))
    parts.append(_text(x0 - 6, sy(lo) + 4, f"{lo:.4g}", "ytick", anchor="end"))
    if threshold is not None:
        y = sy(threshold)
        parts.append(
            f'<line class="threshold" data-level="{threshold!r}" '
            f'x1="{x0}" y1="{y:.2f}" x2="{x1}" y2="{y:.2f}" '
            f'stroke="#c0392b" stroke-width="1" stroke-dasharray="6 4"/>'
        )
    return sy, parts


def _document(height: float, body: list[str | list[bytes]]) -> list[bytes]:
    """The document's pieces: its lines, each a str of markup or a
    polyline's pieces, each followed by a newline, all as bytes."""
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{height:.0f}" '
        f'viewBox="0 0 {_W} {height:.0f}">'
    )
    pieces: list[bytes] = []
    for line in [head, '<rect width="100%" height="100%" fill="white"/>', *body, "</svg>"]:
        pieces += line if isinstance(line, list) else [line.encode()]
        pieces.append(b"\n")
    return pieces


def plot_trajectory(traj: Trajectory, path: str | PathLike[str]) -> None:
    """Four stacked panels over a shared time axis, with the default
    detector's crossing threshold dashed in panel 2; raises ValueError, as
    summarize does, when the parameters admit no default detector."""
    _write_files({path: _trajectory_svg(traj, CrashConfig.for_params(traj.params).threshold)})


def _trajectory_svg(traj: Trajectory, threshold: float) -> list[bytes]:
    """The trajectory document's pieces with the given crossing threshold;
    raises ValueError before any write when a series has no finite range to
    scale."""
    panels = [
        ("log_price", "log price", traj.log_price, None),
        ("momentum", "momentum (dashed: crossing threshold)", traj.momentum, threshold),
        ("intensity", "trade intensity", traj.lam, None),
        ("direction", "direction pressure", traj.x, None),
    ]
    scales, heads = [], []
    for i, (name, title, series, threshold) in enumerate(panels):
        sy, head = _panel(name, title, _TOP + i * (_PANEL_H + _PANEL_GAP), series, threshold)
        scales.append(sy)
        heads.append(head)
    sx = _scale(float(traj.t[0]), float(traj.t[-1]), _MARGIN_LEFT, _W - _MARGIN_RIGHT)
    points = _points(traj.t, [series for _, _, series, _ in panels], sx, scales)
    body = []
    for head, pieces in zip(heads, points):
        body += [*head, _polyline(pieces, _PALETTE[0]), "</g>"]
    axis_y = _TOP + 4 * (_PANEL_H + _PANEL_GAP) - _PANEL_GAP + 18
    body.append(_text(_MARGIN_LEFT, axis_y, str(int(traj.t[0])), "xtick"))
    body.append(_text(_W - _MARGIN_RIGHT, axis_y, str(int(traj.t[-1])), "xtick", anchor="end"))
    body.append(_text((_MARGIN_LEFT + _W - _MARGIN_RIGHT) / 2, axis_y, "t", "xlabel", anchor="middle"))
    return _document(axis_y + _BOTTOM / 2, body)


def plot_sweep(result: SweepResult, path: str | PathLike[str]) -> None:
    """Overlaid representative log-price paths, median-peak inset, legend.

    The representative path for each value is that of the first seed of the
    sweep's (matched) seed list, as run_sweep kept it in ``result.paths``;
    values whose first-seed cell failed are skipped.
    """
    _write_files({path: _sweep_svg(result)})


def _sweep_svg(result: SweepResult) -> list[bytes]:
    """The pieces of the document plot_sweep writes; raises ValueError
    before any write when the drawn paths have no finite range to scale."""
    spec = result.spec
    rep_seed = spec.seeds[0]
    drawn = [(v, path) for v, path in zip(spec.values, result.paths) if path is not None]
    x0 = _MARGIN_LEFT
    x1 = _W - _MARGIN_RIGHT
    main_h = 330
    body = ['<g class="panel" data-name="paths">']
    body.append(_frame(x0, _TOP, x1 - x0, main_h))
    title = f"log price, one path per {spec.axis} (seed {rep_seed})"
    body.append(_text(x0, _TOP - 7, title, "title", size=13))
    if drawn:
        lo = min(float(np.min(path)) for _, path in drawn)
        hi = max(float(np.max(path)) for _, path in drawn)
        lo, hi = _span(lo, hi)
        t_hi = max(float(len(path) - 1) for _, path in drawn)
        sx = _scale(0.0, t_hi, x0, x1)
        sy = _scale(lo, hi, _TOP + main_h, _TOP)
        body.append(_text(x0 - 6, sy(hi) + 4, f"{hi:.4g}", "ytick", anchor="end"))
        body.append(_text(x0 - 6, sy(lo) + 4, f"{lo:.4g}", "ytick", anchor="end"))
        points = {}  # paths of one length share their x cells
        for n in {len(path) for _, path in drawn}:
            at = [i for i, (_, path) in enumerate(drawn) if len(path) == n]
            points.update(zip(at, _points(np.arange(n), [drawn[i][1] for i in at], sx, [sy] * len(at))))
        for i, (value, _) in enumerate(drawn):
            color = _PALETTE[i % len(_PALETTE)]
            extra = f' data-value="{value!r}"'
            body.append(_polyline(points[i], color, extra=extra))
    body.append("</g>")

    # legend: one swatch per drawn value
    body.append('<g class="legend">')
    ly = _TOP + 16
    for i, (value, _) in enumerate(drawn):
        color = _PALETTE[i % len(_PALETTE)]
        body.append(f'<g class="legend-entry" data-value="{value!r}">')
        body.append(f'<rect x="{x1 - 150}" y="{ly - 9}" width="18" height="4" fill="{color}"/>')
        body.append(_text(x1 - 126, ly - 4, f"{spec.axis}={value:g}", "legend-label"))
        body.append("</g>")
        ly += 18
    body.append("</g>")

    # inset: median peak log-price per value, evenly spaced by value index
    inset_top = _TOP + main_h + 40
    inset_h = 120
    inset_w = 300
    medians = compare_medians(result, "peak_log_price")
    known = [(i, value, m) for i, (value, m) in enumerate(medians) if m is not None]
    body.append('<g class="inset">')
    body.append(_frame(x0, inset_top, inset_w, inset_h))
    body.append(_text(x0, inset_top - 7, "median peak log price", "title"))
    if known:
        at, _, ms = zip(*known)
        mlo, mhi = _span(min(ms), max(ms))
        isx = _scale(-0.5, len(medians) - 0.5, x0, x0 + inset_w)
        isy = _scale(mlo, mhi, inset_top + inset_h, inset_top)
        body.append(_polyline(_points(at, [ms], isx, [isy])[0], "#444", cls="inset-series"))
        for i, value, m in known:
            body.append(f'<circle cx="{isx(i):.2f}" cy="{isy(m):.2f}" r="3" fill="#444"/>')
            body.append(_text(isx(i), inset_top + inset_h + 14, f"{value:g}", "xtick", anchor="middle", size=10))
    body.append("</g>")

    return _document(inset_top + inset_h + 40, body)

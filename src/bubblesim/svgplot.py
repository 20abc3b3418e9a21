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
to values.  Polyline coordinates are written by io's table
kernel, the one that writes the CSV rows, with its '%.2f' cell kernel.
"""

from __future__ import annotations

from os import PathLike

import numpy as np

from .io import _f2_cells, _rows_text, _write_files
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
    """Pad a value range so flat data still gets a drawable extent."""
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise ValueError(f"cannot scale non-finite data range [{lo}, {hi}]")
    if hi <= lo:
        pad = max(0.5, abs(lo) * 0.1)
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


class _Scale:
    """Affine map from data coordinates to pixel coordinates."""

    def __init__(self, lo: float, hi: float, pix_lo: float, pix_hi: float):
        self.lo = lo
        self.hi = hi
        self.pix_lo = pix_lo
        self.pix_hi = pix_hi

    def __call__(self, v: float | np.ndarray) -> float | np.ndarray:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)


def _points(xs: np.ndarray, ys: np.ndarray, sx: _Scale, sy: _Scale) -> str:
    """Polyline points "x,y x,y ...", each coordinate as '%.2f' would write it.

    Scaling runs on whole float64 columns, the same IEEE operations per
    element as scaling each point on its own; the x and y columns are then
    written as a two-column table by io's '%.2f' kernel.
    """
    px = sx(np.asarray(xs, dtype=float))
    py = sy(np.asarray(ys, dtype=float))
    return _rows_text([px, py], [_f2_cells, _f2_cells], "%.2f", ", ")[:-1]  # no space after the last point


def escape(s: str) -> str:
    """Escape &, < and > for XML character data, as xml.sax.saxutils does."""
    return s.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(s: str) -> str:
    """Escape and quote an XML attribute value, as xml.sax.saxutils does."""
    s = escape(s).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in s:
        return f'"{s}"'
    if "'" not in s:
        return f"'{s}'"
    return '"%s"' % s.replace('"', "&quot;")


def _polyline(points: str, stroke: str, cls: str = "series", extra: str = "") -> str:
    return (
        f'<polyline class="{cls}" fill="none" stroke="{stroke}" '
        f'stroke-width="1.2" points="{points}"{extra}/>'
    )


def _text(x: float, y: float, s: str, cls: str, anchor: str = "start", size: int = 12) -> str:
    return (
        f'<text class="{cls}" x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="{size}">{escape(s)}</text>'
    )


def _panel(
    name: str,
    title: str,
    top: float,
    t: np.ndarray,
    series: np.ndarray,
    color: str,
    threshold: float | None = None,
) -> str:
    """One framed panel: title, y extent labels, the series, optional dashed
    horizontal threshold line (included in the y range so it is always visible)."""
    x0 = _MARGIN_LEFT
    x1 = _W - _MARGIN_RIGHT
    lo = float(np.min(series))
    hi = float(np.max(series))
    if threshold is not None:
        lo = min(lo, threshold)
        hi = max(hi, threshold)
    lo, hi = _span(lo, hi)
    sx = _Scale(float(t[0]), float(t[-1]), x0, x1)
    sy = _Scale(lo, hi, top + _PANEL_H, top)

    parts = [f'<g class="panel" data-name={quoteattr(name)}>']
    parts.append(
        f'<rect class="frame" x="{x0}" y="{top:.2f}" width="{x1 - x0}" '
        f'height="{_PANEL_H}" fill="none" stroke="#888" stroke-width="0.8"/>'
    )
    parts.append(_text(x0, top - 7, title, "title", size=13))
    parts.append(_text(x0 - 6, sy(hi) + 4, f"{hi:.4g}", "ytick", anchor="end"))
    parts.append(_text(x0 - 6, sy(lo) + 4, f"{lo:.4g}", "ytick", anchor="end"))
    if threshold is not None:
        y = sy(threshold)
        parts.append(
            f'<line class="threshold" data-level={quoteattr(repr(threshold))} '
            f'x1="{x0}" y1="{y:.2f}" x2="{x1}" y2="{y:.2f}" '
            f'stroke="#c0392b" stroke-width="1" stroke-dasharray="6 4"/>'
        )
    parts.append(_polyline(_points(t, series, sx, sy), color))
    parts.append("</g>")
    return "\n".join(parts)


def _document(height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{height:.0f}" '
        f'viewBox="0 0 {_W} {height:.0f}">'
    )
    return "\n".join([head, '<rect width="100%" height="100%" fill="white"/>', *body, "</svg>"]) + "\n"


def plot_trajectory(traj: Trajectory, path: str | PathLike[str]) -> None:
    """Four stacked panels over a shared time axis, with the default
    detector's crossing threshold (the parameter b) dashed in panel 2."""
    _write_files({path: _trajectory_svg(traj, traj.params.b)})


def _trajectory_svg(traj: Trajectory, threshold: float) -> str:
    """The trajectory document with the given crossing threshold; raises
    ValueError before any write when a series has no finite range to scale."""
    panels = [
        ("log_price", "log price", traj.log_price, None),
        ("momentum", "momentum (dashed: crossing threshold)", traj.momentum, threshold),
        ("intensity", "trade intensity", traj.lam, None),
        ("direction", "direction pressure", traj.x, None),
    ]
    body = []
    for i, (name, title, series, threshold) in enumerate(panels):
        top = _TOP + i * (_PANEL_H + _PANEL_GAP)
        body.append(_panel(name, title, top, traj.t, series, _PALETTE[0], threshold))
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


def _sweep_svg(result: SweepResult) -> str:
    """The document plot_sweep writes; raises ValueError before any write
    when the drawn paths have no finite range to scale."""
    spec = result.spec
    rep_seed = spec.seeds[0]
    drawn = [(v, path) for v, path in zip(spec.values, result.paths) if path is not None]
    x0 = _MARGIN_LEFT
    x1 = _W - _MARGIN_RIGHT
    main_h = 330
    body = ['<g class="panel" data-name="paths">']
    body.append(
        f'<rect class="frame" x="{x0}" y="{_TOP}" width="{x1 - x0}" '
        f'height="{main_h}" fill="none" stroke="#888" stroke-width="0.8"/>'
    )
    title = f"log price, one path per {spec.axis} (seed {rep_seed})"
    body.append(_text(x0, _TOP - 7, title, "title", size=13))
    if drawn:
        lo = min(float(np.min(path)) for _, path in drawn)
        hi = max(float(np.max(path)) for _, path in drawn)
        lo, hi = _span(lo, hi)
        t_hi = max(float(len(path) - 1) for _, path in drawn)
        sx = _Scale(0.0, t_hi, x0, x1)
        sy = _Scale(lo, hi, _TOP + main_h, _TOP)
        body.append(_text(x0 - 6, sy(hi) + 4, f"{hi:.4g}", "ytick", anchor="end"))
        body.append(_text(x0 - 6, sy(lo) + 4, f"{lo:.4g}", "ytick", anchor="end"))
        for i, (value, path) in enumerate(drawn):
            color = _PALETTE[i % len(_PALETTE)]
            extra = f" data-value={quoteattr(repr(value))}"
            body.append(_polyline(_points(np.arange(len(path)), path, sx, sy), color, extra=extra))
    body.append("</g>")

    # legend: one swatch per drawn value
    body.append('<g class="legend">')
    ly = _TOP + 16
    for i, (value, _) in enumerate(drawn):
        color = _PALETTE[i % len(_PALETTE)]
        body.append(f'<g class="legend-entry" data-value={quoteattr(repr(value))}>')
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
    body.append(
        f'<rect class="frame" x="{x0}" y="{inset_top}" width="{inset_w}" '
        f'height="{inset_h}" fill="none" stroke="#888" stroke-width="0.8"/>'
    )
    body.append(_text(x0, inset_top - 7, "median peak log price", "title"))
    if known:
        at, _, ms = zip(*known)
        mlo, mhi = _span(min(ms), max(ms))
        isx = _Scale(-0.5, len(medians) - 0.5, x0, x0 + inset_w)
        isy = _Scale(mlo, mhi, inset_top + inset_h, inset_top)
        body.append(_polyline(_points(at, ms, isx, isy), "#444", cls="inset-series"))
        for i, value, m in known:
            body.append(f'<circle cx="{isx(i):.2f}" cy="{isy(m):.2f}" r="3" fill="#444"/>')
            body.append(_text(isx(i), inset_top + inset_h + 14, f"{value:g}", "xtick", anchor="middle", size=10))
    body.append("</g>")

    return _document(inset_top + inset_h + 40, body)

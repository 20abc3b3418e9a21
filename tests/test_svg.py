"""Structural checks on the emitted SVG documents."""

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape
from xml.sax.saxutils import quoteattr as sax_quoteattr

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bubblesim import ModelParams, SweepSpec, plot_sweep, plot_trajectory, run_sweep, simulate
from bubblesim import svgplot
from bubblesim.svgplot import _points, _Scale, escape, quoteattr
from oracles import polyline_points
from synthetic import flat_trajectory

NS = {"svg": "http://www.w3.org/2000/svg"}
P = ModelParams(T=300)


def _root(path):
    return ET.parse(path).getroot()  # raises if not well-formed XML


def test_trajectory_plot_has_four_stacked_panels_in_order(tmp_path):
    path = tmp_path / "traj.svg"
    plot_trajectory(simulate(P, 1), path)
    root = _root(path)
    panels = root.findall(".//svg:g[@class='panel']", NS)
    assert len(panels) == 4
    assert [p.get("data-name") for p in panels] == [
        "log_price", "momentum", "intensity", "direction",
    ]
    # panels are stacked top to bottom in document order
    tops = [float(p.find("svg:rect", NS).get("y")) for p in panels]
    assert tops == sorted(tops)
    for p in panels:
        assert p.find("svg:polyline[@class='series']", NS) is not None
        assert p.find("svg:text[@class='title']", NS) is not None


def test_threshold_line_sits_in_the_momentum_panel(tmp_path):
    path = tmp_path / "traj.svg"
    plot_trajectory(simulate(P, 1), path)
    panels = _root(path).findall(".//svg:g[@class='panel']", NS)
    lines = [p.findall("svg:line[@class='threshold']", NS) for p in panels]
    assert [len(ls) for ls in lines] == [0, 1, 0, 0]
    thr = lines[1][0]
    assert float(thr.get("data-level")) == P.b
    assert thr.get("stroke-dasharray") is not None  # dashed, per the layout
    # horizontal: same y at both ends
    assert thr.get("y1") == thr.get("y2")


def test_flat_trajectory_still_renders(tmp_path):
    path = tmp_path / "flat.svg"
    plot_trajectory(flat_trajectory(n=30), path)
    root = _root(path)
    assert len(root.findall(".//svg:g[@class='panel']", NS)) == 4


def test_time_axis_is_labeled(tmp_path):
    path = tmp_path / "traj.svg"
    plot_trajectory(simulate(P, 1), path)
    labels = [t.text for t in _root(path).findall(".//svg:text", NS)]
    assert "t" in labels
    assert "0" in labels and str(P.T) in labels


def test_plot_output_is_deterministic(tmp_path):
    traj = simulate(P, 2)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    plot_trajectory(traj, a)
    plot_trajectory(traj, b)
    assert a.read_bytes() == b.read_bytes()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_IDENTITY = _Scale(0.0, 1.0, -0.0, 1.0)  # -0.0 + v is v, for v = -0.0 too
_PIXEL = st.one_of(st.integers(-2000, 2000), st.floats(-2000.0, 2000.0))


@st.composite
def _scales(draw):
    lo, hi = sorted(draw(st.lists(_FINITE, min_size=2, max_size=2, unique=True)))
    return _Scale(lo, hi, draw(_PIXEL), draw(_PIXEL))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(xy=st.lists(st.tuples(_FINITE, _FINITE), max_size=20), sx=_scales(), sy=_scales())
@example(
    xy=[(-0.0, -0.0), (5e-324, 5e-324), (1.7e308, 1.7e308), (-1.7e308, -1.7e308)],
    sx=_Scale(0.0, 5000.0, 72, 876),
    sy=_Scale(-1.7e308, 1.7e308, 170, 40),
)
# _IDENTITY maps every coordinate to itself, -0.0 included, so these reach
# the formatting as written.  Ties and near-ties that rint alone gets wrong
# (0.005, 0.015, 72.035, the exact tie 0.125), the sign of a zero result,
# the 2**30 hundredths limit and non-finite values, each placed first, in
# the middle and last, where the Python-formatted text is spliced in.
@example(xy=[(0.005, 1.0), (0.015, 72.035), (2.0, 0.125)], sx=_IDENTITY, sy=_IDENTITY)
@example(xy=[(1.0, 0.005), (72.035, 0.015), (0.125, 3.0)], sx=_IDENTITY, sy=_IDENTITY)
@example(xy=[(-0.0, -0.001), (-0.004, 0.0), (-0.006, -0.0)], sx=_IDENTITY, sy=_IDENTITY)
@example(
    xy=[(2**30 / 100, 1.0), (2**30 / 100 - 0.01, 1e15), (-1e308, 10737418.235)],
    sx=_IDENTITY,
    sy=_IDENTITY,
)
@example(
    xy=[(float("inf"), 1.0), (float("nan"), float("-inf")), (2.0, float("nan"))],
    sx=_IDENTITY,
    sy=_IDENTITY,
)
def test_points_equal_the_per_point_oracle(xy, sx, sy):
    xs = np.array([x for x, _ in xy], dtype=float)
    ys = np.array([y for _, y in xy], dtype=float)
    t = np.arange(len(xy), dtype=np.int64)  # trajectories plot against int64 t
    # data far outside a scale's range overflows to inf alike in both forms;
    # only numpy warns about it
    with np.errstate(over="ignore", invalid="ignore"):
        assert _points(xs, ys, sx, sy) == polyline_points(xs, ys, sx, sy)
        assert _points(t, ys, sx, sy) == polyline_points(t, ys, sx, sy)


def test_every_trajectory_panel_equals_the_oracle(monkeypatch):
    # each panel of seeds 0..9 at the stock T, with the scales plot_trajectory picks
    checked = []

    def checked_points(xs, ys, sx, sy):
        text = _points(xs, ys, sx, sy)
        checked.append(text == polyline_points(xs, ys, sx, sy))
        return text

    monkeypatch.setattr(svgplot, "_points", checked_points)
    for seed in range(10):
        svgplot._trajectory_svg(simulate(ModelParams(), seed), ModelParams().b)
    assert checked == [True] * 40


_XML_TEXT = st.text(st.one_of(st.sampled_from("&<>\"'\n\r\t;#a "), st.characters()))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(s=_XML_TEXT)
@example(s="&amp; <a b=\"c\" d='e'>\n\r\t</a>")
@example(s="\"only double\"")
@example(s="'only single'")
def test_escape_and_quoteattr_equal_the_stdlib(s):
    assert escape(s) == sax_escape(s)
    assert quoteattr(s) == sax_quoteattr(s)


# ---------------------------------------------------------------- sweep plot


@pytest.fixture(scope="module")
def small_sweep():
    spec = SweepSpec(base=P, axis="b", values=(0.0001, 0.01, 0.02), seeds=(0, 1, 2))
    return run_sweep(spec)


def test_sweep_plot_has_one_series_and_legend_entry_per_value(tmp_path, small_sweep):
    path = tmp_path / "sweep.svg"
    plot_sweep(small_sweep, path)
    root = _root(path)
    series = root.findall(".//svg:polyline[@class='series']", NS)
    assert len(series) == 3
    assert [float(s.get("data-value")) for s in series] == [0.0001, 0.01, 0.02]
    entries = root.findall(".//svg:g[@class='legend-entry']", NS)
    assert len(entries) == 3
    labels = [e.find("svg:text", NS).text for e in entries]
    assert labels == ["b=0.0001", "b=0.01", "b=0.02"]
    # distinct colors per value
    strokes = [s.get("stroke") for s in series]
    assert len(set(strokes)) == 3


def test_sweep_plot_inset_shows_median_peaks(tmp_path, small_sweep):
    path = tmp_path / "sweep.svg"
    plot_sweep(small_sweep, path)
    root = _root(path)
    insets = root.findall(".//svg:g[@class='inset']", NS)
    assert len(insets) == 1
    assert len(insets[0].findall("svg:circle", NS)) == 3
    assert insets[0].find("svg:polyline[@class='inset-series']", NS) is not None


def test_sweep_plot_skips_a_value_whose_first_seed_failed(tmp_path):
    # b=1.5 lands above c, so its cells fail and it has no path to draw
    result = run_sweep(SweepSpec(base=P, axis="b", values=(0.01, 0.02, 1.5), seeds=(0, 1)))
    path = tmp_path / "sweep.svg"
    plot_sweep(result, path)
    root = _root(path)
    series = root.findall(".//svg:polyline[@class='series']", NS)
    assert [float(s.get("data-value")) for s in series] == [0.01, 0.02]
    entries = root.findall(".//svg:g[@class='legend-entry']", NS)
    assert [float(e.get("data-value")) for e in entries] == [0.01, 0.02]


def test_sweep_plot_runs_no_simulation(tmp_path, small_sweep, monkeypatch):
    assert not hasattr(svgplot, "simulate")

    def no_simulation(*args):
        raise AssertionError("plot_sweep simulated a path")

    monkeypatch.setattr("bubblesim.model.simulate", no_simulation)
    monkeypatch.setattr("bubblesim.sweep.simulate", no_simulation)
    path = tmp_path / "sweep.svg"
    plot_sweep(small_sweep, path)
    assert len(_root(path).findall(".//svg:polyline[@class='series']", NS)) == 3


def test_single_value_sweep_plots_one_curve(tmp_path):
    result = run_sweep(SweepSpec(base=P, axis="b", values=(0.02,), seeds=(0,)))
    path = tmp_path / "one.svg"
    plot_sweep(result, path)
    root = _root(path)
    assert len(root.findall(".//svg:polyline[@class='series']", NS)) == 1
    assert len(root.findall(".//svg:g[@class='legend-entry']", NS)) == 1

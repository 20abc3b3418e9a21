"""Standard normal CDF against the independent quadrature oracle, and the
vectorised Bernoulli(Phi(x)) decision against the scalar form."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bubblesim import normal_cdf
from bubblesim.model import _TIE_GUARD, _below_normal_cdf
from oracles import normal_cdf_reference, normal_tail


def test_oracle_self_checks():
    # the reference itself must be trustworthy before it judges anything
    grid = np.linspace(-8.0, 8.0, 2001)
    ref = normal_cdf_reference(grid)
    mid = ref[len(grid) // 2]  # z = 0
    assert abs(mid - 0.5) < 5e-16
    assert abs(ref[0] - 6.22096057427178e-16) < 1e-23  # Phi(-8), known value
    # total mass: lower tail + integral + upper tail, good to a couple ulps
    # of 1.0 (1 - ref[-1] itself is cancellation-limited, don't test that)
    assert abs(ref[-1] + float(normal_tail(8.0)) - 1.0) < 2.3e-16
    # strictly increasing until the values saturate near 1.0 in double
    assert np.all(np.diff(ref) >= 0)
    assert np.all(np.diff(ref[grid <= 6.0]) > 0)


def test_matches_oracle_on_a_dense_grid():
    grid = np.linspace(-8.0, 8.0, 2001)
    ref = normal_cdf_reference(grid)
    ours = np.array([normal_cdf(float(z)) for z in grid])
    assert np.max(np.abs(ours - ref)) <= 1e-12


def test_symmetry_and_midpoint():
    assert normal_cdf(0.0) == 0.5
    for z in np.linspace(0.0, 8.0, 501):
        assert abs(normal_cdf(float(z)) + normal_cdf(float(-z)) - 1.0) <= 1e-15


def test_monotone_and_bounded():
    grid = np.linspace(-10.0, 10.0, 4001)
    vals = [normal_cdf(float(z)) for z in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert normal_cdf(-40.0) == 0.0  # underflows cleanly, no exception
    assert normal_cdf(40.0) == 1.0


def test_known_anchor_values():
    # the two probabilities quoted for a baseline step at rest
    assert normal_cdf(-2.0) == pytest.approx(0.022750, abs=5e-7)
    assert normal_cdf(0.004) == pytest.approx(0.501596, abs=5e-7)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_are_rejected(bad):
    with pytest.raises(ValueError):
        normal_cdf(bad)


# ------------------------------------------- direction draws, decided whole


def _scalar_below(u: float, x: float) -> bool:
    return u < 0.5 * math.erfc(-x / math.sqrt(2.0))


def _decide(u: list[float], x: list[float]) -> list[bool]:
    with np.errstate(over="ignore"):  # as inside simulate: w*w overflows near 1e308
        return _below_normal_cdf(np.array(u, dtype=float), np.array(x, dtype=float)).tolist()


_EDGE_X = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
           *(s * m for m in (8.0, 8.3, 9.0, 10.0, 20.0, 26.5, 38.5, 40.0, 1e308) for s in (1.0, -1.0))]
_DRAW = st.sampled_from(("uniform", "tie", "below tie", "above tie"))


def _draw_for(x: float, kind: str, uniform: float) -> float:
    """A uniform draw, or one exactly at the scalar form's Phi(x) or next to it."""
    tie = 0.5 * math.erfc(-x / math.sqrt(2.0))
    if kind == "uniform":
        return uniform
    return {"tie": tie, "below tie": math.nextafter(tie, -1.0), "above tie": math.nextafter(tie, 2.0)}[kind]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(
    st.tuples(
        st.one_of(st.sampled_from(_EDGE_X), st.floats(-40.0, 40.0),
                  st.floats(allow_nan=False, allow_infinity=False)),
        _DRAW,
        st.floats(0.0, 1.0, exclude_max=True),
    ),
    max_size=40,
))
@example([(x, kind, 0.5) for x in _EDGE_X for kind in ("uniform", "tie", "below tie", "above tie")])
def test_direction_draws_are_decided_like_the_scalar_form(cases):
    x = [c[0] for c in cases]
    u = [_draw_for(*c) for c in cases]
    assert _decide(u, x) == [_scalar_below(ui, xi) for ui, xi in zip(u, x)]


def test_the_approximation_decides_draws_just_outside_the_guard():
    # A&S 7.1.26 is within 7.5e-8 of Phi, so draws half a guard beyond the
    # guard are decided by the approximation alone, and decided right
    x = np.linspace(-9.0, 9.0, 20_001).tolist()
    ties = [0.5 * math.erfc(-xi / math.sqrt(2.0)) for xi in x]
    for offset in (-1.5 * _TIE_GUARD, 1.5 * _TIE_GUARD):
        u = [t + offset for t in ties]
        assert _decide(u, x) == [_scalar_below(ui, xi) for ui, xi in zip(u, x)]

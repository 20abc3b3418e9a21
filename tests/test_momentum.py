"""Momentum reference forms: incremental recursion vs the explicit weighted sum.

Both forms live in ``oracles``; criterion 01 checks the kernel's momentum
column against ``momentum_direct``, and ``test_model`` checks the kernel
against the step-wise form bit for bit.
"""

import math

import numpy as np
import pytest

from oracles import momentum_direct, momentum_update


def test_empty_history_has_zero_momentum():
    assert momentum_direct([], 0.001) == 0.0


def test_all_zero_returns_give_zero():
    assert momentum_direct([0.0, 0.0, 0.0], 0.001) == 0.0
    assert momentum_update(0.0, 0.0, 0.001) == 0.0


def test_single_return_worked_example():
    # one return of 0.01 from the immediately preceding period, r = 0.001
    expected = math.exp(-0.001) * 0.01
    assert momentum_direct([0.01], 0.001) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.0099900, abs=5e-8)
    assert momentum_update(0.0, 0.01, 0.001) == pytest.approx(expected, abs=1e-15)


def test_update_worked_example_matches_direct_on_two_returns():
    # m_prev = 0.005 followed by a -0.01 return, r = 0.001
    got = momentum_update(0.005, -0.01, 0.001)
    assert got == pytest.approx(math.exp(-0.001) * -0.005, abs=1e-15)
    assert got == pytest.approx(-0.0049950, abs=5e-8)
    # same thing via a two-return history whose first step yields m_prev
    first_return = 0.005 / math.exp(-0.001)
    assert got == pytest.approx(momentum_direct([first_return, -0.01], 0.001), abs=1e-15)


def test_recent_returns_weigh_more():
    r = 0.01
    assert momentum_direct([1.0, 0.0], r) < momentum_direct([0.0, 1.0], r)


def test_recursion_equals_direct_sum_on_random_histories():
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(5):
        r = float(rng.uniform(0.0005, 0.05))
        returns = rng.normal(0.0, 0.01, size=300)
        m = 0.0
        for t in range(1, len(returns) + 1):
            m = momentum_update(m, float(returns[t - 1]), r)
            direct = momentum_direct(returns[:t], r)
            assert m == pytest.approx(direct, abs=1e-13)


@pytest.mark.parametrize("bad_r", [0.0, -0.001])
def test_decay_rate_must_be_positive(bad_r):
    with pytest.raises(ValueError):
        momentum_direct([0.01], bad_r)
    with pytest.raises(ValueError):
        momentum_update(0.0, 0.01, bad_r)


def test_non_finite_returns_are_rejected():
    with pytest.raises(ValueError):
        momentum_direct([0.01, math.nan], 0.001)

"""Parameter defaults, validation, and override helpers."""

import dataclasses
import math

import pytest

from bubblesim import PARAM_FIELDS, ModelParams


def test_defaults_are_the_baseline_configuration():
    p = ModelParams()
    assert p.T == 5000
    assert p.d == 0.01
    assert p.r == 0.001
    assert p.Lambda == -2.0
    assert p.k == 10.0
    assert p.h == 0.2
    assert p.a == -1.0
    assert p.b == 0.02
    assert p.c == 1.0
    assert p.log_p0 == 0.0
    assert p.x0 == 0.0


def test_param_fields_lists_every_field_in_order():
    assert PARAM_FIELDS == ("T", "d", "r", "Lambda", "k", "h", "a", "b", "c", "log_p0", "x0")


def test_root_ordering_is_enforced():
    with pytest.raises(ValueError, match="requires a < b < c"):
        ModelParams(a=2.0, c=1.0)
    with pytest.raises(ValueError, match="requires a < b < c"):
        ModelParams(b=-5.0, a=-1.0)
    with pytest.raises(ValueError, match="requires a < b < c"):
        ModelParams(a=0.02)  # a == b
    # error message carries the offending values
    with pytest.raises(ValueError, match=r"a=2\.0"):
        ModelParams(a=2.0, c=1.0)


@pytest.mark.parametrize("field", ["d", "r", "k", "h"])
@pytest.mark.parametrize("bad", [0.0, -0.1])
def test_scale_parameters_must_be_positive(field, bad):
    with pytest.raises(ValueError):
        ModelParams(**{field: bad})


def test_horizon_must_be_an_integer_of_at_least_two():
    with pytest.raises(ValueError):
        ModelParams(T=1)
    with pytest.raises(ValueError):
        ModelParams(T=0)
    with pytest.raises(ValueError):
        ModelParams(T=True)
    assert ModelParams(T=2).T == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_reals_are_rejected(bad):
    with pytest.raises(ValueError):
        ModelParams(Lambda=bad)
    with pytest.raises(ValueError):
        ModelParams(log_p0=bad)


@pytest.mark.parametrize("bad", ["x", None, True])
def test_non_real_values_are_rejected(bad):
    with pytest.raises(ValueError, match=rf"requires a real number for d \(got {bad!r}\)"):
        ModelParams(d=bad)


@pytest.mark.parametrize("field", ["r", "Lambda", "log_p0"])
@pytest.mark.parametrize("sign", [1, -1])
def test_ints_beyond_the_float_range_are_rejected_as_non_finite(field, sign):
    # math.isfinite raises OverflowError on them; construction must not
    with pytest.raises(ValueError, match=rf"requires finite values \(got {field}=-?1000"):
        ModelParams(**{field: sign * 10**400})


def test_instances_are_immutable():
    p = ModelParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.b = 0.05


def test_with_value_replaces_one_field():
    p = ModelParams().with_value("b", 0.01)
    assert p.b == 0.01
    assert p.c == 1.0
    assert ModelParams().b == 0.02  # original untouched
    assert ModelParams().with_value("T", 100.0).T == 100
    with pytest.raises(ValueError):
        ModelParams().with_value("nope", 1.0)
    with pytest.raises(ValueError):
        ModelParams().with_value("b", 5.0)  # lands above c


def test_with_value_rejects_a_non_integral_horizon():
    assert ModelParams().with_value("T", 2000.0).T == 2000  # the form SweepSpec passes
    for bad in (2.7, 2000.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="integer T"):
            ModelParams().with_value("T", bad)


def test_as_dict_round_trips():
    p = ModelParams(b=0.03, Lambda=-1.5)
    assert ModelParams(**p.as_dict()) == p
    assert tuple(p.as_dict()) == PARAM_FIELDS

"""Parameter defaults, validation, and override helpers."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblesim import PARAM_FIELDS, CrashConfig, ModelParams, RngStream, SweepSpec, run_sweep


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
    with pytest.raises(ValueError, match=rf"ModelParams d must be a finite real number \(got {bad!r}\)"):
        ModelParams(d=bad)


@pytest.mark.parametrize("field", ["r", "Lambda", "log_p0"])
@pytest.mark.parametrize("sign", [1, -1])
def test_ints_beyond_the_float_range_are_rejected_as_non_finite(field, sign):
    # math.isfinite raises OverflowError on them; construction must not
    with pytest.raises(ValueError, match=rf"ModelParams {field} must be a finite real number \(got -?1000"):
        ModelParams(**{field: sign * 10**400})


@pytest.mark.parametrize("sign", [1, -1])
def test_an_integer_field_rejects_a_fraction_beyond_the_float_range(sign):
    # math.isfinite raises OverflowError on it; integer must not
    with pytest.raises(ValueError, match=r"ModelParams T must be an integer \(got Fraction\(-?1000"):
        ModelParams(T=Fraction(sign * 10**400))


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
        with pytest.raises(ValueError, match="ModelParams T must be an integer"):
            ModelParams().with_value("T", bad)


_CANDIDATES = (0, 1, 2, -3, 0.0, -0.0, 0.02, -0.1, 2.5, 5.0, -5.0, 2000.0, math.nan, math.inf,
               -math.inf, 10**400, Fraction(5, 2), Fraction(10**400), np.float32(0.5),
               np.int64(7), True, np.bool_(False), None, "1.0", [1.0])


@pytest.mark.parametrize("base", [ModelParams(), ModelParams(T=2, a=-0.5, b=0.0, c=0.5)])
@pytest.mark.parametrize("name", PARAM_FIELDS)
def test_with_value_gives_what_construction_gives(base, name):
    # the same error text for every bad value, and the same fields otherwise
    bad = 0
    for value in _CANDIDATES:
        try:
            want = repr(ModelParams(**{**base.as_dict(), name: value}))
        except ValueError as exc:
            want, bad = str(exc), bad + 1
            with pytest.raises(ValueError) as got:
                base.with_value(name, value)
            assert str(got.value) == want, value
        else:
            assert repr(base.with_value(name, value)) == want, value
    assert bad >= 9


def test_as_dict_round_trips():
    p = ModelParams(b=0.03, Lambda=-1.5)
    assert ModelParams(**p.as_dict()) == p
    assert tuple(p.as_dict()) == PARAM_FIELDS


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_number_field_is_stored_as_a_plain_float_or_int(data):
    def spell(value):
        # exact spellings but float32; int ones only where value is integral
        kinds = [float, np.float64, np.float32, Fraction]
        if float(value).is_integer():
            kinds += [int, np.int64]
        return data.draw(st.sampled_from(kinds))(value)

    spelled = {k: spell(v) for k, v in ModelParams().as_dict().items()}
    params = ModelParams(**spelled)
    detector = {k: spell(v) for k, v in dataclasses.asdict(CrashConfig.for_params(params)).items()}
    crash = CrashConfig(**detector)
    values, seeds = (spell(0.01), spell(0.5)), (spell(0), spell(3))
    spec = SweepSpec(base=params, axis="b", values=values, seeds=seeds)
    assert params.as_dict() == spelled and dataclasses.asdict(crash) == detector
    assert spec.values == values and spec.seeds == seeds
    assert type(params.T) is type(crash.peak_window) is int
    assert all(type(s) is int for s in spec.seeds)
    reals = [v for k, v in params.as_dict().items() if k != "T"]
    reals += [crash.threshold, crash.min_drawdown, *spec.values]
    assert all(type(x) is float for x in reals)


@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
def test_bools_are_not_numbers(flag):
    spec = SweepSpec(base=ModelParams(T=50), axis="b", values=(0.02,), seeds=(0,))
    builds = [
        lambda: ModelParams(T=flag),
        lambda: ModelParams(d=flag),
        lambda: CrashConfig(threshold=flag, peak_window=500, min_drawdown=0.05),
        lambda: CrashConfig(threshold=0.02, peak_window=flag, min_drawdown=0.05),
        lambda: SweepSpec(base=ModelParams(), axis="b", values=(flag,), seeds=(0,)),
        lambda: SweepSpec(base=ModelParams(), axis="b", values=(0.02,), seeds=(flag,)),
        lambda: RngStream(flag),
        lambda: run_sweep(spec, n_jobs=flag),
    ]
    for build in builds:
        with pytest.raises(ValueError, match=rf"must be an? .*\(got {flag!r}\)"):
            build()

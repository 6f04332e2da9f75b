import math

import numpy as np
import pytest

from ctmc_bounds import RateEvaluationError, RateFunction, as_rate


def test_constant_scalar_and_array():
    r = RateFunction.constant(2.5)
    assert r(0.0) == 2.5
    assert r(17.3) == 2.5
    out = r(np.linspace(0, 1, 5))
    assert out.shape == (5,)
    assert np.all(out == 2.5)


def test_constant_keeps_return_types_signed_zero_and_time_check():
    for value in (2.5, -0.0):
        r = RateFunction.constant(value)
        for t in (0.3, np.float64(0.3), np.array(0.3)):
            out = r(t)
            assert type(out) is float and math.copysign(1.0, out) == math.copysign(1.0, value)
        out = r(np.zeros((2, 3)))
        assert out.shape == (2, 3) and out.dtype == float
        assert np.all(np.copysign(1.0, out) == math.copysign(1.0, value))
        for t in (math.nan, math.inf, np.array([0.0, -math.inf])):
            with pytest.raises(RateEvaluationError, match="non-finite time"):
                r(t)


def test_constant_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        RateFunction.constant(-0.1)
    with pytest.raises(ValueError):
        RateFunction.constant(math.inf)


def test_sinusoid_formula():
    r = RateFunction.sinusoid(2.0, 1.0, 0.5, 0.25)
    for t in (0.0, 0.3, 1.7):
        assert r(t) == pytest.approx(2.0 + math.sin(2 * math.pi * 0.5 * t + 0.25),
                                     abs=1e-15)


def test_sinusoid_negative_excursion_errors_at_evaluation():
    r = RateFunction.sinusoid(0.5, 1.0, 1.0)  # dips negative around t = 0.75
    assert r(0.0) == pytest.approx(0.5)
    with pytest.raises(RateEvaluationError):
        r(0.75)
    with pytest.raises(RateEvaluationError):
        r(np.linspace(0.0, 1.0, 50))


def test_sinusoid_values_that_are_not_finite_error_at_evaluation():
    r = RateFunction.sinusoid(1e308, 1e308, 1.0)  # 2e308 overflows at t = 0.25
    assert r(0.0) == 1e308
    with np.errstate(over="ignore", invalid="ignore"):  # the sum overflows, sin(inf) is NaN
        with pytest.raises(RateEvaluationError,
                           match=r"^sinusoid rate is not finite at t=0.25: inf$"):
            r(0.25)
        with pytest.raises(RateEvaluationError, match=r"not finite at t=0.25: inf"):
            r(np.array([0.0, 0.25, 0.75]))  # the first bad value is named
        with pytest.raises(RateEvaluationError, match=r"not finite at t=1.0: nan"):
            RateFunction.sinusoid(1.0, 1.0, 1e308)(1.0)
    with pytest.raises(RateEvaluationError, match=r"negative at t=0.25: -1"):
        RateFunction.sinusoid(0.0, -1.0, 1.0)(np.array([0.0, 0.25, 0.5]))


def test_table_exact_at_breakpoints_affine_between_clamped_outside():
    r = RateFunction.table([0.0, 1.0, 3.0], [2.0, 4.0, 1.0])
    assert r(0.0) == 2.0
    assert r(1.0) == 4.0
    assert r(3.0) == 1.0
    assert r(0.5) == pytest.approx(3.0)
    assert r(2.0) == pytest.approx(2.5)
    assert r(-5.0) == 2.0
    assert r(10.0) == 1.0
    mid = r(np.array([0.25, 0.75]))
    assert np.allclose(mid, [2.5, 3.5])


def test_table_validation():
    with pytest.raises(ValueError):
        RateFunction.table([0.0], [1.0])
    with pytest.raises(ValueError):
        RateFunction.table([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        RateFunction.table([1.0, 0.5], [1.0, 1.0])
    with pytest.raises(ValueError):
        RateFunction.table([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        RateFunction.table([0.0, 1.0], [1.0, -0.5])


def test_nonfinite_time_rejected():
    r = RateFunction.constant(1.0)
    with pytest.raises(RateEvaluationError):
        r(math.nan)
    with pytest.raises(RateEvaluationError):
        r(np.array([0.0, math.inf]))


def test_as_rate_coercion_and_passthrough():
    r = as_rate(3)
    assert r.is_constant and r.constant_value == 3.0
    same = as_rate(r)
    assert same is r


def test_constant_value_only_for_constants():
    r = RateFunction.sinusoid(1.0, 0.5, 1.0)
    assert not r.is_constant
    with pytest.raises(ValueError):
        r.constant_value

import numpy as np
import pytest

from additive_bases import (
    TestFunction1D,
    balance_fraction,
    moser_constant,
    moser_test_function,
    one_var_bound,
)


def test_pointwise_values():
    f = moser_test_function()
    assert f(0.0) == pytest.approx(0.5, abs=1e-15)
    assert f(0.25) == pytest.approx(0.5, abs=1e-15)
    assert f(0.75) == pytest.approx(-1.5, abs=1e-15)
    # reduction mod 1
    assert f(1.25) == pytest.approx(f(0.25), abs=1e-15)
    assert f(-0.25) == pytest.approx(f(0.75), abs=1e-15)


def test_piecewise_lower_bounds_on_dense_grid():
    t = np.arange(10**6) / 10**6
    vals = moser_test_function()(t)
    lower_half = vals[t < 0.5]
    upper_half = vals[t >= 0.5]
    assert lower_half.min() >= 0.5 - 1e-9
    assert upper_half.min() >= -1.5 - 1e-9
    # the -3/2 bound is attained (at t = 3/4)
    assert upper_half.min() <= -1.5 + 1e-9


def test_series_instance_matches_direct_formula():
    f = moser_test_function()
    t = np.linspace(0.0, 1.0, 1001)
    direct = 0.5 * np.cos(4.0 * np.pi * t) + np.sin(2.0 * np.pi * t)
    assert np.max(np.abs(f(t) - direct)) < 1e-12
    assert f.weight_sum() == pytest.approx(1.5)


def test_constant_is_one_over_98():
    c, coefficient = moser_constant()
    assert c == pytest.approx(1.0 / 98.0, abs=1e-15)
    assert coefficient == pytest.approx(0.5 - 1.0 / 98.0, abs=1e-15)
    assert coefficient <= 0.4898


def balance_oracle():
    """Grid scan plus bisection on the crossing of the two branches."""

    def f(lam):
        return max((1 - 4 * lam) ** 2 / 18.0, lam * lam / 2.0)

    lams = np.linspace(0.0, 1.0, 10001)
    lam = lams[np.argmin([f(x) for x in lams])]
    lo, hi = lam - 1e-3, lam + 1e-3

    def diff(x):
        return (1 - 4 * x) ** 2 / 18.0 - x * x / 2.0

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if diff(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_balance_point_is_one_seventh():
    lam = balance_oracle()
    assert lam == pytest.approx(1.0 / 7.0, abs=1e-9)
    assert balance_fraction(moser_test_function()) == pytest.approx(1.0 / 7.0, abs=1e-12)


def test_one_var_bound_reproduces_constant():
    got = one_var_bound(moser_test_function())
    assert abs(got - (0.5 - 1.0 / 98.0)) < 1e-12


def test_degenerate_alpha1_gives_one_half():
    f = TestFunction1D(cos_coeffs=(0.0, 0.0, 0.5), sin_coeffs=(0.0, 1.0), alpha1=0.0, alpha2=-2.0)
    assert one_var_bound(f) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("scale", [0.5, 2.0, 7.3])
def test_scale_invariance(scale):
    base = moser_test_function()
    scaled = TestFunction1D(
        cos_coeffs=tuple(scale * a for a in base.cos_coeffs),
        sin_coeffs=tuple(scale * b for b in base.sin_coeffs),
        alpha1=scale * base.alpha1,
        alpha2=scale * base.alpha2,
    )
    assert abs(one_var_bound(scaled) - one_var_bound(base)) < 1e-12


def test_no_separation_rejected():
    f = TestFunction1D(cos_coeffs=(0.0, 1.0), sin_coeffs=(), alpha1=-1.0, alpha2=-1.0)
    with pytest.raises(ValueError, match="no separation"):
        one_var_bound(f)


def test_constant_term_rejected():
    f = TestFunction1D(cos_coeffs=(1.0, 1.0), sin_coeffs=(), alpha1=1.0, alpha2=-1.0)
    with pytest.raises(ValueError, match="constant term"):
        one_var_bound(f)

from fractions import Fraction

import numpy as np
import pytest

from additive_bases.fourier1d import balance_fraction, moser_bounds, one_var_bound


def worst(lam, alpha1, alpha2, S):
    """The larger of the two branches of the surplus bound at lam, exactly."""
    analytic = max(alpha1 - (alpha1 - alpha2) * lam, 0) / S
    return max(lam * lam / 2, analytic * analytic / 2)


def test_piecewise_lower_bounds_on_dense_grid():
    # The test function written out here, not read from the module.
    t = np.arange(10**6) / 10**6
    vals = 0.5 * np.cos(4.0 * np.pi * t) + np.sin(2.0 * np.pi * t)
    lower_half = vals[t < 0.5]
    upper_half = vals[t >= 0.5]
    alpha1, alpha2, _ = moser_bounds()
    assert lower_half.min() >= alpha1 - 1e-9
    assert upper_half.min() >= alpha2 - 1e-9
    # both bounds are attained (alpha1 at t = 0 and 1/4, alpha2 at t = 3/4)
    assert lower_half.min() <= alpha1 + 1e-9
    assert upper_half.min() <= alpha2 + 1e-9


def test_derived_bounds_are_exact():
    assert moser_bounds() == (Fraction(1, 2), Fraction(-3, 2), Fraction(3, 2))


def test_constant_is_one_over_98():
    coefficient = one_var_bound(*moser_bounds())
    assert Fraction(1, 2) - coefficient == Fraction(1, 98)
    assert coefficient <= Fraction(4898, 10000)


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
    assert balance_fraction(*moser_bounds()) == Fraction(1, 7)


@pytest.mark.parametrize("bounds", [
    moser_bounds(),
    (Fraction(0), Fraction(-2), Fraction(3, 2)),
    (Fraction(1), Fraction(-1), Fraction(1, 3)),
    (Fraction(-1, 2), Fraction(-5, 2), Fraction(3)),
], ids=["moser", "zero-alpha1", "small-S", "negative-alpha1"])
def test_balance_fraction_minimises_the_larger_branch(bounds):
    # No lam on a fine grid of [0, 1] beats the crossing, and the bound is
    # 1/2 minus the larger branch there.
    lam = balance_fraction(*bounds)
    best = worst(lam, *bounds)
    assert all(worst(Fraction(i, 2000), *bounds) >= best for i in range(2001))
    assert one_var_bound(*bounds) == Fraction(1, 2) - best


def test_one_var_bound_reproduces_constant():
    assert one_var_bound(*moser_bounds()) == Fraction(24, 49)


def test_degenerate_alpha1_gives_one_half():
    assert one_var_bound(0, -2, Fraction(3, 2)) == Fraction(1, 2)


@pytest.mark.parametrize("scale", [0.5, 2.0, 7.3])
def test_scale_invariance(scale):
    alpha1, alpha2, S = moser_bounds()
    scale = Fraction(scale)
    assert one_var_bound(scale * alpha1, scale * alpha2, scale * S) == one_var_bound(
        alpha1, alpha2, S)


def test_no_separation_rejected():
    with pytest.raises(ValueError, match="no separation"):
        one_var_bound(-1, -1, 1)


def test_empty_support_rejected():
    with pytest.raises(ValueError, match="empty coefficient support"):
        one_var_bound(1, -1, 0)

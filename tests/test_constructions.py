from fractions import Fraction

import pytest

from additive_bases.constructions import lower_bound_coefficient, rohrbach_basis


def test_frozen_examples():
    assert tuple(rohrbach_basis(4)) == (0, 1, 2)
    assert tuple(rohrbach_basis(6)) == (0, 1, 2, 3, 6)
    assert tuple(rohrbach_basis(10)) == (0, 1, 2, 3, 4, 5, 10, 15, 20)


def test_coefficient_values():
    assert lower_bound_coefficient(4) == Fraction(5, 16)
    assert lower_bound_coefficient(100) == Fraction(2501, 10000)


def test_coefficient_tends_to_quarter():
    for k in (10**3, 10**4, 10**5):
        assert abs(lower_bound_coefficient(k) - Fraction(1, 4)) <= Fraction(1, k)


def test_degenerate_inputs_rejected():
    for k in (0, 1, 2, 3):
        with pytest.raises(ValueError, match="degenerate"):
            rohrbach_basis(k)
        with pytest.raises(ValueError, match="degenerate"):
            lower_bound_coefficient(k)


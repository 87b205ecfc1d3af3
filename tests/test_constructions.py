from fractions import Fraction

import pytest

from additive_bases.constructions import lower_bound_coefficient, rohrbach_basis
from additive_bases.sumsets import n2, sumset2


def test_frozen_examples():
    assert tuple(rohrbach_basis(4)) == (0, 1, 2)
    assert tuple(rohrbach_basis(6)) == (0, 1, 2, 3, 6)
    assert tuple(rohrbach_basis(10)) == (0, 1, 2, 3, 4, 5, 10, 15, 20)


@pytest.mark.parametrize("k", [4, 5, 6, 7, 10, 11, 25, 50, 101])
def test_sumset_covers_claimed_segment(k):
    r = k // 2
    basis = rohrbach_basis(k)
    assert len(basis) == 2 * r - 1 <= k
    covered = set(sumset2(basis))
    assert all(j in covered for j in range(r * r + 1))
    assert n2(basis) >= r * r + 1


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


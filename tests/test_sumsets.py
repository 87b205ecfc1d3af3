import cmath
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from additive_bases.constructions import rohrbach_basis
from additive_bases.sumsets import (
    DIRECT_TERMS,
    Basis,
    as_basis,
    exp_sum_stats,
    m2,
    n2,
    rep_profile,
    sumset2,
)

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def brute_sumset(elems):
    return sorted({a + b for a in elems for b in elems})


def brute_rep_counts(elems):
    counts = {}
    for i, a in enumerate(elems):
        for b in elems[i:]:
            counts[a + b] = counts.get(a + b, 0) + 1
    return counts


def brute_n2(elems):
    s = set(brute_sumset(elems))
    n = 0
    while n in s:
        n += 1
    return n


bases = st.sets(st.integers(0, 200), min_size=1, max_size=12).map(
    lambda s: as_basis(sorted(s))
)
bases_01 = st.sets(st.integers(2, 200), max_size=10).map(
    lambda s: as_basis(sorted(s | {0, 1}))
)


# ---------------------------------------------------------------------------
# Basic examples
# ---------------------------------------------------------------------------


def test_sumset2_examples():
    assert sumset2([0, 1]) == [0, 1, 2]
    # oracle: the six unordered pairs of {0,1,3} give 0,1,2,3,4,6
    assert sumset2([0, 1, 3]) == brute_sumset([0, 1, 3]) == [0, 1, 2, 3, 4, 6]
    assert sumset2([]) == []


def test_n2_examples():
    assert n2([0]) == 1
    assert n2([0, 1, 3]) == 5
    assert n2([1, 2]) == 0
    assert n2([]) == 0
    assert n2([0, 1, 2**62 - 1]) == 3


def test_m2_examples():
    assert m2([0, 2]) == 1
    assert m2([0, 1]) == 3
    assert m2([5, 6]) == 3  # translate of {0, 1}


def test_m2_empty_rejected():
    with pytest.raises(ValueError, match="empty basis"):
        m2([])


def test_rep_profile_examples():
    p = rep_profile([0, 1])
    assert (p.n, p.delta_total) == (3, 0)
    p = rep_profile([0, 1, 2])
    assert (p.n, p.delta_total) == (5, 1)
    assert p.delta == {2: 1}  # 2 = 0+2 = 1+1
    p = rep_profile([0, 1, 3])
    assert (p.n, p.delta_total) == (5, 1)


def test_rep_profile_empty_rejected():
    with pytest.raises(ValueError, match="empty basis"):
        rep_profile([])


def test_rep_profile_against_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(1, 10))
        elems = sorted(rng.choice(60, size=k, replace=False).tolist())
        p = rep_profile(elems)
        assert p.counts == brute_rep_counts(elems)
        assert p.n == brute_n2(elems)


# ---------------------------------------------------------------------------
# Basis validation
# ---------------------------------------------------------------------------


def test_basis_validation():
    with pytest.raises(ValueError, match="negative"):
        Basis((-1, 2))
    with pytest.raises(ValueError, match="strictly increasing"):
        Basis((3, 2))
    with pytest.raises(ValueError, match="duplicate"):
        as_basis([1, 1, 2])
    with pytest.raises(ValueError, match="too large"):
        Basis((0, 2**62))
    assert tuple(as_basis([3, 0, 1])) == (0, 1, 3)


# ---------------------------------------------------------------------------
# Exponential sums
# ---------------------------------------------------------------------------


def test_exp_sum_examples():
    st5 = exp_sum_stats([0], 5)
    assert st5.M == pytest.approx(1.0, abs=1e-12)

    st3 = exp_sum_stats([0, 1], 3)
    expected = abs(1 + cmath.exp(2j * cmath.pi / 3))
    assert st3.M == pytest.approx(expected, abs=1e-12)
    assert st3.M == pytest.approx(1.0, abs=1e-12)

    st = exp_sum_stats([0, 1, 2], 5)
    assert st.ell == 0  # no element with 2a >= 5
    assert st.L == 0  # max pair sum is 4


def test_exp_sum_modulus_too_small():
    with pytest.raises(ValueError, match="modulus too small"):
        exp_sum_stats([0, 1], 1)


def test_exp_sum_magnitudes_against_direct_evaluation():
    rng = np.random.default_rng(11)
    for _ in range(25):
        k = int(rng.integers(1, 8))
        elems = sorted(rng.choice(50, size=k, replace=False).tolist())
        n = int(rng.integers(2, 40))
        stats = exp_sum_stats(elems, n)
        for r in range(1, n):
            direct = abs(sum(cmath.exp(2j * cmath.pi * r * a / n) for a in elems))
            assert stats.magnitudes[r - 1] == pytest.approx(direct, abs=1e-10)


def _direct_magnitude(elems, n, r):
    """|f_A(w^r)| summed term by term after exact integer angle reduction."""
    return abs(sum(cmath.exp(2j * cmath.pi * (r * a % n) / n) for a in elems))


def _rows_across_the_mirror(n):
    """Sampled r in 1..n-1, including every r next to where the half spectrum is mirrored."""
    joins = {1, n // 2, (n + 1) // 2, n - 1}
    near = {r + d for r in joins for d in (-1, 0, 1)}
    sampled = np.random.default_rng(n).integers(1, n, 64).tolist()
    return sorted(r for r in near | set(sampled) if 1 <= r < n)


def test_exp_sum_magnitudes_across_the_mirror():
    # Rohrbach's k = 400 basis at its covering radius (n = 40001, odd).
    basis = rohrbach_basis(400)
    n = n2(basis)
    stats = exp_sum_stats(basis, n)
    assert len(stats.magnitudes) == n - 1
    for r in _rows_across_the_mirror(n):
        direct = _direct_magnitude(basis, n, r)
        assert stats.magnitudes[r - 1] == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize(
    "elems, n",
    [
        ([0, 1, 3, 7, 12], 16),  # even n: r = n/2 is its own mirror
        ([0, 1, 3, 7, 12], 17),  # odd n
        ([0, 1, 3], 2),
        ([0, 1, 3], 3),
        ([0, 5, 10, 11, 23, 24], 5),  # elements >= n share residues
        ([0, 1, 2**62 - 3, 2**62 - 1], 7),  # near the size cap
        ([3, 2**61 + 5, 2**62 - 1], 1000003),
        # 8 residues: 8 (n//2 + 1) + n terms against DIRECT_TERMS = 65,536.
        ([0, 1, 3, 7, 12, 20, 30, 44], 13104),  # 65,528 terms: summed directly
        ([0, 1, 3, 7, 12, 20, 30, 44], 13106),  # 65,538 terms: the FFT
    ],
)
def test_exp_sum_fft_matches_direct_evaluation(elems, n):
    stats = exp_sum_stats(elems, n)
    assert len(stats.magnitudes) == n - 1
    for r in _rows_across_the_mirror(n):
        direct = _direct_magnitude(elems, n, r)
        assert stats.magnitudes[r - 1] == pytest.approx(direct, abs=1e-12)


def test_direct_terms_limit_is_inclusive(monkeypatch):
    # One residue: n//2 + 1 products plus the n roots.  n = 43690 makes
    # exactly DIRECT_TERMS terms, summed without numpy; n = 43691 makes one
    # more, which needs the FFT and so fails with numpy blocked.
    assert 43690 // 2 + 1 + 43690 == DIRECT_TERMS
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert len(exp_sum_stats([0], 43690).magnitudes) == 43689
    with pytest.raises(ImportError):
        exp_sum_stats([0], 43691)


def test_exp_sum_huge_elements_exact_reduction():
    # Angles survive elements near the size cap thanks to integer reduction.
    big = 2**61
    stats = exp_sum_stats([0, big + 1], 4)
    # big + 1 mod 4 = (2^61 + 1) mod 4 = 1, so f(w^r) = 1 + i^r
    assert stats.magnitudes[0] == pytest.approx(abs(1 + 1j), abs=1e-12)
    assert stats.magnitudes[1] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(bases)
@settings(max_examples=300, deadline=None)
def test_identity_exact(A):
    p = rep_profile(A)
    k = len(A)
    assert (k * k + k) // 2 == p.n + p.delta_total


@given(bases)
@settings(max_examples=300, deadline=None)
def test_covered_segment(A):
    s = set(sumset2(A))
    n = n2(A)
    assert all(j in s for j in range(n))
    assert n not in s
    assert n == brute_n2(A)


def test_n2_on_a_large_basis():
    # Rohrbach's k = 2000 basis covers [0, r^2] with r = 1000, exactly; the
    # brute-force oracle is too slow at this size, so the value is pinned.
    assert n2(rohrbach_basis(2000)) == 1000001


@given(bases_01)
@settings(max_examples=300, deadline=None)
def test_surplus_lower_bounds(A):
    p = rep_profile(A)
    stats = exp_sum_stats(A, p.n)
    assert p.delta_total >= stats.ell * (stats.ell + 1) / 2
    assert p.delta_total >= (stats.M**2 - len(A)) / 2 - 1e-9
    assert 2 * p.delta_total >= stats.L
    assert stats.L >= stats.ell**2
    assert 0.0 <= stats.M <= len(A) + 1e-9
    assert 0.0 <= stats.mu <= 1.0 + 1e-12


@given(bases, st.integers(0, 50))
@settings(max_examples=200, deadline=None)
def test_m2_translation_invariant(A, t):
    assert m2(as_basis(a + t for a in A)) == m2(A)


def test_n2_not_translation_invariant():
    assert n2([0, 1]) == 3
    assert n2([5, 6]) == 0

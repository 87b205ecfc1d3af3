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


bases = st.sets(st.integers(0, 200), min_size=1, max_size=12).map(Basis)


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
    assert (p.n, p.delta_total) == (5, 1)  # 2 = 0+2 = 1+1
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
        n = brute_n2(elems)
        counts = brute_rep_counts(elems)
        assert p.n == n
        assert p.delta_total == sum(r - 1 if j < n else r for j, r in counts.items())


# ---------------------------------------------------------------------------
# Basis validation
# ---------------------------------------------------------------------------


def test_basis_validation():
    with pytest.raises(ValueError, match="negative"):
        Basis((-1, 2))
    with pytest.raises(ValueError, match="duplicate"):
        Basis([1, 1, 2])
    with pytest.raises(ValueError, match="too large"):
        Basis((0, 2**62))
    assert Basis((3, 2)) == (2, 3)
    assert tuple(Basis([3, 0, 1])) == (0, 1, 3)
    # Floats and strings are rejected, never truncated or parsed.
    with pytest.raises(TypeError, match=r"^basis element 1\.7 is not an integer$"):
        Basis([0, 1.7, 2.9])
    with pytest.raises(TypeError, match=r"^basis element 1\.9 is not an integer$"):
        n2([0, 1.9])
    with pytest.raises(TypeError, match=r"^basis element 0\.5 is not an integer$"):
        rep_profile([0, 0.5])
    with pytest.raises(TypeError, match="basis element '3' is not an integer"):
        Basis(["3"])
    # numpy integers are accepted and stored as plain ints.
    basis = Basis(np.array([3, 0, 1]))
    assert basis == Basis((0, 1, 3))
    assert all(type(a) is int for a in basis)
    assert Basis(basis) is basis


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

    # Both thresholds are inclusive: 2 * 2 == 4 and 1 + 3 == 4 count.
    st = exp_sum_stats([0, 1, 2, 3], 4)
    assert (st.ell, st.L) == (2, 6)  # 2, 3; (1, 3), (2, 2), (2, 3), (3, 3) and swaps


def test_exp_sum_modulus_too_small():
    with pytest.raises(ValueError, match="modulus too small"):
        exp_sum_stats([0, 1], 1)


def _brute_M(elems, n):
    """max |f_A(w^r)| over every r = 1..n-1, summed term by term.

    Each angle r a mod n is reduced exactly (a mod n in Python integers,
    then r (a mod n) < n^2 <= 2^62 in int64), and no symmetry is used.
    """
    res = np.array([a % n for a in elems], dtype=np.int64)
    best = 0.0
    for lo in range(1, n, 4096):
        r = np.arange(lo, min(lo + 4096, n), dtype=np.int64)
        f = np.exp(2j * np.pi * (r[:, None] * res % n) / n).sum(axis=1)
        best = max(best, float(np.abs(f).max()))
    return best


def test_exp_sum_magnitudes_against_direct_evaluation():
    rng = np.random.default_rng(11)
    for _ in range(25):
        k = int(rng.integers(1, 8))
        elems = sorted(rng.choice(50, size=k, replace=False).tolist())
        n = int(rng.integers(2, 40))
        assert exp_sum_stats(elems, n).M == pytest.approx(_brute_M(elems, n), abs=1e-10)


def test_exp_sum_magnitudes_across_the_mirror():
    # Rohrbach's k = 400 basis at its covering radius (n = 40001, odd),
    # large enough for the FFT.
    basis = rohrbach_basis(400)
    n = n2(basis)
    stats = exp_sum_stats(basis, n)
    assert stats.M == pytest.approx(_brute_M(basis, n), abs=1e-9)
    assert stats.mu == stats.M / len(basis)


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
        ([0, 2], 4),  # |f| = 0, 2, 0: the only maximum is at r = n/2
    ],
)
def test_exp_sum_fft_matches_direct_evaluation(elems, n):
    stats = exp_sum_stats(elems, n)
    assert stats.M == pytest.approx(_brute_M(elems, n), abs=1e-12)


def test_direct_terms_limit_is_inclusive(monkeypatch):
    # One residue: n//2 + 1 products plus the n roots.  n = 43690 makes
    # exactly DIRECT_TERMS terms, summed without numpy; n = 43691 makes one
    # more, which needs the FFT and so fails with numpy blocked.
    assert 43690 // 2 + 1 + 43690 == DIRECT_TERMS
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert exp_sum_stats([0], 43690).M == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ImportError):
        exp_sum_stats([0], 43691)


def test_exp_sum_huge_elements_exact_reduction():
    # Angles survive elements near the size cap thanks to integer reduction.
    big = 2**61
    stats = exp_sum_stats([0, big + 1], 4)
    # big + 1 mod 4 = (2^61 + 1) mod 4 = 1, so f(w^r) = 1 + i^r, whose
    # magnitudes over r = 1, 2, 3 are sqrt 2, 0, sqrt 2.
    assert stats.M == pytest.approx(abs(1 + 1j), abs=1e-12)
    assert stats.M == pytest.approx(_brute_M([0, big + 1], 4), abs=1e-12)


def test_rep_profile_identity_catches_an_overlong_radius(monkeypatch):
    # n2 reporting one more than the covering radius claims a sum the
    # sumset lacks, which the pair identity detects.
    from additive_bases import sumsets

    true_n2 = sumsets.n2
    monkeypatch.setattr(sumsets, "n2", lambda a: true_n2(a) + 1)
    with pytest.raises(AssertionError, match="^pair-count identity violated$"):
        rep_profile(rohrbach_basis(10))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


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


@given(bases, st.integers(0, 50))
@settings(max_examples=200, deadline=None)
def test_m2_translation_invariant(A, t):
    assert m2(Basis(a + t for a in A)) == m2(A)


def test_n2_not_translation_invariant():
    assert n2([0, 1]) == 3
    assert n2([5, 6]) == 0

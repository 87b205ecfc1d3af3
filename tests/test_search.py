import itertools

import pytest

from additive_bases.constructions import rohrbach_basis
from additive_bases.search import n2k_exact
from additive_bases.sumsets import n2


def naive_n2k(k):
    """Full enumeration of all k-subsets of [0, k(k+1)/2 - 1].

    The trivial pair-count bound caps the optimum, so this range is
    exhaustive.  Only usable for small k.
    """
    cap = k * (k + 1) // 2
    best = 0
    witnesses = []
    for combo in itertools.combinations(range(cap), k):
        n = n2(combo)
        if n > best:
            best = n
            witnesses = [combo]
        elif n == best:
            witnesses.append(combo)
    return best, sorted(witnesses)


def test_small_cases_match_known_values():
    r1 = n2k_exact(1)
    assert (r1.n_best, [tuple(w) for w in r1.witnesses]) == (1, [(0,)])
    r2 = n2k_exact(2)
    assert (r2.n_best, [tuple(w) for w in r2.witnesses]) == (3, [(0, 1)])
    r3 = n2k_exact(3)
    assert r3.n_best == 5
    assert [tuple(w) for w in r3.witnesses] == [(0, 1, 2), (0, 1, 3)]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_matches_naive_enumeration(k):
    best, witnesses = naive_n2k(k)
    res = n2k_exact(k)
    assert res.n_best == best
    assert [tuple(w) for w in res.witnesses] == witnesses


def test_k4_value_and_witness():
    res = n2k_exact(4)
    assert res.n_best == 9
    assert (0, 1, 3, 4) in [tuple(w) for w in res.witnesses]


def test_witnesses_are_valid_and_canonical():
    for k in range(2, 13):
        res = n2k_exact(k)
        elems = [tuple(w) for w in res.witnesses]
        assert elems == sorted(elems)  # lexicographic, no duplicates
        for w in res.witnesses:
            assert len(w) == k
            assert 0 in w and 1 in w
            assert n2(w) == res.n_best
            assert max(w) <= res.n_best - 1
    # Pinned so that a weaker prune, or candidates tried smallest first,
    # fails here: the count is the prefixes entered plus the complete sets
    # the last slot evaluates.
    assert n2k_exact(10).nodes_explored == 4547


# n_best and the complete witness lists for k = 7..13, as the plain
# increasing-order search (no last-slot intersection) found them.  They
# agree with OEIS A001212 (two-stamp postage problem):
# n_best(k) = A001212(k - 1) + 1, and A001212(6..12) = 20, 26, 32, 40, 46, 54, 64.
EXTREMAL = {
    7: (21, [(0, 1, 2, 5, 8, 9, 10), (0, 1, 3, 4, 8, 9, 11), (0, 1, 3, 4, 9, 11, 16),
             (0, 1, 3, 5, 6, 13, 14), (0, 1, 3, 5, 7, 9, 10)]),
    8: (27, [(0, 1, 2, 5, 8, 11, 12, 13), (0, 1, 3, 4, 9, 10, 12, 13),
             (0, 1, 3, 5, 7, 8, 17, 18)]),
    9: (33, [(0, 1, 2, 5, 8, 11, 14, 15, 16), (0, 1, 3, 5, 7, 9, 10, 21, 22)]),
    10: (41, [(0, 1, 3, 4, 9, 11, 16, 17, 19, 20)]),
    11: (47, [(0, 1, 2, 3, 7, 11, 15, 19, 21, 22, 24), (0, 1, 2, 5, 7, 11, 15, 19, 21, 22, 24)]),
    12: (55, [(0, 1, 2, 3, 7, 11, 15, 19, 23, 25, 26, 28), (0, 1, 2, 5, 7, 11, 15, 19, 23, 25, 26, 28),
              (0, 1, 3, 4, 9, 11, 16, 18, 23, 24, 26, 27), (0, 1, 3, 5, 6, 13, 14, 21, 22, 24, 26, 27)]),
    13: (65, [(0, 1, 3, 4, 9, 11, 16, 21, 23, 28, 29, 31, 32)]),
}


@pytest.mark.parametrize("k", sorted(EXTREMAL))
def test_pinned_extremal_values_and_witnesses(k):
    res = n2k_exact(k)
    assert (res.n_best, [tuple(w) for w in res.witnesses]) == EXTREMAL[k]


def test_monotone_in_k():
    values = [n2k_exact(k).n_best for k in range(1, 8)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v <= k * (k + 1) // 2 for k, v in enumerate(values, start=1))


@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_construction_never_beats_optimum(k):
    assert n2(rohrbach_basis(k)) <= n2k_exact(k).n_best


def test_argument_validation():
    with pytest.raises(ValueError, match="too large"):
        n2k_exact(14)
    with pytest.raises(ValueError):
        n2k_exact(0)

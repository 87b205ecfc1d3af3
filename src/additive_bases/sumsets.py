"""Exact integer combinatorics for additive bases of order 2.

A basis here is a finite set A of nonnegative integers; its order-2
sumset is 2A = {a + a' : a, a' in A}.  The quantity of interest is the
covering radius

    n = max { m : [0, m-1] is contained in 2A },

the length of the initial segment of the nonnegative integers covered
by the sumset.

Conventions (both are needed; each field documents its own):
  * representation counts r(j) use unordered pairs a1 <= a2,
  * the pair count L uses ordered pairs (a1, a2) in A x A.

With k = |A| and n the covering radius, the surplus counts
delta(j) = r(j) - 1 on [0, n-1] and delta(j) = r(j) elsewhere satisfy
the exact integer identity

    (k^2 + k) / 2 = n + sum_j delta(j).

Exponential sums f_A(w^r) = sum_a w^(r a) at the m-th roots of unity
w = e^(2 pi i / m) are evaluated after exact integer angle reduction
(r * (a mod m)) mod m, so magnitudes are accurate to a few ulps even
for elements near the size limit.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

# Pairwise sums must stay well below the 2^63 signed boundary.
MAX_ELEMENT = 2**62


@dataclass(frozen=True)
class Basis:
    """A finite set of nonnegative integers, stored strictly increasing."""

    elements: tuple

    def __post_init__(self):
        prev = -1
        for a in self.elements:
            if not isinstance(a, int):
                raise TypeError(f"basis element {a!r} is not an integer")
            if a < 0:
                raise ValueError(f"negative element {a}")
            if a >= MAX_ELEMENT:
                raise ValueError(f"element {a} too large (limit 2^62)")
            if a <= prev:
                raise ValueError("elements must be strictly increasing")
            prev = a

    @property
    def k(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def translate(self, t: int) -> "Basis":
        """Shift every element by the integer t (result must stay >= 0)."""
        return Basis(tuple(a + t for a in self.elements))


def as_basis(a) -> Basis:
    """Coerce an iterable of distinct nonnegative integers into a Basis."""
    if isinstance(a, Basis):
        return a
    elems = sorted(int(x) for x in a)
    for u, v in zip(elems, elems[1:]):
        if u == v:
            raise ValueError(f"duplicate element {u}")
    return Basis(tuple(elems))


@dataclass(frozen=True)
class RepProfile:
    """Representation counts of a basis and their surplus over one-per-target.

    counts[j] is the number of unordered pairs a1 <= a2 with a1 + a2 = j,
    for every j in 2A.  delta[j] subtracts 1 inside [0, n-1] and keeps the
    full count elsewhere (zero entries omitted); delta_total is the sum of
    the surplus.
    """

    n: int
    counts: dict
    delta: dict
    delta_total: int


@dataclass(frozen=True)
class ExpSumStats:
    """Exponential-sum data for a basis at a fixed modulus n.

    magnitudes[r-1] = |f_A(w^r)| for r = 1..n-1, w = exp(2 pi i / n).
    M is the largest magnitude and mu = M / k.  ell counts elements with
    2a >= n (exact integer comparison); L counts ordered pairs
    (a1, a2) in A x A with a1 + a2 >= n.
    """

    n: int
    magnitudes: np.ndarray
    M: float
    mu: float
    ell: int
    L: int


def sumset2(a) -> list:
    """All pairwise sums a + a', sorted and deduplicated."""
    A = as_basis(a).elements
    out = set()
    for i, x in enumerate(A):
        for y in A[i:]:
            out.add(x + y)
    return sorted(out)


def n2(a) -> int:
    """Length of the initial segment [0, n-1] covered by the sumset.

    Returns 0 when 0 is not a pairwise sum (i.e. 0 not in A).
    """
    s = set(sumset2(a))
    n = 0
    while n in s:
        n += 1
    return n


def m2(a) -> int:
    """Length of the longest run of consecutive integers inside the sumset.

    Translation invariant, unlike the initial-segment radius.
    """
    A = as_basis(a)
    if A.k == 0:
        raise ValueError("empty basis")
    s = sumset2(A)
    best = run = 1
    for u, v in zip(s, s[1:]):
        run = run + 1 if v == u + 1 else 1
        best = max(best, run)
    return best


def rep_profile(a) -> RepProfile:
    """Count representations and their surplus; checks the pair identity.

    The exact identity (k^2 + k) / 2 = n + delta_total holds for every
    basis and is checked here, raising AssertionError if it fails.
    """
    A = as_basis(a)
    if A.k == 0:
        raise ValueError("empty basis")
    counts: dict = {}
    elems = A.elements
    for i, x in enumerate(elems):
        for y in elems[i:]:
            j = x + y
            counts[j] = counts.get(j, 0) + 1
    n = 0
    while counts.get(n, 0) >= 1:
        n += 1
    delta = {}
    for j, r in counts.items():
        d = r - 1 if j < n else r
        if d:
            delta[j] = d
    total = sum(delta.values())
    k = A.k
    if (k * k + k) // 2 != n + total:
        raise AssertionError("pair-count identity violated")
    return RepProfile(n=n, counts=counts, delta=delta, delta_total=total)


def exp_sum_stats(a, n: int) -> ExpSumStats:
    """Evaluate |f_A| at all nontrivial n-th roots of unity, plus tail counts.

    n also acts as the threshold for ell (elements with 2a >= n) and L
    (ordered pairs with a1 + a2 >= n).
    """
    A = as_basis(a)
    if n < 2:
        raise ValueError("modulus too small")
    if A.k == 0:
        raise ValueError("empty basis")
    # Exact reduction keeps r*a_mod inside int64 for any modulus we can
    # afford to iterate over anyway.
    if n > 2**31:
        raise ValueError("modulus too large for exact angle reduction")
    a_mod = np.array([x % n for x in A.elements], dtype=np.int64)
    mags = np.empty(n - 1)
    two_pi_over_n = 2.0 * np.pi / n
    chunk = max(1, (1 << 22) // max(1, A.k))
    for lo in range(1, n, chunk):
        r = np.arange(lo, min(n, lo + chunk), dtype=np.int64)
        theta = ((r[:, None] * a_mod[None, :]) % n) * two_pi_over_n
        mags[lo - 1 : lo - 1 + len(r)] = np.abs(np.exp(1j * theta).sum(axis=1))
    M = float(mags.max())
    ell = sum(1 for x in A.elements if 2 * x >= n)
    elems = A.elements
    L = sum(A.k - bisect.bisect_left(elems, n - x) for x in elems)
    return ExpSumStats(n=n, magnitudes=mags, M=M, mu=M / A.k, ell=ell, L=L)

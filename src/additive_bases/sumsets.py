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

Exponential sums f_A(w^r) = sum_a w^(r a) at the n-th roots of unity
w = e^(2 pi i / n) depend on A only through the residue counts
c_j = #{a : a = j mod n}, reduced exactly in Python integers.  With d
distinct residues, a spectrum of at most DIRECT_TERMS terms
(d (n//2 + 1) products plus the n-entry roots table) is summed directly
in pure Python, without importing numpy: 15 to 30 ms at the limit on
2 vCPUs, and well under 1 ms for a typed-in basis at its covering
radius, against about 0.15 s to import numpy.  Larger spectra take one
real FFT of the counts; its error is of order eps k log2(n), and on
Rohrbach's k = 400 and 2000 bases at their covering radii it stays
within 4 k eps of direct evaluation (eps the double precision unit).
"""

from __future__ import annotations

import bisect
from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from array import array

# Pairwise sums must stay well below the 2^63 signed boundary.
MAX_ELEMENT = 2**62
# Spectra of at most this many terms are summed directly.  At about
# 250 ns a term on 2 vCPUs the largest takes about 16 ms (30 ms when the
# roots table dominates), well under the import of numpy the FFT needs.
DIRECT_TERMS = 2**16
# The largest modulus of a spectrum; the limit is memory, not overflow:
# 2^31 counts and spectra would need tens of GB.
MAX_MODULUS = 2**31


class Basis(tuple):
    """A finite set of nonnegative integers, as a strictly increasing tuple.

    __new__ builds the tuple and validates it; copies and unpickling
    (pickle protocol 2 and up) go through __new__ too, by tuple's
    __getnewargs__.
    """

    __slots__ = ()

    def __new__(cls, elements):
        self = super().__new__(cls, elements)
        prev = -1
        for a in self:
            if not isinstance(a, int):
                raise TypeError(f"basis element {a!r} is not an integer")
            if a < 0:
                raise ValueError(f"negative element {a}")
            if a >= MAX_ELEMENT:
                raise ValueError(f"element {a} too large (limit 2^62)")
            if a <= prev:
                raise ValueError("elements must be strictly increasing")
            prev = a
        return self

    def __repr__(self):
        return f"Basis({tuple(self)!r})"


def as_basis(a) -> Basis:
    """Coerce an iterable of distinct nonnegative integers into a Basis."""
    if isinstance(a, Basis):
        return a
    elems = sorted(int(x) for x in a)
    for u, v in zip(elems, elems[1:]):
        if u == v:
            raise ValueError(f"duplicate element {u}")
    return Basis(elems)


class RepProfile(NamedTuple):
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


class ExpSumStats(NamedTuple):
    """Exponential-sum data for a basis at a fixed modulus n.

    magnitudes[r-1] = |f_A(w^r)| for r = 1..n-1, w = exp(2 pi i / n), as
    an array('d') whichever way exp_sum_stats evaluated them.
    M is the largest magnitude and mu = M / k.  ell counts elements with
    2a >= n (exact integer comparison); L counts ordered pairs
    (a1, a2) in A x A with a1 + a2 >= n.
    """

    n: int
    magnitudes: array
    M: float
    mu: float
    ell: int
    L: int


def sumset2(a) -> list:
    """All pairwise sums a + a', sorted and deduplicated."""
    A = as_basis(a)
    out = set()
    for i, x in enumerate(A):
        for y in A[i:]:
            out.add(x + y)
    return sorted(out)


def n2(a) -> int:
    """Length of the initial segment [0, n-1] covered by the sumset.

    Returns 0 when 0 is not a pairwise sum (i.e. 0 not in A).  A k-element
    basis has at most k(k+1)/2 pairwise sums, so n <= k(k+1)/2 and only the
    elements below that bound enter the bitset of sums.  Each element x adds
    its sums with the elements up to x: their bitset `prefix`, shifted by x.
    """
    A = as_basis(a)
    bound = len(A) * (len(A) + 1) // 2
    prefix = cover = 0
    for x in A:
        if x >= bound:
            break
        prefix |= 1 << x
        cover |= prefix << x
    return (~cover & (cover + 1)).bit_length() - 1  # the smallest uncovered value


def m2(a) -> int:
    """Length of the longest run of consecutive integers inside the sumset.

    Translation invariant, unlike the initial-segment radius.
    """
    A = as_basis(a)
    if not A:
        raise ValueError("empty basis")
    s = sumset2(A)
    best = run = 1
    for u, v in zip(s, s[1:]):
        run = run + 1 if v == u + 1 else 1
        best = max(best, run)
    return best


def rep_profile(a) -> RepProfile:
    """Count representations and their surplus; checks the pair identity.

    n comes from the bitset in `n2`, so the exact identity
    (k^2 + k) / 2 = n + delta_total cross-checks it against the counts:
    it holds only if every j < n has a representation.  A failure raises
    AssertionError.
    """
    A = as_basis(a)
    if not A:
        raise ValueError("empty basis")
    counts: dict = {}
    for i, x in enumerate(A):
        for y in A[i:]:
            j = x + y
            counts[j] = counts.get(j, 0) + 1
    n = n2(A)
    delta = {}
    for j, r in counts.items():
        d = r - 1 if j < n else r
        if d:
            delta[j] = d
    total = sum(delta.values())
    k = len(A)
    if (k * k + k) // 2 != n + total:
        raise AssertionError("pair-count identity violated")
    return RepProfile(n=n, counts=counts, delta=delta, delta_total=total)


def exp_sum_stats(a, n: int) -> ExpSumStats:
    """Evaluate |f_A| at all nontrivial n-th roots of unity, plus tail counts.

    The magnitudes for r = 1..n//2 come from the residue counts mod n,
    mirrored by |f_A(w^(n-r))| = |f_A(w^r)|.  With d distinct residues, a
    spectrum of d (n//2 + 1) + n <= DIRECT_TERMS terms sums
    c_j w^(r j mod n) term by term from a table of the n roots, in pure
    Python; a larger one takes numpy's real FFT of the counts.  n also
    acts as the threshold for ell (elements with 2a >= n) and L (ordered
    pairs with a1 + a2 >= n).
    """
    # Imported here: at the top these extension modules would add about
    # 0.1 MB to the peak RSS of every command, not only `basis stats`.
    import cmath
    from array import array

    A = as_basis(a)
    if n < 2:
        raise ValueError("modulus too small")
    if not A:
        raise ValueError("empty basis")
    if n > MAX_MODULUS:
        raise ValueError("modulus too large: the spectrum needs O(n) memory")
    residues = Counter(x % n for x in A)
    if len(residues) * (n // 2 + 1) + n <= DIRECT_TERMS:
        roots = [cmath.exp(2j * cmath.pi * m / n) for m in range(n)]
        terms = residues.items()
        half = [abs(sum(c * roots[r * j % n] for j, c in terms)) for r in range(1, n // 2 + 1)]
        mags = array("d", half + half[: (n - 1) // 2][::-1])
        M = max(mags)
    else:
        import numpy as np

        counts = np.bincount([x % n for x in A], minlength=n)
        half = np.abs(np.fft.rfft(counts))  # r = 0..n//2
        spectrum = np.concatenate((half[1:], half[1 : (n + 1) // 2][::-1]))
        M = float(spectrum.max())
        mags = array("d", spectrum.tobytes())
    k = len(A)
    ell = sum(1 for x in A if 2 * x >= n)
    L = sum(k - bisect.bisect_left(A, n - x) for x in A)
    return ExpSumStats(n=n, magnitudes=mags, M=M, mu=M / k, ell=ell, L=L)

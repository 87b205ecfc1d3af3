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

rep_profile returns n and that sum, and checks the identity.  Every
function reads its argument through Basis, the one constructor, which
sorts the elements and rejects anything that is not a set of
nonnegative integers below 2^62.

Exponential sums f_A(w^r) = sum_a w^(r a) at the n-th roots of unity
w = e^(2 pi i / n) depend on A only through the residue counts
c_j = #{a : a = j mod n}, reduced exactly in Python integers.
exp_sum_stats returns their largest magnitude M over r != 0, which the
symmetry |f_A(w^(n-r))| = |f_A(w^r)| lets it take over r <= n/2.  With d
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
import operator
from collections import Counter
from typing import NamedTuple

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

    __new__ takes any iterable of integers (numpy integers included, by
    operator.index; floats and strings fail), sorts it and rejects
    duplicates, negatives and elements of 2^62 and up.  A Basis passed in
    is returned as it is.  Copies and unpickling (pickle protocol 2 and
    up) go through __new__ too, by tuple's __getnewargs__.
    """

    __slots__ = ()

    def __new__(cls, elements):
        if isinstance(elements, cls):
            return elements
        elems = []
        for a in elements:
            try:
                i = operator.index(a)
            except TypeError:
                raise TypeError(f"basis element {a!r} is not an integer") from None
            elems.append(i)
        elems.sort()
        for u, v in zip(elems, elems[1:]):
            if u == v:
                raise ValueError(f"duplicate element {u}")
        for a in elems:
            if a < 0:
                raise ValueError(f"negative element {a}")
            if a >= MAX_ELEMENT:
                raise ValueError(f"element {a} too large (limit 2^62)")
        return super().__new__(cls, elems)

    def __repr__(self):
        return f"Basis({tuple(self)!r})"


class RepProfile(NamedTuple):
    """The covering radius n of a basis and its surplus over one-per-target.

    delta_total sums delta(j) over 2A: the representation count r(j)
    (unordered pairs a1 <= a2) minus 1 for j in [0, n-1], and r(j) itself
    elsewhere.
    """

    n: int
    delta_total: int


class ExpSumStats(NamedTuple):
    """Exponential-sum data for a basis at a fixed modulus n.

    M = max |f_A(w^r)| over r = 1..n-1, w = exp(2 pi i / n), and
    mu = M / k.  ell counts elements with 2a >= n (exact integer
    comparison); L counts ordered pairs (a1, a2) in A x A with
    a1 + a2 >= n.
    """

    n: int
    M: float
    mu: float
    ell: int
    L: int


def sumset2(a) -> list:
    """All pairwise sums a + a', sorted and deduplicated."""
    A = Basis(a)
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
    A = Basis(a)
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
    A = Basis(a)
    if not A:
        raise ValueError("empty basis")
    s = sumset2(A)
    best = run = 1
    for u, v in zip(s, s[1:]):
        run = run + 1 if v == u + 1 else 1
        best = max(best, run)
    return best


def rep_profile(a) -> RepProfile:
    """The covering radius and the surplus; checks the pair identity.

    The surplus is the k(k+1)/2 pairs less the distinct sums below n.  n
    comes from the bitset in `n2` and the sums from `sumset2`, so the
    exact identity (k^2 + k) / 2 = n + delta_total cross-checks the two:
    it holds only if every j < n is a sum.  A failure raises
    AssertionError.  An `n2` that returned too small a value would still
    satisfy the identity, since every j below it is a sum too.
    """
    A = Basis(a)
    if not A:
        raise ValueError("empty basis")
    n = n2(A)
    k = len(A)
    pairs = (k * k + k) // 2
    total = pairs - bisect.bisect_left(sumset2(A), n)
    if pairs != n + total:
        raise AssertionError("pair-count identity violated")
    return RepProfile(n=n, delta_total=total)


def exp_sum_stats(a, n: int) -> ExpSumStats:
    """The largest |f_A| at a nontrivial n-th root of unity, plus tail counts.

    M is taken over r = 1..n//2 only, since |f_A(w^(n-r))| = |f_A(w^r)|,
    from the residue counts mod n.  With d distinct residues, a spectrum
    of d (n//2 + 1) + n <= DIRECT_TERMS terms sums c_j w^(r j mod n) term
    by term from a table of the n roots, in pure Python; a larger one
    takes numpy's real FFT of the counts.  n also acts as the threshold
    for ell (elements with 2a >= n) and L (ordered pairs with
    a1 + a2 >= n).
    """
    # Imported here: at the top this extension module would add about
    # 0.1 MB to the peak RSS of every command, not only `basis stats`.
    import cmath

    A = Basis(a)
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
        M = max(abs(sum(c * roots[r * j % n] for j, c in terms)) for r in range(1, n // 2 + 1))
    else:
        import numpy as np

        counts = np.bincount([x % n for x in A], minlength=n)
        M = float(np.abs(np.fft.rfft(counts))[1:].max())  # r = 1..n//2
    k = len(A)
    ell = sum(1 for x in A if 2 * x >= n)
    L = sum(k - bisect.bisect_left(A, n - x) for x in A)
    return ExpSumStats(n=n, M=M, mu=M / k, ell=ell, L=L)

"""Exact extremal search: the largest segment coverable by a k-element basis.

For each k this computes

    n_best(k) = max { n2(A) : A subset of the nonnegative integers, |A| = k }

in one branch-and-bound pass over the k-sets inside [0, n2 - 1].  Covering
0 forces 0 into the set, and the search extends {0} by increasing
elements (covering 1 then forces 1, for k >= 2).  If c is the smallest
value the chosen prefix leaves uncovered, the next element x lies in
(max chosen, c]: either c = n2 and every element is below it, or c must
still be covered, while sums among chosen elements are fixed and sums
that use an element > c exceed c.

Conversely the bound keeps every element below the final n2.  Coverage
only grows, so n2 >= c; and when x = c, the sum x + 0 covers c, so
n2 > x.  The pass therefore enumerates exactly the k-sets inside
[0, n2 - 1] that contain {0, 1}, with no padding step.

One running target T starts at the trivially feasible 2k - 1 (witness
[0, k-1]).  A complete set with n2 > T raises T and clears the witness
list; one with n2 == T joins it.  Each node tries its candidates largest
first, so that T rises early, and prunes every child before calling it:
a child with j chosen elements and s slots left adds at most
s*j + s(s+1)/2 new sums, so it is dropped when too few sums remain to
cover [0, T-1]:

    popcount(cover & (2^T - 1)) + s*j + s(s+1)/2 < T.

The last slot is solved without recursion.  Its element x must make
every hole u < T a sum, u = x + a with a chosen or u = 2x, so x lies in
the intersection over the holes of {u - a} (plus u/2 for even u).  The
chosen set is also kept reversed, as `rev` with a at bit `top - a`, so
`rev >> (top - u)` is the bitset {u - a}; intersecting from the largest
hole down usually empties it within a few holes, and only the survivors
are evaluated.

Witnesses are reported in lexicographic order.  Coverage is a single
Python integer used as a bitset; when x joins the chosen bitset `mask`,
the sums extend by `(mask | 1<<x) << x`.
"""

from __future__ import annotations

from typing import NamedTuple

from .sumsets import Basis

# Past this the pure-Python search stops being a reasonable interactive tool.
MAX_EXACT_K = 13


class SearchResult(NamedTuple):
    k: int
    n_best: int
    witnesses: tuple
    nodes_explored: int


def n2k_exact(k: int) -> SearchResult:
    """Exact extremal value n_best(k) with the complete witness list.

    One depth-first pass whose target rises with each better set.
    `nodes_explored` counts the prefixes the pass enters (the root {0}
    and every child that passed the count prune) plus the complete sets
    whose coverage it computes (the last-slot survivors): 124,615 at
    k = 12, of which 13 are complete sets.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k > MAX_EXACT_K:
        raise ValueError("k too large for exact search")
    if k == 1:
        return SearchResult(1, 1, (Basis((0,)),), 1)

    target = 2 * k - 1
    found = []
    nodes = 0
    top = k * (k + 1) // 2  # above every element, since n2 <= k(k+1)/2

    def extend(chosen, mask, rev, cover):
        nonlocal target, nodes
        nodes += 1
        c = (~cover & (cover + 1)).bit_length() - 1  # smallest uncovered value
        last = chosen[-1]
        j = len(chosen)
        if j == k - 1:
            fits = (1 << (c + 1)) - (1 << (last + 1))  # x in (last, c]
            holes = ~cover & ((1 << target) - 1)
            while holes and fits:
                u = holes.bit_length() - 1
                holes ^= 1 << u
                fits &= (rev >> (top - u)) | (0 if u & 1 else 1 << (u >> 1))
            while fits:
                x = fits.bit_length() - 1
                fits ^= 1 << x
                nodes += 1
                full = cover | ((mask | (1 << x)) << x)
                n = (~full & (full + 1)).bit_length() - 1
                if n > target:
                    target = n
                    found.clear()
                if n == target:
                    found.append((*chosen, x))
            return
        s = k - j - 1  # slots each child leaves open
        room = s * (j + 1) + s * (s + 1) // 2
        low, need = (1 << target) - 1, target - room
        for x in range(c, last, -1):
            grown = mask | (1 << x)
            child = cover | (grown << x)
            if (child & low).bit_count() >= need:
                chosen.append(x)
                extend(chosen, grown, rev | (1 << (top - x)), child)
                chosen.pop()
                low, need = (1 << target) - 1, target - room

    extend([0], 1, 1 << top, 1)  # {0} covers 0
    witnesses = tuple(Basis(w) for w in sorted(found))
    return SearchResult(k, target, witnesses, nodes)

"""Exact extremal search: the largest segment coverable by a k-element basis.

For each k this computes

    n_best(k) = max { n2(A) : A subset of the nonnegative integers, |A| = k }

in one branch-and-bound pass over the k-sets inside [0, n2 - 1].  Covering
0 and 1 forces 0 and 1 into the set (k >= 2), so the search extends {0, 1}
by increasing elements.  If c is the smallest value the chosen prefix
leaves uncovered, the next element x lies in (max chosen, c]: either
c = n2 and every element is below it, or c must still be covered, while
sums among chosen elements are fixed and sums that use an element > c
exceed c.

Conversely the bound keeps every element below the final n2.  Coverage
only grows, so n2 >= c; and when x = c, the sum x + 0 covers c, so
n2 > x.  The pass therefore enumerates exactly the k-sets inside
[0, n2 - 1] that contain {0, 1}, with no padding step.

One running target T starts at the trivially feasible 2k - 1 (witness
[0, k-1]).  A leaf with n2 = c > T raises T to c and clears the witness
list; a leaf with c == T joins it.  An inner node with j chosen elements
and s slots left adds at most s*j + s(s+1)/2 new sums, so it is pruned
when too few sums remain to cover [0, T-1]:

    popcount(cover & (2^T - 1)) + s*j + s(s+1)/2 < T.

Witnesses are reported in lexicographic order.  Coverage is a single
Python integer used as a bitset; when x joins the chosen bitset `mask`,
the sums extend by `(mask | 1<<x) << x`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sumsets import Basis

# Past this the pure-Python search stops being a reasonable interactive tool.
MAX_EXACT_K = 12


@dataclass(frozen=True)
class SearchResult:
    k: int
    n_best: int
    witnesses: tuple
    nodes_explored: int


def n2k_exact(k: int) -> SearchResult:
    """Exact extremal value n_best(k) with the complete witness list.

    One depth-first pass whose target rises with each better leaf; at
    k = MAX_EXACT_K it visits about 1.06 million nodes.
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

    def extend(chosen, mask, cover):
        nonlocal target, nodes
        nodes += 1
        c = (~cover & (cover + 1)).bit_length() - 1  # smallest uncovered value
        j = len(chosen)
        if j == k:
            if c > target:
                target = c
                found.clear()
            if c == target:
                found.append(tuple(chosen))
            return
        s = k - j
        if (cover & ((1 << target) - 1)).bit_count() + s * j + s * (s + 1) // 2 < target:
            return
        for x in range(chosen[-1] + 1, c + 1):
            grown = mask | (1 << x)
            chosen.append(x)
            extend(chosen, grown, cover | (grown << x))
            chosen.pop()

    extend([0, 1], 0b11, 0b111)  # sums of {0, 1}: 0, 1, 2
    witnesses = tuple(Basis(w) for w in sorted(found))
    return SearchResult(k, target, witnesses, nodes)

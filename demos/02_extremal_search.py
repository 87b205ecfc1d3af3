"""Exact extremal values n_best(k) for small k, with all witnesses.

Every candidate contains {0, 1}, and the search adds elements in
increasing order, each next element at most the smallest uncovered
value; that bound restricts elements to [0, n-1].  At each slot it tries
the largest element first, so its target n rises early, and it drops a
child when too few sums remain possible to cover [0, n-1].  The last
element must cover every remaining hole, so it is found by intersecting
bitsets rather than by trying each value.  The witness lists are
provably complete.
"""

from additive_bases.search import n2k_exact
from additive_bases.sumsets import n2

print(" k   n_best   witnesses (complete list)            nodes")
for k in range(1, 9):
    res = n2k_exact(k)
    shown = ", ".join("{" + ",".join(map(str, w)) + "}" for w in res.witnesses)
    print(f"{k:2d}   {res.n_best:5d}    {shown:40s} {res.nodes_explored}")

# Certificates are cheap to check independently of the search.
res = n2k_exact(5)
best = res.witnesses[0]
print(f"\nwitness {tuple(best)} for k=5:")
print(f"  recomputed n(2,A) = {n2(best)}")
for claimed in (res.n_best, res.n_best + 1):
    print(f"  n(2,A) >= {claimed} -> {n2(best) >= claimed}")

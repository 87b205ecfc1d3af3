"""Classical lower-bound constructions for order-2 bases.

Rohrbach's set with r = floor(k/2),

    A = {0, 1, ..., r}. union .{2r, 3r, ..., (r-1)r},

has 2r - 1 <= k elements and its sumset covers [0, r^2]: write
j = q*r + p with 0 <= p < r and q <= r - 1, both summands lie in A,
and r^2 itself is (r-1)r + r.  Hence n2(A) >= r^2 + 1, which gives the
asymptotic lower bound n_best(k) >= k^2/4 + O(k).  Mrose's sharper
constant 2/7 comes from a construction that is out of scope here.
"""

from __future__ import annotations

from fractions import Fraction

from .sumsets import Basis


def rohrbach_basis(k: int) -> Basis:
    """The 2*floor(k/2) - 1 element set whose sumset covers [0, floor(k/2)^2].

    Degenerate below k = 4 (r = floor(k/2) must be at least 2).
    """
    if k < 4:
        raise ValueError("construction degenerate for k < 4")
    r = k // 2
    elems = list(range(r + 1)) + [j * r for j in range(2, r)]
    return Basis(elems)


def lower_bound_coefficient(k: int) -> Fraction:
    """(r^2 + 1) / k^2 with r = floor(k/2), exactly; tends to 1/4."""
    if k < 4:
        raise ValueError("construction degenerate for k < 4")
    r = k // 2
    return Fraction(r * r + 1, k * k)

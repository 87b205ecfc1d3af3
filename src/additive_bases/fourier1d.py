"""The one-variable Fourier bound 1/2 - 1/98, derived in exact rationals.

A 1-periodic test function with absolutely summable coefficients turns
exponential-sum estimates into a lower bound on the representation
surplus: if phi >= alpha1 on [0, 1/2) and phi >= alpha2 on [1/2, 1),
and S is the total coefficient weight at nonzero frequencies, then with
lam = ell/k the surplus per k^2 is at least

    c = inf_{lam in [0,1]} max( lam^2 / 2,
                                (max(alpha1 - (alpha1 - alpha2) lam, 0) / S)^2 / 2 )

and the covering radius obeys n <= (1/2 - c) k^2 + O(k).  The first
branch rises and the second falls, so the infimum sits where they cross.

The classical choice is a2 cos(4 pi t) + b1 sin(2 pi t) with a2 = 1/2,
b1 = 1; it has no constant term, which keeps the aliasing sum zero once
the modulus exceeds the coefficient support.  With s = sin(2 pi t) it
equals b1 s + a2 (1 - 2 s^2), concave in s, and s sweeps [0, 1] on the
first half-period and [-1, 0] on the second, so each bound is the
smaller value at the two ends: alpha1 = 1/2, alpha2 = -3/2, S = 3/2.
The branches cross at lam = 1/7, giving c = 1/98 and the coefficient
1/2 - 1/98 = 24/49, reported rounded up as 0.4898.  Every step is an
exact Fraction; nothing here rounds.
"""

from __future__ import annotations

from fractions import Fraction

# The classical test function's coefficients of cos(4 pi t) and sin(2 pi t).
MOSER_A2, MOSER_B1 = Fraction(1, 2), Fraction(1)


def moser_bounds():
    """(alpha1, alpha2, S) of the classical function, exactly.

    At s = sin(2 pi t) the function is b1 s + a2 (1 - 2 s^2), concave in s
    since a2 > 0, so its minimum over s in [0, 1] (the half-period [0, 1/2))
    or s in [-1, 0] (the half-period [1/2, 1)) is at an end of the range.
    """

    def value(s):
        return MOSER_B1 * s + MOSER_A2 * (1 - 2 * s * s)

    alpha1 = min(value(s) for s in (0, 1))
    alpha2 = min(value(s) for s in (-1, 0))
    return alpha1, alpha2, abs(MOSER_A2) + abs(MOSER_B1)


def balance_fraction(alpha1, alpha2, S) -> Fraction:
    """The lam in [0, 1] where the two branches of the surplus bound cross.

    Solves lam = (alpha1 - (alpha1 - alpha2) lam) / S, clamped to [0, 1]:
    for alpha1 <= 0 the analytic branch vanishes and lam = 0.  1/7 for the
    classical function.
    """
    alpha1, alpha2, S = Fraction(alpha1), Fraction(alpha2), Fraction(S)
    if not alpha1 > alpha2:
        raise ValueError("no separation")
    if S <= 0:
        raise ValueError("empty coefficient support")
    return min(max(alpha1 / (S + alpha1 - alpha2), Fraction(0)), Fraction(1))


def one_var_bound(alpha1, alpha2, S) -> Fraction:
    """Upper-bound coefficient 1/2 - c, exactly: c = lam^2 / 2 at the crossing."""
    lam = balance_fraction(alpha1, alpha2, S)
    return (1 - lam * lam) / 2

"""One-variable Fourier test functions and the 0.4898 upper-bound constant.

A 1-periodic test function with absolutely summable coefficients turns
exponential-sum estimates into a lower bound on the representation
surplus: if phi >= alpha1 on [0, 1/2) and phi >= alpha2 on [1/2, 1),
and S is the total coefficient weight at nonzero frequencies, then with
lam = ell/k the surplus per k^2 is at least

    c = inf_{lam in [0,1]} max( lam^2 / 2,
                                (max(alpha1 - (alpha1 - alpha2) lam, 0) / S)^2 / 2 )

and the covering radius obeys n <= (1/2 - c) k^2 + O(k).  The classical
choice cos(4 pi t)/2 + sin(2 pi t) has S = 3/2, alpha1 = 1/2,
alpha2 = -3/2; the two branches balance at lam = 1/7 and give c = 1/98,
i.e. the coefficient 1/2 - 1/98 = 0.48979..., reported rounded up as
0.4898.

The zero-frequency cosine weight must vanish (no constant term), which
keeps the aliasing sum C zero once the modulus exceeds the coefficient
support.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TestFunction1D:
    """Finite cosine/sine coefficient lists indexed by frequency.

    cos_coeffs[r] multiplies cos(2 pi r t); sin_coeffs[r] multiplies
    sin(2 pi r t) (index 0 is a placeholder and must be zero).  alpha1
    and alpha2 are certified lower bounds of the function on [0, 1/2)
    and [1/2, 1).
    """

    cos_coeffs: tuple
    sin_coeffs: tuple
    alpha1: float
    alpha2: float

    __test__ = False  # not a pytest class despite the name

    def __post_init__(self):
        if self.sin_coeffs and self.sin_coeffs[0] != 0.0:
            raise ValueError("sine coefficient at frequency 0 is meaningless")

    def __call__(self, t):
        import numpy as np

        t = np.mod(np.asarray(t, dtype=float), 1.0)
        out = np.zeros_like(t)
        for r, a in enumerate(self.cos_coeffs):
            if a:
                out += a * np.cos(2.0 * np.pi * r * t)
        for r, b in enumerate(self.sin_coeffs):
            if b:
                out += b * np.sin(2.0 * np.pi * r * t)
        return float(out) if out.ndim == 0 else out

    def weight_sum(self) -> float:
        """Total coefficient weight S at nonzero frequencies."""
        return sum(abs(a) for a in self.cos_coeffs[1:]) + sum(
            abs(b) for b in self.sin_coeffs[1:]
        )


def moser_test_function() -> TestFunction1D:
    """The classical instance cos(4 pi t) / 2 + sin(2 pi t): a_2 = 1/2, b_1 = 1.

    Bounded below by 1/2 on [0, 1/2) and by -3/2 on [1/2, 1); the minimum
    -3/2 is attained at t = 3/4.
    """
    return TestFunction1D(
        cos_coeffs=(0.0, 0.0, 0.5),
        sin_coeffs=(0.0, 1.0),
        alpha1=0.5,
        alpha2=-1.5,
    )


def moser_constant():
    """(c, coefficient) = (1/98, 1/2 - 1/98) for the classical instance."""
    c = 1.0 / 98.0
    return c, 0.5 - c


def ternary_argmin(f, lo: float, hi: float) -> float:
    """Midpoint of the final bracket of a ternary search for the minimum
    of a unimodal f on [lo, hi], narrowed until it is at most 1e-14 wide.
    """
    while hi - lo > 1e-14:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


def one_var_bound(f: TestFunction1D) -> float:
    """Upper-bound coefficient 1/2 - c produced by a one-variable function.

    The adversarial fraction lam = ell/k is optimized by ternary search on
    the unimodal max of the decreasing analytic branch and the increasing
    combinatorial branch; the inner value is clamped at zero when the
    analytic estimate changes sign.  Requires alpha1 > alpha2 and a
    vanishing constant term (aliasing weight zero for large moduli).
    """
    if not f.alpha1 > f.alpha2:
        raise ValueError("no separation")
    if f.cos_coeffs and f.cos_coeffs[0] != 0.0:
        raise ValueError("constant term must vanish")
    S = f.weight_sum()
    if S <= 0.0:
        raise ValueError("empty coefficient support")

    a1, a2 = f.alpha1, f.alpha2

    def worst(lam):
        analytic = max(a1 - (a1 - a2) * lam, 0.0) / S
        return max(lam * lam / 2.0, analytic * analytic / 2.0)

    return 0.5 - worst(ternary_argmin(worst, 0.0, 1.0))


def balance_fraction(f: TestFunction1D) -> float:
    """The lam where the two branches of the surplus bound cross.

    Solves lam = (alpha1 - (alpha1 - alpha2) lam) / S on the branch where
    the analytic estimate is positive; 1/7 for the classical instance.
    """
    if not f.alpha1 > f.alpha2:
        raise ValueError("no separation")
    S = f.weight_sum()
    lam = f.alpha1 / (S + f.alpha1 - f.alpha2)
    return min(max(lam, 0.0), 1.0)


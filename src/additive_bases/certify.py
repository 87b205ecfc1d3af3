"""End-to-end certification of the quadratic upper-bound coefficient.

Given certified enclosures of the axial and main coefficient sums, the
final coefficient comes from the positive root xi of

    kappa xi^2 + tau xi - 1 = 0,
    kappa = 1 - alpha2 + C_main  (>= 3),    tau = C_axial  (>= 2),

through rho = xi^2 and coefficient = (1 - rho) / 2.  The root is
evaluated in the cancellation-free form xi = 2 / (tau + sqrt(tau^2 +
4 kappa)) and is strictly decreasing in both arguments, so the interval
enclosures propagate to a certified lower bound on rho in two ways:

  corner route:  rho at the pessimal corner (kappa_hi, tau_hi);
  lemma route:   rho at fixed anchors (kappa0, tau0), reduced by the
                 root-variation bound |kappa - kappa0|/54 +
                 |tau - tau0|/18, valid throughout the regime
                 kappa >= 3, tau >= 2.

The test suite proves the lemma in sympy, in one test
(test_certify.py::test_variation_lemma_constants_are_the_largest_slopes):
xi falls in both arguments, so xi <= xi(3, 2) = 1/3 over the regime, and
|d rho/d kappa| = 2 xi^3/S and |d rho/d tau| = 2 xi^2/S, with S =
sqrt(tau^2 + 4 kappa), fall in both too, to 1/54 and 1/18 at (3, 2).

The chain runs in exact rationals; its two irrational steps (2^(-5/3)
in alpha2, the square root in xi) and each float it reports go through
directed_root, to the nearest float on the safe side.  The lemma route
bounds rho from below over the whole box, so certify raises if it
exceeds an upper bound on the corner value.  The reported coefficient is
(1 - rho_lower)/2 rounded up at the fourth decimal, which absorbs the
arbitrarily small epsilon of the underlying asymptotic argument.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .fourier2d import ConstantInterval

# Anchor constants for the lemma route.
KAPPA0 = 9.48617
TAU0 = 2.90289

# Reference values the certified pipeline must reproduce.
REF_AXIAL = (2.90278, 2.90289)
REF_MAIN = (4.75145, 4.76146)
REF_RHO0 = 0.04240
REF_RHO_FLOOR = 0.0422
REF_COEFFICIENT = 0.4789
REF_CORNER_COEFFICIENT = 0.4788


class BoundCertificate(NamedTuple):
    alpha1: float
    alpha2: float
    c_axial: ConstantInterval
    c_main: ConstantInterval
    kappa: tuple
    tau: tuple
    rho_lower: float
    coefficient_upper: float
    route: str

    def to_json_dict(self) -> dict:
        """The fixed serialization schema (insertion order is the order)."""
        return {
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "c_axial": {"lo": self.c_axial.lo, "hi": self.c_axial.hi, "N": self.c_axial.N},
            "c_main": {"lo": self.c_main.lo, "hi": self.c_main.hi, "N": self.c_main.N},
            "kappa": {"lo": self.kappa[0], "hi": self.kappa[1]},
            "tau": {"lo": self.tau[0], "hi": self.tau[1]},
            "rho_lower": self.rho_lower,
            "coefficient_upper": self.coefficient_upper,
            "route": self.route,
        }


def _xi(kappa, tau, up: bool = False) -> Fraction:
    """Positive root of kappa x^2 + tau x - 1 = 0, cancellation-free, as an exact
    rational below it (above it if up): only the square root rounds, the other way."""
    kappa, tau = Fraction(kappa), Fraction(tau)
    return 2 / (tau + Fraction(directed_root(tau * tau + 4 * kappa, not up, k=2)))


def rho_from(kappa, tau, up: bool = False) -> float:
    """rho = xi^2 at one (kappa, tau) of the certified regime, as a float below it (above if up)."""
    if kappa < 3 or tau < 2:
        raise ValueError("outside lemma regime")
    return directed_root(_xi(kappa, tau, up) ** 2, up)


def rho_variation_bound(kappa, kappa0, tau, tau0) -> Fraction:
    """|rho - rho0| <= |kappa - kappa0| / 54 + |tau - tau0| / 18, exactly; valid
    whenever both points satisfy kappa >= 3 and tau >= 2."""
    if min(kappa, kappa0) < 3 or min(tau, tau0) < 2:
        raise ValueError("outside lemma regime")
    return abs(Fraction(kappa) - Fraction(kappa0)) / 54 + abs(Fraction(tau) - Fraction(tau0)) / 18


def directed_root(q, up: bool, k: int = 1) -> float:
    """The float nearest q^(1/k) on the safe side: never below it if up, never above
    it else (q rational, q >= 0 for k > 1).  From the float estimate it steps one
    float at a time onto the safe side, then as near the root as that side allows."""
    q, toward = Fraction(q), math.inf if up else -math.inf

    def reached(x):  # compares sgn(x) |x|^k, which rises over all floats, with q
        p = Fraction(x) ** k if x >= 0 else -Fraction(-x) ** k
        return p >= q if up else p <= q

    f = float(q) ** (1 / k)
    while not reached(f):
        f = math.nextafter(f, toward)
    while reached(g := math.nextafter(f, -toward)):
        f = g
    return f


def ceil4(x) -> float:
    """Round up at the 4th decimal, exactly: the result is never below x."""
    return math.ceil(Fraction(x) * 10000) / 10000


def certify(
    c_axial: ConstantInterval,
    c_main: ConstantInterval,
    route: str = "corner",
) -> BoundCertificate:
    """Produce the final upper-bound certificate from the two enclosures.

    route="corner" evaluates rho at the pessimal corner of the
    (kappa, tau) box; route="lemma" uses the anchor constants plus the
    root-variation bound (the route the reported headline constant comes
    from).  Both are computed and cross-checked either way.
    """
    if route not in ("corner", "lemma"):
        raise ValueError(f"unknown route {route!r}")
    from .fourier2d import alpha2_exact

    # 1 - alpha2 = 15 t rises with t = 2^(-5/3), so each end takes t rounded its way.
    t_end = {up: Fraction(directed_root(Fraction(1, 32), up, k=3)) for up in (False, True)}
    kappa = tuple(directed_root(1 - alpha2_exact(t_end[up]) + Fraction(c), up)
                  for c, up in ((c_main.lo, False), (c_main.hi, True)))
    tau = (c_axial.lo, c_axial.hi)
    if kappa[0] < 3 or tau[0] < 2:
        raise ValueError("cannot certify: intervals leave the lemma regime")

    # The bound is convex in (kappa, tau), so a box corner attains its maximum.
    deviation = max(rho_variation_bound(k, KAPPA0, t, TAU0) for k in kappa for t in tau)
    rho_lemma = directed_root(Fraction(rho_from(KAPPA0, TAU0)) - deviation, up=False)
    # The anchor-based bound holds over the whole box, so it can never
    # beat the corner value; a violation would mean a bug in one route.
    if rho_lemma > rho_from(kappa[1], tau[1], up=True):
        raise AssertionError("route disagreement: lemma bound exceeds corner value")

    rho_lower = rho_from(kappa[1], tau[1]) if route == "corner" else rho_lemma
    return BoundCertificate(
        alpha1=1.0,
        alpha2=alpha2_exact(),
        c_axial=c_axial,
        c_main=c_main,
        kappa=kappa,
        tau=tau,
        rho_lower=rho_lower,
        coefficient_upper=ceil4((1 - Fraction(rho_lower)) / 2),
        route=route,
    )

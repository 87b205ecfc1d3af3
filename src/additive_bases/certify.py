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
                 kappa >= 3, tau >= 2 where |d xi/d kappa| <= 1/36,
                 |d xi/d tau| <= 1/12 and xi <= 1/3.

The lemma route can never exceed the corner route (it bounds rho from
below over the whole box), and the two agreeing within the variation
bound is asserted as a sanity check.  The reported coefficient is
(1 - rho_lower)/2 rounded up at the fourth decimal, which absorbs the
arbitrarily small epsilon of the underlying asymptotic argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fourier2d import ConstantInterval, alpha2_exact

# Anchor constants for the lemma route and the historical comparison value.
KAPPA0 = 9.48617
TAU0 = 2.90289
KLOTZ_COEFFICIENT = 0.4802


@dataclass(frozen=True)
class BoundCertificate:
    alpha1: float
    alpha2: float
    c_axial: ConstantInterval
    c_main: ConstantInterval
    kappa: tuple
    tau: tuple
    xi: tuple
    rho_lower: float
    epsilon_note: str
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


def _xi(kappa: float, tau: float) -> float:
    """Positive root of kappa x^2 + tau x - 1 = 0, cancellation-free form."""
    return 2.0 / (tau + math.sqrt(tau * tau + 4.0 * kappa))


def rho_from(kappa: float, tau: float) -> float:
    """rho = xi^2 at a single (kappa, tau) inside the certified regime."""
    if kappa < 3.0 or tau < 2.0:
        raise ValueError("outside lemma regime")
    x = _xi(kappa, tau)
    return x * x


def rho_variation_bound(kappa: float, kappa0: float, tau: float, tau0: float) -> float:
    """|rho - rho0| <= |kappa - kappa0| / 54 + |tau - tau0| / 18.

    Valid whenever both points satisfy kappa >= 3 and tau >= 2.
    """
    if min(kappa, kappa0) < 3.0 or min(tau, tau0) < 2.0:
        raise ValueError("outside lemma regime")
    return abs(kappa - kappa0) / 54.0 + abs(tau - tau0) / 18.0


def ceil4(x: float) -> float:
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
    a1 = 1.0
    a2 = alpha2_exact()
    kappa = (1.0 - a2 + c_main.lo, 1.0 - a2 + c_main.hi)
    tau = (c_axial.lo, c_axial.hi)
    if kappa[0] < 3.0 or tau[0] < 2.0:
        raise ValueError("cannot certify: intervals leave the lemma regime")

    rho_corner = rho_from(kappa[1], tau[1])
    # Worst deviation of any box point from the anchors feeds the lemma.
    dev_kappa = max(abs(kappa[0] - KAPPA0), abs(kappa[1] - KAPPA0))
    dev_tau = max(abs(tau[0] - TAU0), abs(tau[1] - TAU0))
    rho_lemma = rho_from(KAPPA0, TAU0) - (dev_kappa / 54.0 + dev_tau / 18.0)

    # The anchor-based bound holds over the whole box, so it can never
    # beat the corner value; a violation would mean a bug in one route.
    if rho_lemma > rho_corner + 1e-12:
        raise AssertionError("route disagreement: lemma bound exceeds corner value")

    rho_lower = rho_corner if route == "corner" else rho_lemma
    xi_interval = (_xi(kappa[1], tau[1]), _xi(kappa[0], tau[0]))
    return BoundCertificate(
        alpha1=a1,
        alpha2=a2,
        c_axial=c_axial,
        c_main=c_main,
        kappa=kappa,
        tau=tau,
        xi=xi_interval,
        rho_lower=rho_lower,
        epsilon_note="arbitrarily small epsilon absorbed by rounding the "
        "coefficient up at the 4th decimal",
        coefficient_upper=ceil4((1.0 - rho_lower) / 2.0),
        route=route,
    )

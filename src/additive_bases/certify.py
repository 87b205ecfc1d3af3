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
below over the whole box); certify raises if it does by more than 1e-12,
as a check on both routes.  The reported coefficient is
(1 - rho_lower)/2 rounded up at the fourth decimal, which absorbs the
arbitrarily small epsilon of the underlying asymptotic argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .fourier2d import ConstantInterval

# Anchor constants for the lemma route and the historical comparison value.
KAPPA0 = 9.48617
TAU0 = 2.90289
KLOTZ_COEFFICIENT = 0.4802

# Reference values the certified pipeline must reproduce.
REF_AXIAL = (2.90278, 2.90289)
REF_MAIN = (4.75145, 4.76146)
REF_RHO0 = 0.04240
REF_RHO_FLOOR = 0.0422
REF_COEFFICIENT = 0.4789


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
    from .fourier2d import alpha2_exact

    a1 = 1.0
    a2 = alpha2_exact()
    kappa = (1.0 - a2 + c_main.lo, 1.0 - a2 + c_main.hi)
    tau = (c_axial.lo, c_axial.hi)
    if kappa[0] < 3.0 or tau[0] < 2.0:
        raise ValueError("cannot certify: intervals leave the lemma regime")

    rho_corner = rho_from(kappa[1], tau[1])
    # The box ends farthest from the anchors bound every box point's deviation.
    far_kappa = max(kappa, key=lambda k: abs(k - KAPPA0))
    far_tau = max(tau, key=lambda t: abs(t - TAU0))
    rho_lemma = rho_from(KAPPA0, TAU0) - rho_variation_bound(far_kappa, KAPPA0, far_tau, TAU0)

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
        coefficient_upper=ceil4((1.0 - rho_lower) / 2.0),
        route=route,
    )

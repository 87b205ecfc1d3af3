import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from additive_bases.certify import (
    KAPPA0,
    TAU0,
    _xi,
    alpha2_bound,
    alpha2_exact,
    ceil4,
    certify,
    directed_root,
    rho_from,
    rho_variation_bound,
)
from additive_bases.fourier2d import ConstantInterval


def test_rho_at_regime_corner():
    # kappa = 3, tau = 2: xi = (-2 + 4) / 6 = 1/3
    assert rho_from(3.0, 2.0) == pytest.approx(1.0 / 9.0, abs=1e-15)


@given(st.fractions(3, 50, max_denominator=10**6), st.fractions(2, 20, max_denominator=10**6))
def test_xi_and_rho_from_round_each_way(kappa, tau):
    # _xi brackets the root of kappa x^2 + tau x - 1, which rises for x > 0,
    # and rho_from rounds the square of each end its own way.
    lo, hi = _xi(kappa, tau), _xi(kappa, tau, up=True)
    assert kappa * lo**2 + tau * lo - 1 <= 0 <= kappa * hi**2 + tau * hi - 1
    assert Fraction(rho_from(kappa, tau)) <= lo**2
    assert hi**2 <= Fraction(rho_from(kappa, tau, up=True))


def test_rho_regime_guard():
    with pytest.raises(ValueError, match="outside lemma regime"):
        rho_from(2.9, 2.5)
    with pytest.raises(ValueError, match="outside lemma regime"):
        rho_from(3.5, 1.9)


def test_variation_bound_examples():
    assert rho_variation_bound(5.0, 5.0, 3.0, 3.0) == 0.0
    # certified deviations of the two-variable pipeline
    bound = rho_variation_bound(KAPPA0 - 0.01002, KAPPA0, TAU0 - 0.00011, TAU0)
    assert bound < 0.0002


def test_variation_bound_regime_guard():
    # Each of the four arguments alone below the regime is refused.
    for args in ((2, 5, 3, 3), (5, 2, 3, 3), (5, 5, 1.9, 3), (5, 5, 3, 1.9)):
        with pytest.raises(ValueError, match="outside lemma regime"):
            rho_variation_bound(*args)


def test_variation_lemma_constants_are_the_largest_slopes():
    # The root-variation lemma, proved.  xi = 2 / (tau + S), S = sqrt(tau^2 +
    # 4 kappa), is the positive root of kappa x^2 + tau x - 1; at (3, 2) it is
    # 1/3, and so is _xi, rounded either way.  It falls in kappa and in tau,
    # so xi <= 1/3 over the regime kappa >= 3, tau >= 2.  rho = xi^2 has
    #   d rho / d kappa = -2 xi^3 / S,    d rho / d tau = -2 xi^2 / S.
    # Both magnitudes fall in kappa and in tau, so over the regime they are
    # largest at (3, 2), where they are exactly 1/54 and 1/18: the slopes
    # rho_variation_bound charges.
    kappa, tau = sympy.symbols("kappa tau", positive=True)
    S = sympy.sqrt(tau**2 + 4 * kappa)
    xi = 2 / (tau + S)
    assert sympy.simplify(kappa * xi**2 + tau * xi - 1) == 0
    assert all(sympy.diff(xi, w).is_negative for w in (kappa, tau))
    assert xi.subs({kappa: 3, tau: 2}) == sympy.Rational(1, 3) == _xi(3, 2) == _xi(3, 2, up=True)
    slopes = (2 * xi**3 / S, 2 * xi**2 / S)
    for var, slope in zip((kappa, tau), slopes):
        assert sympy.simplify(sympy.diff(xi**2, var) + slope) == 0
        assert all(sympy.diff(slope, w).is_negative for w in (kappa, tau))
    corner = [slope.subs({kappa: 3, tau: 2}) for slope in slopes]
    assert corner == [sympy.Rational(1, 54), sympy.Rational(1, 18)]
    assert rho_variation_bound(4, 3, 2, 2) == Fraction(1, 54)
    assert rho_variation_bound(3, 3, 3, 2) == Fraction(1, 18)


def test_ceil4_never_rounds_below_its_input():
    # Just above a grid point must round up to the next grid point: a
    # guard subtracted before ceil would round 0.4788000000001 down.
    assert ceil4(0.4788000000001) == 0.4789
    for k in range(4780, 4900):
        x = k / 10000
        for _ in range(4):
            x = math.nextafter(x, math.inf)
            assert ceil4(x) >= x
        assert ceil4(x + 1e-13) >= x + 1e-13


def test_ceil4_keeps_the_reported_decimals(full_scale_intervals):
    # The values behind the three published decimals do not move.
    assert ceil4(0.5 - 1.0 / 98.0) == 0.4898
    ax, mn = full_scale_intervals
    corner = (1.0 - certify(ax, mn, route="corner").rho_lower) / 2.0
    lemma = (1.0 - certify(ax, mn, route="lemma").rho_lower) / 2.0
    assert (ceil4(corner), ceil4(lemma)) == (0.4788, 0.4789)
    # The rounding is exact: the double nearest 0.4789 lies below the
    # decimal and stays, while the double nearest 0.4788 lies above it
    # and so rounds up.
    assert ceil4(0.4789) == 0.4789
    assert ceil4(0.4788) == 0.4789


def _synthetic(lo, hi, N=0):
    return ConstantInterval(lo=lo, hi=hi, tail_lo=0.0, tail_hi=0.0, rounding_slack=0.0, N=N)


def test_degenerate_corner_certificate():
    # Collapse the box onto (kappa, tau) = (3, 2): rho = 1/9 and the
    # coefficient rounds up to 0.4445.  c_main is the smallest float whose
    # kappa.lo = 1 - alpha2 + c_main.lo, with alpha2 bounded above, is at least 3.
    one_minus_a2 = 1 - alpha2_bound(up=True)
    lo = directed_root(3 - one_minus_a2, up=True)
    ca = _synthetic(2.0, 2.0)
    cert = certify(ca, _synthetic(lo, lo), route="corner")
    assert cert.kappa[0] == 3.0
    assert cert.rho_lower == pytest.approx(1.0 / 9.0, abs=1e-14)
    assert cert.coefficient_upper == 0.4445
    below = math.nextafter(lo, -math.inf)
    with pytest.raises(ValueError, match="lemma regime"):
        certify(ca, _synthetic(below, lo))


def _mp_rho(kappa, tau):
    """rho = xi^2 at the current mpmath precision."""
    xi = 2 / (tau + mp.sqrt(tau * tau + 4 * kappa))
    return xi * xi


@pytest.mark.parametrize("route", ["corner", "lemma"])
def test_certificate_encloses_its_exact_tail(full_scale_intervals, route):
    # At 50 digits: kappa contains 15 * 2^(-5/3) + c_main at both ends,
    # rho_lower is at most 4 ulps under the route's exact rho (on the lemma
    # route, less the exact rho_variation_bound), and the coefficient is not
    # below (1 - rho) / 2.
    ax, mn = full_scale_intervals
    cert = certify(ax, mn, route=route)
    with mp.workdps(50):
        depth = 15 * mpf(2) ** (mpf(-5) / 3)
        assert cert.kappa[0] <= depth + mpf(mn.lo)
        assert depth + mpf(mn.hi) <= cert.kappa[1]
        kappa, tau = (tuple(map(mpf, box)) for box in (cert.kappa, cert.tau))
        if route == "corner":
            rho = _mp_rho(kappa[1], tau[1])
        else:
            dev = max(rho_variation_bound(k, KAPPA0, t, TAU0) for k in cert.kappa for t in cert.tau)
            rho = _mp_rho(mpf(KAPPA0), mpf(TAU0)) - mpf(dev.numerator) / dev.denominator
        ulp = math.ulp(cert.rho_lower)
        assert rho - 4 * ulp <= cert.rho_lower <= rho
        assert cert.coefficient_upper >= (1 - rho) / 2


@given(st.integers(0, 2**80), st.integers(1, 2**80), st.integers(-300, 300),
       st.sampled_from([1, 2, 3]), st.booleans())
def test_directed_root_is_the_nearest_float_on_the_safe_side(num, den, shift, k, up):
    q = Fraction(num, den) * Fraction(2) ** shift

    def at_or_above_root(x):
        return x >= 0 and Fraction(x) ** k >= q

    def at_or_below_root(x):
        return x < 0 or Fraction(x) ** k <= q

    f = directed_root(q, up, k)
    toward_root = math.nextafter(f, -math.inf if up else math.inf)
    on_side = at_or_above_root if up else at_or_below_root
    assert on_side(f) and not on_side(toward_root)


def test_certificate_regime_guard():
    a2 = alpha2_exact()
    # tau alone below 2, then kappa alone below 3.  The match is certify's
    # own message: rho_variation_bound's also names the lemma regime.
    with pytest.raises(ValueError, match="^cannot certify"):
        certify(_synthetic(1.9, 1.9), _synthetic(2.5 + a2, 2.5 + a2))
    with pytest.raises(ValueError, match="^cannot certify"):
        certify(_synthetic(2.5, 2.5), _synthetic(1.0 + a2, 1.0 + a2))


def test_route_disagreement_raises(full_scale_intervals, monkeypatch):
    # A negative lemma deviation lifts the lemma bound above the corner
    # value, which certify's cross-check refuses on either route.
    monkeypatch.setattr("additive_bases.certify.rho_variation_bound", lambda *_: Fraction(-1, 100))
    for route in ("corner", "lemma"):
        with pytest.raises(AssertionError, match="route disagreement"):
            certify(*full_scale_intervals, route=route)


def test_route_validation():
    with pytest.raises(ValueError, match="unknown route"):
        certify(_synthetic(2.5, 2.5), _synthetic(5.0, 5.0), route="magic")

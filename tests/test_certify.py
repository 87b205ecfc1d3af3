import json
import math

import numpy as np
import pytest

from additive_bases import (
    KAPPA0,
    KLOTZ_COEFFICIENT,
    TAU0,
    ConstantInterval,
    alpha2_exact,
    c_axial,
    c_main,
    certify,
    rho_from,
    rho_variation_bound,
)
from additive_bases.certify import _xi, ceil4


def test_rho_at_regime_corner():
    # kappa = 3, tau = 2: xi = (-2 + 4) / 6 = 1/3
    assert rho_from(3.0, 2.0) == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_rho_at_anchors_exceeds_reference():
    assert rho_from(KAPPA0, TAU0) > 0.04240


def test_rho_regime_guard():
    with pytest.raises(ValueError, match="outside lemma regime"):
        rho_from(2.9, 2.5)
    with pytest.raises(ValueError, match="outside lemma regime"):
        rho_from(3.5, 1.9)


def test_rho_monotone_decreasing():
    rng = np.random.default_rng(29)
    kappas = rng.uniform(3.0, 20.0, 10**4)
    taus = rng.uniform(2.0, 10.0, 10**4)
    for k, t in zip(kappas, taus):
        r = rho_from(k, t)
        assert rho_from(k + 0.1, t) < r
        assert rho_from(k, t + 0.1) < r


def test_xi_stays_under_one_third():
    rng = np.random.default_rng(31)
    for _ in range(10**4):
        k = rng.uniform(3.0, 50.0)
        t = rng.uniform(2.0, 20.0)
        assert _xi(k, t) <= 1.0 / 3.0 + 1e-15


def test_root_partial_derivative_bounds():
    rng = np.random.default_rng(37)
    h = 1e-6
    for _ in range(1000):
        k = rng.uniform(3.0 + h, 30.0)
        t = rng.uniform(2.0 + h, 12.0)
        dk = (_xi(k + h, t) - _xi(k - h, t)) / (2 * h)
        dt = (_xi(k, t + h) - _xi(k, t - h)) / (2 * h)
        assert abs(dk) <= 1.0 / 36.0 + 1e-4
        assert abs(dt) <= 1.0 / 12.0 + 1e-4


def test_variation_bound_examples():
    assert rho_variation_bound(5.0, 5.0, 3.0, 3.0) == 0.0
    # certified deviations of the two-variable pipeline
    bound = rho_variation_bound(KAPPA0 - 0.01002, KAPPA0, TAU0 - 0.00011, TAU0)
    assert bound < 0.0002


def test_variation_bound_regime_guard():
    with pytest.raises(ValueError, match="outside lemma regime"):
        rho_variation_bound(2.0, 5.0, 3.0, 3.0)


def test_variation_lemma_randomized():
    rng = np.random.default_rng(41)
    for _ in range(10**4):
        k, k0 = rng.uniform(3.0, 25.0, 2)
        t, t0 = rng.uniform(2.0, 10.0, 2)
        gap = abs(rho_from(k, t) - rho_from(k0, t0))
        assert gap <= rho_variation_bound(k, k0, t, t0) + 1e-12


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
    return ConstantInterval(lo=lo, hi=hi, truncation_tail=0.0, rounding_slack=0.0, N=N)


def test_degenerate_corner_certificate():
    # Collapse the box onto (kappa, tau) = (3, 2): rho = 1/9 and the
    # coefficient rounds up to 0.4445.
    a2 = alpha2_exact()
    cm = _synthetic(2.0 + a2, 2.0 + a2)  # makes 1 - a2 + c_main == 3
    ca = _synthetic(2.0, 2.0)
    cert = certify(ca, cm, route="corner")
    assert cert.rho_lower == pytest.approx(1.0 / 9.0, abs=1e-14)
    assert cert.coefficient_upper == 0.4445
    assert cert.kappa[0] == pytest.approx(3.0, abs=1e-12)
    assert cert.xi[1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_certificate_regime_guard():
    a2 = alpha2_exact()
    with pytest.raises(ValueError, match="lemma regime"):
        certify(_synthetic(1.9, 1.9), _synthetic(2.0 + a2, 2.0 + a2))
    with pytest.raises(ValueError, match="lemma regime"):
        certify(_synthetic(2.5, 2.5), _synthetic(1.0 + a2, 1.0 + a2))


def test_route_validation():
    with pytest.raises(ValueError, match="unknown route"):
        certify(_synthetic(2.5, 2.5), _synthetic(5.0, 5.0), route="magic")


def test_desk_scale_pipeline_beats_klotz():
    ca = c_axial(5000)
    cm = c_main(500)
    corner = certify(ca, cm, route="corner")
    lemma = certify(ca, cm, route="lemma")
    for cert in (corner, lemma):
        assert cert.coefficient_upper <= 0.4798
        assert cert.coefficient_upper < KLOTZ_COEFFICIENT
        assert cert.rho_lower <= 1.0 / 9.0
        assert cert.coefficient_upper < 0.5
        assert cert.kappa[0] >= 3.0 and cert.tau[0] >= 2.0
    # the anchor route bounds rho over the whole box, hence is weaker
    assert lemma.rho_lower <= corner.rho_lower


def test_json_schema_field_order():
    ca = c_axial(100)
    cm = c_main(20)
    cert = certify(ca, cm)
    doc = cert.to_json_dict()
    assert list(doc.keys()) == [
        "alpha1",
        "alpha2",
        "c_axial",
        "c_main",
        "kappa",
        "tau",
        "rho_lower",
        "coefficient_upper",
        "route",
    ]
    assert list(doc["c_axial"].keys()) == ["lo", "hi", "N"]
    assert list(doc["kappa"].keys()) == ["lo", "hi"]
    json.dumps(doc)  # serializable

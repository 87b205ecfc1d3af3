import math

import numpy as np
import pytest
from scipy.integrate import quad

from additive_bases import (
    ConstantInterval,
    alpha2_exact,
    alpha2_numeric,
    c_axial,
    c_main,
    coeff,
    coeff_quadrature,
    decay_envelope,
    decay_envelope_check,
    excess_row_integral,
    phi,
    phi_excess,
    phi_grid_csv,
    shell_lattice,
    shell_sum_bounds_check,
)
from additive_bases.fourier2d import (
    _compensated_fold,
    _diag_values,
    _off_values,
    _shell_partial,
)

# ---------------------------------------------------------------------------
# Pointwise values and symmetries
# ---------------------------------------------------------------------------


def test_pointwise_values():
    assert phi(0.2, 0.3) == 1.0  # lower triangle
    assert phi(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)  # factor 1 - 1^6
    expected = 1.0 - 40.0 * 0.01 * (1.0 - 0.2**6)
    assert phi(0.9, 0.9) == pytest.approx(expected, abs=1e-15)


def test_vanishing_on_upper_triangle_boundary():
    t = np.linspace(0.0, 1.0, 501)
    assert np.max(np.abs(phi(1.0 - t, t) - 1.0)) < 1e-12
    assert np.max(np.abs(phi(np.ones_like(t), t) - 1.0)) < 1e-12
    assert np.max(np.abs(phi(t, np.ones_like(t)) - 1.0)) < 1e-12


def test_symmetry_and_mod_reduction():
    rng = np.random.default_rng(3)
    a = rng.random(1000)
    b = rng.random(1000)
    assert np.array_equal(phi(a, b), phi(b, a))
    # shifting by whole periods perturbs the floats themselves, so the
    # reduced values agree only up to the bump's Lipschitz constant * ulp
    assert np.allclose(phi(a + 2.0, b - 1.0), phi(a, b), rtol=0.0, atol=1e-12)


def test_alpha2_exact_value():
    a2 = alpha2_exact()
    assert a2 == pytest.approx(1.0 - 15.0 / 2.0 ** (5.0 / 3.0), abs=1e-15)
    assert a2 == pytest.approx(-3.72470, abs=5e-6)


def test_alpha2_numeric_agrees():
    a2 = alpha2_exact()
    num = alpha2_numeric(grid=2000)
    assert num >= a2 - 1e-7  # a sampled minimum cannot undershoot the true one
    assert num <= a2 + 1e-6  # and the refinement attains it


def test_phi_bounded_below_on_upper_triangle():
    rng = np.random.default_rng(5)
    t1 = rng.random(10**6)
    t2 = rng.random(10**6)
    mask = t1 + t2 >= 1.0
    assert phi(t1[mask], t2[mask]).min() >= alpha2_exact() - 1e-12


# ---------------------------------------------------------------------------
# Closed forms versus the quadrature oracle
# ---------------------------------------------------------------------------


def test_zero_mean():
    assert coeff(0, 0) == 0j
    assert abs(coeff_quadrature(0, 0, m=512)) < 1e-12


@pytest.mark.parametrize(
    "pair",
    [(1, 0), (0, 1), (-2, 0), (0, -3), (1, 1), (-1, -1), (2, 2), (1, 2), (2, 1),
     (3, 5), (1, -1), (-2, 5), (4, -3), (-4, -7)],
)
def test_closed_forms_match_quadrature(pair):
    r1, r2 = pair
    assert abs(coeff(r1, r2) - coeff_quadrature(r1, r2, m=512)) < 1e-10


def test_axis_coefficient_explicit_form():
    # real and imaginary parts of the r = 1 axis coefficient
    p = math.pi
    re = 15 / (4 * p**2) * (1 - 6 / p**2 + 45 / p**4 - 135 / p**6)
    im = -(60 / (7 * p**3)) * (1 + 63 / (8 * p**2) - 315 / (8 * p**4) + 945 / (16 * p**6))
    got = coeff(1, 0)
    assert got.real == pytest.approx(re, abs=1e-15)
    assert got.imag == pytest.approx(im, abs=1e-15)
    assert coeff(0, 1) == got


def test_coefficient_symmetries():
    rng = np.random.default_rng(17)
    for _ in range(500):
        r1, r2 = 0, 0
        while (r1 == 0 and r2 == 0):
            r1 = int(rng.integers(-60, 61))
            r2 = int(rng.integers(-60, 61))
        a = coeff(r1, r2)
        assert abs(a - coeff(r2, r1)) < 1e-12
        assert abs(coeff(-r1, -r2) - a.conjugate()) < 1e-12


def test_quadrature_grid_validation():
    with pytest.raises(ValueError, match="too small"):
        coeff_quadrature(1, 1, m=128)


# ---------------------------------------------------------------------------
# Analytic identities behind the decay estimates: row integral and
# boundary derivatives of the excess
# ---------------------------------------------------------------------------


def test_excess_row_integral_matches_quadrature():
    for t1 in np.linspace(0.0, 1.0, 100):
        direct, err = quad(lambda t2: phi_excess(t1, t2), 1.0 - t1, 1.0, epsabs=1e-13)
        assert abs(direct - excess_row_integral(t1)) < 1e-10
        assert err < 1e-11


def test_excess_row_integral_total_is_minus_one():
    total, _ = quad(excess_row_integral, 0.0, 1.0, epsabs=1e-13)
    assert total == pytest.approx(-1.0, abs=1e-12)


def fd_weights(order, offsets, h):
    """Stencil weights exact for polynomials of degree < len(offsets).

    The excess is polynomial of degree 7 per variable, so 9-point stencils
    differentiate it exactly; only rounding error remains.
    """
    pts = np.asarray(offsets, dtype=float) * h
    n = len(pts)
    A = np.vander(pts, n, increasing=True).T
    b = np.zeros(n)
    b[order] = math.factorial(order)
    return np.linalg.solve(A, b)


def fd_mixed(f, x, y, dx_order, dy_order, h=0.05):
    offs = range(-4, 5)
    wx = fd_weights(dx_order, offs, h)
    wy = fd_weights(dy_order, offs, h)
    total = 0.0
    for i, oi in enumerate(offs):
        for j, oj in enumerate(offs):
            total += wx[i] * wy[j] * f(x + oi * h, y + oj * h)
    return total


def test_boundary_derivative_profiles():
    ts = np.linspace(0.02, 0.98, 25)
    for t in ts:
        # first derivative in t2 along the diagonal boundary
        g1 = fd_mixed(phi_excess, t, 1.0 - t, 0, 1)
        assert abs(g1 - (-240.0 * t * (1.0 - t))) < 1e-6
        # mixed second derivative along the diagonal boundary
        g2 = fd_mixed(phi_excess, t, 1.0 - t, 1, 1)
        assert abs(g2 - 240.0 * (1.0 + 5.0 * t * (1.0 - t))) < 1e-6
        # mixed second derivative along t2 = 1
        h2 = fd_mixed(phi_excess, t, 1.0, 1, 1)
        assert abs(h2 - (-40.0 + 280.0 * (1.0 - t) ** 6)) < 1e-6
        # third derivative (t1 once, t2 twice) along the diagonal boundary
        g3 = fd_mixed(phi_excess, t, 1.0 - t, 1, 2)
        assert abs(g3 - 240.0 * (-12.0 - 15.0 * t + 20.0 * t * t)) < 1e-6
        # same derivative along t1 = 1
        h3 = fd_mixed(phi_excess, 1.0, t, 1, 2)
        assert abs(h3 - (-1680.0 * (1.0 - t) ** 5)) < 1e-6


# ---------------------------------------------------------------------------
# Certified sums
# ---------------------------------------------------------------------------


def test_c_axial_width_and_tail():
    iv = c_axial(1000)
    assert iv.truncation_tail == pytest.approx(0.005)
    assert iv.width <= 0.005 + 3 * iv.rounding_slack
    assert iv.hi - iv.lo >= iv.truncation_tail


def test_c_axial_nesting():
    # chain down to full scale: every later interval sits inside every earlier
    intervals = [c_axial(N) for N in (1, 10, 100, 1000, 50000)]
    for outer, inner in zip(intervals, intervals[1:]):
        assert outer.lo <= inner.lo and inner.hi <= outer.hi


def test_c_main_shell_one_explicit():
    # Shell R = 1 holds exactly the four sign patterns of (1, 1): two
    # diagonal points and two antidiagonal ones.
    expected = 2 * abs(coeff(1, 1)) + 2 * abs(coeff(1, -1))
    iv = c_main(1)
    assert iv.lo == pytest.approx(expected, abs=1e-12)


def test_c_main_nesting():
    intervals = [c_main(N) for N in (50, 200, 500)]
    for outer, inner in zip(intervals, intervals[1:]):
        assert outer.lo <= inner.lo and inner.hi <= outer.hi
    desk = intervals[-1]
    assert desk.width <= 0.08 + 3 * desk.rounding_slack


def test_shell_fold_matches_full_shell_reference():
    # The symmetry fold evaluates only each shell's right side; the
    # reference sums every one of the 8R - 4 shell points in the
    # shell_lattice traversal.
    for R in range(1, 201):
        r1, r2 = shell_lattice(R)
        mags = np.empty(r1.size)
        diag = r1 == r2
        mags[diag] = np.hypot(*_diag_values(r1[diag]))
        mags[~diag] = np.hypot(*_off_values(r1[~diag], r2[~diag]))
        ref = np.add.reduce(mags)
        assert abs(_shell_partial(R) - ref) <= 1e-14 * ref, R


def test_c_main_is_the_ascending_fold_of_shell_partials():
    # Documented order: shells folded in ascending R with Neumaier
    # compensation, all 4N^2 lattice terms counted in the slack.
    N = 120
    total, peak = _compensated_fold([_shell_partial(R) for R in range(1, N + 1)])
    iv = c_main(N)
    assert iv.lo == total - iv.rounding_slack
    assert iv.rounding_slack == 4 * N * N * np.finfo(float).eps * peak


def test_interval_validation():
    with pytest.raises(ValueError, match="empty interval"):
        ConstantInterval(lo=2.0, hi=1.0, truncation_tail=0.0, rounding_slack=0.0, N=1)
    with pytest.raises(ValueError, match="narrower"):
        ConstantInterval(lo=1.0, hi=1.5, truncation_tail=1.0, rounding_slack=0.0, N=1)


# ---------------------------------------------------------------------------
# Shell lattice and lemma checks
# ---------------------------------------------------------------------------


def test_shell_lattice_structure():
    for R in (1, 2, 3, 7):
        r1, r2 = shell_lattice(R)
        assert r1.size == 8 * R - 4
        assert np.all(np.maximum(np.abs(r1), np.abs(r2)) == R)
        assert np.all(np.minimum(np.abs(r1), np.abs(r2)) != 0)
        assert len({(a, b) for a, b in zip(r1.tolist(), r2.tolist())}) == r1.size


def test_shell_tail_bounds_hold():
    rep = shell_sum_bounds_check(5, 800)
    assert rep.ok
    assert rep.squares_tail < rep.squares_bound
    assert rep.cross_tail < rep.cross_bound
    # the cross-term bound is loose by a wide margin
    assert rep.cross_tail < 0.9 * rep.cross_bound


def test_shell_tail_validation():
    with pytest.raises(ValueError, match="exceed"):
        shell_sum_bounds_check(10, 10)


def test_decay_envelopes():
    sample = [(r, 0) for r in range(1, 101)]
    sample += [(0, r) for r in range(1, 101)]
    sample += [(r, r) for r in range(1, 101)]
    rng = np.random.default_rng(23)
    count = 0
    while count < 1000:
        r1 = int(rng.integers(-500, 501))
        r2 = int(rng.integers(-500, 501))
        if r1 and r2 and r1 != r2:
            sample.append((r1, r2))
            count += 1
    rep = decay_envelope_check(sample)
    assert rep.ok
    assert rep.checked_axis == 200
    assert rep.checked_diagonal == 100
    assert rep.checked_general == 1000


def test_decay_envelope_rejects_origin():
    with pytest.raises(ValueError, match="no decay regime"):
        decay_envelope(0, 0)
    with pytest.raises(ValueError, match="empty"):
        decay_envelope_check([])


# ---------------------------------------------------------------------------
# The grid dump
# ---------------------------------------------------------------------------


def test_phi_grid_csv(tmp_path):
    path = tmp_path / "surface.csv"
    phi_grid_csv(path, 16)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t1,t2,phi"
    assert len(lines) == 1 + 16 * 16
    # row-major: second row is t1=0, t2=1/16, phi=1
    t1, t2, val = (float(x) for x in lines[2].split(","))
    assert (t1, t2) == (0.0, 1.0 / 16.0)
    assert val == 1.0
    # a point in the upper triangle carries the bump value
    row = lines[1 + 15 * 16 + 15]  # t1 = t2 = 15/16
    t1, t2, val = (float(x) for x in row.split(","))
    assert val == pytest.approx(phi(15 / 16, 15 / 16), abs=1e-15)

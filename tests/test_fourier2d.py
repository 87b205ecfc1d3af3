import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, strategies as st
from mpmath import mp

from additive_bases import fourier2d
from additive_bases.certify import alpha2_exact
from additive_bases.cli import SCALE
from additive_bases.fourier2d import (
    _AXIS,
    _DIAG,
    _EDGE,
    _G,
    _NEAR_AXIS,
    ConstantInterval,
    _axis_values,
    _diag_values,
    _form,
    _gauss_panels,
    _inverse_square_tail,
    _off_form,
    _off_values,
    _shell_sums,
    _shell_tables,
    _shell_terms,
    c_axial,
    c_main,
    coeff,
    coeff_quadrature,
    phi,
    phi_excess,
    phi_grid_csv,
    tail_constants,
)

# ---------------------------------------------------------------------------
# Pointwise values and symmetries
# ---------------------------------------------------------------------------


def test_pointwise_values():
    assert phi(0.2, 0.3) == 1.0  # lower triangle
    assert phi(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)  # factor 1 - 1^6
    expected = 1.0 - 40.0 * 0.01 * (1.0 - 0.2**6)
    assert phi(0.9, 0.9) == pytest.approx(expected, abs=1e-15)


def test_symmetry_and_mod_reduction():
    rng = random.Random(3)
    for _ in range(1000):
        a, b = rng.random(), rng.random()
        assert phi(a, b) == phi(b, a)
        # shifting by whole periods perturbs the floats themselves, so the
        # reduced values agree only up to the bump's Lipschitz constant * ulp
        assert abs(phi(a + 2.0, b - 1.0) - phi(a, b)) <= 1e-12
    # -1e-20 reduces to 1.0, not 0.0, where the excess vanishes
    assert phi(-1e-20, 0.5) == phi(0.0, 0.5) == 1.0


def _exact(expr):
    """expr with each sympy Float replaced by the integer it holds, exactly."""
    exact = {f: sympy.Rational(f) for f in expr.atoms(sympy.Float)}
    assert all(q.is_integer for q in exact.values()), exact
    return expr.xreplace(exact)


def test_vanishing_on_upper_triangle_boundary():
    # The code's own excess is exactly 0 on the three edges of R2, so phi
    # = 1 + excess there meets phi = 1 on R1 without a jump.
    t, one = sympy.Symbol("t"), sympy.Integer(1)
    for t1, t2 in ((one - t, t), (one, t), (t, one)):
        assert sympy.expand(_exact(phi_excess(t1, t2))) == 0


def test_alpha2_is_the_minimum_on_the_upper_triangle():
    # On symbols, the code's own excess at u = 1 - t1, v = 1 - t2 splits,
    # with p = u + v, as m(p) + 10 (u - v)^2 (1 - p^6), m(p) = -10 p^2 (1 - p^6).
    # On R2, 0 <= p <= 1, so the second term is >= 0 and vanishes on the
    # diagonal: the minimum over R2 is that of m on [0, 1].  m(0) = m(1) = 0,
    # and m' has one root inside, at p^6 = 1/4, where 1 + m is alpha2.
    u, v = sympy.symbols("u v", nonnegative=True)
    p = sympy.Symbol("p", positive=True)
    m = -10 * p**2 * (1 - p**6)
    excess = _exact(phi_excess(1 - u, 1 - v))
    s = u + v
    assert sympy.expand(excess - m.subs(p, s) - 10 * (u - v) ** 2 * (1 - s**6)) == 0
    (p_min,) = sympy.solve(sympy.diff(m, p), p)
    assert p_min**6 == sympy.Rational(1, 4) and p_min < 1
    assert m.subs(p, 0) == m.subs(p, 1) == 0 > m.subs(p, p_min)
    alpha2 = alpha2_exact(2 ** sympy.Rational(-5, 3))
    assert sympy.simplify(1 + m.subs(p, p_min) - alpha2) == 0
    # The float the certificate reports lies within an ulp of that minimum.
    a2 = alpha2_exact()
    assert abs(sympy.Rational(a2) - alpha2) < sympy.Rational(math.ulp(a2))


def test_excess_integrates_to_minus_one():
    # Integrated exactly over R2 = {t1 + t2 >= 1}, the code's own excess is
    # -1, so phi = 1 + excess on R2 has mean 1 - 1 = 0, which coeff(0, 0)
    # returns.  Float integration of it gives -1.00000000000005.
    t1, t2 = sympy.symbols("t1 t2")
    excess = _exact(phi_excess(t1, t2))
    assert sympy.integrate(excess, (t2, 1 - t1, 1), (t1, 0, 1)) == -1
    assert coeff(0, 0) == 0j


# ---------------------------------------------------------------------------
# Closed forms versus the quadrature oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rmax", [1, 2, 3, 5, 8, 16])
def test_quadrature_oracle_is_accurate_at_its_panel_count(rmax):
    # The panel count grows with rmax; at every size the oracle still
    # agrees with the closed forms to round-off, on every pair, the
    # origin (zero mean) among them.
    quad = coeff_quadrature(rmax)
    assert len(quad) == (2 * rmax + 1) ** 2
    worst = max(abs(coeff(*pair) - c) for pair, c in quad.items())
    assert worst < 1e-13


class _RuleChosen(Exception):
    pass


@pytest.mark.parametrize("rmax", [-1, 0, 30, 31, 32, 10**6])
def test_quadrature_oracle_owns_its_radius_range(rmax, monkeypatch):
    # Radii 0..MAX_RMAX = 31 take 8 nodes on each of 4 (rmax + 1) panels,
    # 1024 at 31; any other radius is refused before a rule is built.  The
    # spy stops the call once the rule is chosen, and the rule is built
    # after, so a radius let through by mistake costs no memory.
    chosen = []

    def spy(panels):
        chosen.append(panels)
        raise _RuleChosen

    monkeypatch.setattr(fourier2d, "_gauss_panels", spy)
    if 0 <= rmax <= 31:
        with pytest.raises(_RuleChosen):
            coeff_quadrature(rmax)
        assert [len(_gauss_panels(p)[0]) for p in chosen] == [32 * (rmax + 1)]
    else:
        with pytest.raises(ValueError, match=f"rmax must be between 0 and 31, got {rmax}"):
            coeff_quadrature(rmax)
        assert chosen == []


def test_integer_arguments_fail_loud():
    # Frequencies and truncations are integers: a float is an error, not
    # a value truncated (coeff) or carried into the interval (c_axial),
    # and a numpy integer reads as the int it holds.
    for call in (lambda: coeff(1.7, 0), lambda: coeff(0, 2.0), lambda: c_axial(5.5),
                 lambda: c_main(5.5), lambda: tail_constants(5.5)):
        with pytest.raises(TypeError):
            call()
    five = np.int64(5)
    assert coeff(five, np.int64(-2)) == coeff(5, -2)
    for f in (c_axial, c_main, tail_constants):
        assert f(five) == f(5)
        with pytest.raises(ValueError, match="^N must be positive$"):
            f(0)
    assert type(c_axial(five).N) is type(c_main(five).N) is int


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


def _mpf(q):
    """The exact rational q at the current mpmath precision."""
    assert isinstance(q, Fraction)
    return mp.mpf(q.numerator) / q.denominator


with mp.workdps(50):
    _MP_AXIS, _MP_DIAG, _MP_EDGE = (tuple(tuple(map(_mpf, part)) for part in table)
                                    for table in (_AXIS, _DIAG, _EDGE))
    _MP_G = tuple(map(_mpf, _G))


def _reference(r1, r2):
    """c(r1, r2) from the exact tables, read at 50 digits, through the code's
    own _form and _off_form, with X = 1/(pi r1), Y = 1/(pi r2) and
    D = 1/(pi (r1 - r2)) taken in mpmath, not from _scaled or _PI."""
    x, y = (1 / (mp.pi * r) if r else None for r in (r1, r2))
    if x is None or y is None:
        re, im = _form(_MP_AXIS, x or y)
    elif r1 == r2:
        re, im = _form(_MP_DIAG, x)
    else:
        d = 1 / (mp.pi * (r1 - r2))
        re, im = _off_form(x, y, d * d, _MP_EDGE, _MP_G)
    return mp.mpc(re, im)


def _shell_labels(R):
    """The s of each term of _shell_terms(R, ...), in its order."""
    return [v for s in range(1, R) for v in (s, -s)] + [-R, R]


def test_closed_forms_audit_against_50_digit_reference():
    # The proof below fixes what the exact tables, _form and _off_form
    # compute; this holds the float path to them.  Every float |c| the
    # sums use lies within 8 eps (relative) of the 50-digit reference:
    # the shell kernel's own terms, which c_main sums, for the whole
    # shells R <= 50 and for shell 4000 next to the axis (|s| <= 40) and
    # next to the diagonal and the antidiagonal (|s| >= 3960), where a
    # difference quotient for G would cancel; the axis |r| <= 50 as
    # c_axial sums it; and a seeded sample of coeff's path with |r|, |s|
    # <= 4000.
    y, d2 = _shell_tables(4000)
    checked = []
    for R in range(1, 51):
        checked += zip([R] * (2 * R), _shell_labels(R), _shell_terms(R, y, d2))
    checked += [(4000, s, got) for s, got in zip(_shell_labels(4000), _shell_terms(4000, y, d2))
                if abs(s) <= 40 or abs(s) >= 3960]
    r = [*range(-50, 0), *range(1, 51)]
    checked += [(v, 0, math.hypot(*_axis_values(v))) for v in r]
    rng = np.random.default_rng(29)
    a, b = rng.integers(-4000, 4001, size=(2, 600))
    keep = (a != 0) & (b != 0) & (a != b)
    a, b = a[keep][:500], b[keep][:500]
    checked += zip(a.tolist(), b.tolist(), np.hypot(*_off_values(a, b)).tolist())
    assert len(checked) == 2550 + 162 + 100 + 500
    eps = np.finfo(float).eps
    with mp.workdps(50):
        for r1, r2, got in checked:
            ref = abs(_reference(r1, r2))
            assert abs(got - ref) <= 8 * eps * ref, (r1, r2, float(abs(got - ref) / ref / eps))


@pytest.mark.parametrize("r1, r2", [(3, 0), (0, -3), (5, 5), (3, -7), (4000, 3999)])
def test_exact_tables_evaluate_in_mpmath(r1, r2):
    # The complex value coeff returns, one point per form and both axes,
    # lies within the audit's 8 eps of the 50-digit reference.
    with mp.workdps(50):
        ref = _reference(r1, r2)
        assert abs(coeff(r1, r2) - ref) <= 8 * np.finfo(float).eps * abs(ref)


def _antiderivative(q, t, inv):
    """P with d/dt (P e^(c t)) = q e^(c t), for a polynomial q in t and inv = 1/c.

    Integration by parts repeated until the derivative vanishes:
    P = sum_k (-1)^k q^(k) inv^(k+1).  So int_lo^hi q e^(c t) dt is
    P(hi) - P(lo) whenever e^(c lo) = e^(c hi) = 1, and sympy only ever
    differentiates and integrates polynomials.
    """
    terms, k = [], 0
    while q != 0:
        terms.append((-1) ** k * q * inv ** (k + 1))
        q, k = sympy.diff(q, t), k + 1
    return sympy.expand(sympy.Add(*terms))


def _ends(expr, t, lo, hi):
    return expr.subs(t, hi) - expr.subs(t, lo)


def test_closed_forms_are_proved_from_phi_excess():
    # c(r, s) is the integral of excess(t1, t2) e^(a t1 + b t2) over R2,
    # with a = -2 pi i r and b = -2 pi i s (the constant 1 integrates to
    # 0 at any other frequency), so 1/a = i X / 2, 1/b = i Y / 2 and
    # 1/(a - b) = i D / 2, where D = 1/(pi (r - s)) = X Y / (Y - X).  The
    # excess is the code's own, read exactly; e^a = e^b = 1 at integers.
    t1, t2, p = sympy.symbols("t1 t2 p")
    X, Y = sympy.symbols("X Y", nonzero=True)
    I = sympy.I
    excess = _exact(phi_excess(t1, t2))

    # Axis (r, 0): the row integral over t2 in [1 - t1, 1], then t1 in [0, 1].
    row = sympy.integrate(excess, (t2, 1 - t1, 1))
    axis = _ends(_antiderivative(row, t1, I * X / 2), t1, 0, 1)

    # Diagonal (r, r): along p = t1 + t2 in [1, 2], with Q(p) the
    # integral of the excess over t1 in [p - 1, 1].
    Q = sympy.integrate(excess.subs(t2, p - t1), (t1, p - 1, 1))
    diag = _ends(_antiderivative(Q, p, I * X / 2), p, 1, 2)

    # Off the diagonal: over t2 in [1 - t1, 1] first, where the lower end
    # carries e^(b (1 - t1)) = e^(-b t1); then over t1 in [0, 1], the
    # upper end against e^(a t1), the lower against e^((a - b) t1).
    D = X * Y / (Y - X)
    inner = _antiderivative(excess, t2, I * Y / 2)
    off = (_ends(_antiderivative(inner.subs(t2, 1), t1, I * X / 2), t1, 0, 1)
           - _ends(_antiderivative(inner.subs(t2, 1 - t1), t1, I * D / 2), t1, 0, 1))

    # The code's own evaluators on the exact tables, as re + i im.
    for name, derived, (re, im) in (
        ("axis", axis, _form(_AXIS, X)),
        ("diagonal", diag, _form(_DIAG, X)),
        ("off-diagonal", off, _off_form(X, Y, D * D, _EDGE, _G)),
    ):
        assert sympy.cancel(sympy.together(derived - (re + I * im))) == 0, name


# ---------------------------------------------------------------------------
# Certified sums
# ---------------------------------------------------------------------------


def test_c_axial_width_and_tail():
    # The axial tail is 15/(pi^2 N) to leading order and its two sides
    # differ by O(1/N^2): 4 |c(r, 0)| r^2 = (4/pi^2)(15/4 +- O(1/r)).
    iv = c_axial(1000)
    assert iv.tail_lo == pytest.approx(15 / (np.pi**2 * 1000), rel=2e-3)
    assert 0 < iv.tail_hi - iv.tail_lo < 2.5 / 1000**2
    assert iv.hi - iv.lo <= iv.tail_hi - iv.tail_lo + 3 * iv.rounding_slack
    assert iv.hi - iv.lo >= iv.tail_hi - iv.tail_lo


def test_two_sided_tails_sharpen_the_one_sided_enclosures(full_scale_intervals):
    # At equal N the two-sided enclosure lies inside the one-sided one the
    # sums used before, [partial - slack, partial + 5/N (40/N) + slack];
    # enclosures at different N need not nest, but they all contain the
    # limit, so they pairwise intersect; and the full-scale c_main meets
    # the one-sided c_main(4000) of before, whose bits are below.
    ax, mn = full_scale_intervals
    for make, tail, radii, full in ((c_axial, 5, (1, 10, 100, 1000), ax),
                                    (c_main, 40, (1, 17, 50, 200), mn)):
        intervals = [make(N) for N in radii] + [full]
        for iv in intervals:
            partial = iv.lo + iv.rounding_slack - iv.tail_lo  # to within an ulp
            ulp = 4 * np.spacing(partial)
            assert partial - iv.rounding_slack - ulp <= iv.lo
            assert iv.hi <= partial + tail / iv.N + iv.rounding_slack + ulp
        for a, b in itertools.combinations(intervals, 2):
            assert max(a.lo, b.lo) <= min(a.hi, b.hi), (a.N, b.N)
    assert max(mn.lo, 4.7514546862405487) <= min(mn.hi, 4.7614548212850147)


def assert_outward(iv, total, per_term):
    """iv's tails are per_term times the bounds on sum_{k > N} 1/k^2, and its
    ends total -+ slack plus those tails, each rounded outward to a float."""
    k_lo, k_hi = _inverse_square_tail(iv.N + 1)
    ends = [(iv.tail_lo, per_term[0] * k_lo, iv.tail_hi, per_term[1] * k_hi)]
    ends.append((iv.lo, Fraction(total) - Fraction(iv.rounding_slack) + Fraction(iv.tail_lo),
                 iv.hi, Fraction(total) + Fraction(iv.rounding_slack) + Fraction(iv.tail_hi)))
    for lo, exact_lo, hi, exact_hi in ends:
        assert Fraction(lo) <= exact_lo < Fraction(np.nextafter(lo, np.inf))
        assert Fraction(np.nextafter(hi, -np.inf)) < exact_hi <= Fraction(hi)


def test_c_axial_is_the_ascending_fold_of_axis_blocks():
    # The documented terms: each block (r,0), (-r,0), (0,r), (0,-r), with
    # -r evaluated on its own, so that c_axial's 4 * fsum over r > 0 holds
    # only if |c(-r, 0)| = |c(r, 0)| bit for bit.  The reference sums them
    # exactly and rounds once, as fsum does in any order.
    N = 300
    vals = []
    for r in range(1, N + 1):
        pos = math.hypot(*_axis_values(r))
        neg = math.hypot(*_axis_values(-r))
        vals += [pos, neg, pos, neg]
    total = float(sum(map(Fraction, vals)))
    iv = c_axial(N)
    assert iv.rounding_slack == len(vals) * np.finfo(float).eps * total
    assert_outward(iv, total, tail_constants(N)[0])


def test_c_main_shell_one_explicit():
    # Shell R = 1 holds exactly the four sign patterns of (1, 1): two
    # diagonal points and two antidiagonal ones.
    expected = 2 * abs(coeff(1, 1)) + 2 * abs(coeff(1, -1))
    iv = c_main(1)
    assert iv.lo == pytest.approx(expected, abs=1e-12)


def test_c_main_nesting(full_scale_intervals):
    # Two-sided tails need not nest across N, but at 50, 200 and SCALE they
    # do.  At N = 500 the one-sided tail alone was 0.08 wide.
    intervals = [c_main(50), c_main(200), full_scale_intervals[1]]
    for outer, inner in zip(intervals, intervals[1:]):
        assert outer.lo <= inner.lo and inner.hi <= outer.hi
    desk = intervals[-1]
    assert desk.hi - desk.lo <= 1e-3


def shell_lattice(R: int) -> tuple:
    """Lattice points with max(|r1|, |r2|) = R and min(|r1|, |r2|) != 0.

    Fixed traversal order (8R - 4 points): right side r1 = R with r2
    ascending over [-R, R] \\ {0}; left side r1 = -R likewise; then top
    r2 = R and bottom r2 = -R with r1 ascending over (-R, R) \\ {0}.  The
    tests sum it as the reference for c_main's folded shell sums.
    """
    side = np.concatenate([np.arange(-R, 0), np.arange(1, R + 1)])
    inner = np.concatenate([np.arange(-R + 1, 0), np.arange(1, R)])
    r1 = np.concatenate([np.full(side.size, R), np.full(side.size, -R), inner, inner])
    r2 = np.concatenate([side, side, np.full(inner.size, R), np.full(inner.size, -R)])
    return r1, r2


def test_shell_fold_matches_full_shell_reference():
    # The symmetry fold evaluates only each shell's right side; the
    # reference sums every one of the 8R - 4 shell points in the
    # shell_lattice traversal.
    sums = _shell_sums(200)
    for R in range(1, 201):
        r1, r2 = shell_lattice(R)
        mags = np.empty(r1.size)
        diag = r1 == r2
        mags[diag] = np.hypot(*_diag_values(r1[diag]))
        mags[~diag] = np.hypot(*_off_values(r1[~diag], r2[~diag]))
        ref = np.add.reduce(mags)
        assert abs(sums[R - 1] - ref) <= 1e-14 * ref, R


def test_c_main_is_the_ascending_fold_of_shell_partials():
    # The shell sums summed exactly and rounded once, all 4N^2 lattice
    # terms counted in the slack.
    N = 120
    total = float(sum(map(Fraction, _shell_sums(N))))
    iv = c_main(N)
    assert iv.rounding_slack == 4 * N * N * np.finfo(float).eps * total
    assert_outward(iv, total, tail_constants(N)[1])


def test_full_scale_bits_are_pinned(full_scale_intervals):
    # Exact bits of the certified sums.  A deliberate change (a derived
    # tail or rounding slack, say) updates these numbers and says so in
    # CHANGES.md; anything else that moves them is a regression.
    ax, mn = full_scale_intervals
    assert (ax.lo, ax.hi) == (2.902813637208082, 2.902822474628483)
    assert (mn.lo, mn.hi) == (4.7527494873694263, 4.7531621866599618)


def test_interval_validation():
    def interval(lo, hi, tail_lo=0.0, tail_hi=0.0, N=1):
        return ConstantInterval(lo=lo, hi=hi, tail_lo=tail_lo, tail_hi=tail_hi,
                                rounding_slack=0.0, N=N)

    with pytest.raises(ValueError, match="empty interval"):
        interval(2.0, 1.0)
    with pytest.raises(ValueError, match="narrower"):
        interval(1.0, 1.5, 0.5, 1.5)
    for tail in ((-0.1, 0.1), (0.2, 0.1)):
        with pytest.raises(ValueError, match="tail_lo <= tail_hi"):
            interval(1.0, 2.0, *tail)
    with pytest.raises(ValueError, match="^negative truncation radius$"):
        interval(1.0, 2.0, N=-1)


def test_interval_replace_validates():
    iv = ConstantInterval(lo=1.0, hi=2.0, tail_lo=0.0, tail_hi=0.5, rounding_slack=0.0, N=1)
    replaced = iv._replace(hi=3.0)
    assert replaced.hi - replaced.lo == 2.0
    with pytest.raises(ValueError, match="empty interval"):
        iv._replace(lo=2.5)


# ---------------------------------------------------------------------------
# Shell lattice and derived tails
# ---------------------------------------------------------------------------


def test_shell_lattice_structure():
    for R in (1, 2, 3, 7):
        r1, r2 = shell_lattice(R)
        assert r1.size == 8 * R - 4
        assert np.all(np.maximum(np.abs(r1), np.abs(r2)) == R)
        assert np.all(np.minimum(np.abs(r1), np.abs(r2)) != 0)
        assert len({(a, b) for a, b in zip(r1.tolist(), r2.tolist())}) == r1.size


def test_ell_bounds_every_harmonic_term_beyond_N():
    # _ell(N) >= (1 + H_R) / R for all R > N >= 1.  The right side falls in
    # R (R / (R + 1) <= 1 + H_R), and _ell(N) (N + 1) is one C_b on each block
    # 2^(b-1) <= N + 1 < 2^b, so 1 + H_(2^b - 1) <= C_b decides: at 50 digits
    # up to b = 64.  Beyond, _ell's own chain: H_R <= 1 + ln R, (2 + ln x) / x
    # falls (sympy, at x = e^y), ln(N + 1) < b ln 2 and C_b rises faster.
    y = sympy.symbols("y", nonnegative=True)
    assert sympy.factor(sympy.diff((2 + y) * sympy.exp(-y), y)).is_negative
    C = {b: (2**b - 1) * fourier2d._ell(2**b - 2) for b in range(2, 66)}
    assert all(C[b] == 2 ** (b - 1) * fourier2d._ell(2 ** (b - 1) - 1) for b in C)
    assert all(C[b + 1] - C[b] == C[65] - C[64] for b in range(2, 65))
    with mp.workdps(50):
        assert all(1 + mp.harmonic(2**b - 1) <= _mpf(C[b]) for b in range(2, 65))
        assert mp.log(2) < _mpf(C[65] - C[64]) and 2 + 64 * mp.log(2) <= _mpf(C[64])


def test_pair_factor_is_the_near_axis_weight_and_rises():
    # (R / (R - s))^2 + (R / (R + s))^2 = _pair_factor(s / R), which rises
    # on 0 < t = w / (1 + w) < 1 from 2 at t = 0.
    f, (R, s, w, t) = fourier2d._pair_factor, sympy.symbols("R s w t", positive=True)
    assert sympy.simplify((R / (R - s)) ** 2 + (R / (R + s)) ** 2 - f(s / R)) == 0
    assert sympy.factor(sympy.diff(f(t), t).subs(t, w / (1 + w))).is_positive and f(0) == 2


def test_range_sums_bound_the_exact_sums():
    # Exact sums of a, b, c, |c| (pi^4 R^2 D^2 times X^2, Y^2, X Y; pi cancels)
    # over the band R/2 <= s < R and the middle S < s < R/2, -R <= s < -S (with
    # and without -R); the middle's |c| passes half its bound near N = 2000.
    assert -_EDGE[0][0] > _G[0] / 2 > 0  # the lead -(p_0 (X^2 + Y^2) - g_0 X Y) < 0
    for N, K in ((1, 32), (2, 32), (16, 32), (17, 32), (500, 2), (2000, 1)):
        S = min(_NEAR_AXIS, N // 2)
        band, middle = fourier2d._range_sums(N, S)
        for R in range(N + 1, N + K + 1):
            inner = [*range(S + 1, (R + 1) // 2), *range(1 - R, -S)]
            for lims, ss in (band, range((R + 1) // 2, R)), (middle, inner), (middle, [-R, *inner]):
                terms = [(Fraction(1, (R - s) ** 2), Fraction(R * R, ((R - s) * s) ** 2),
                          Fraction(R, (R - s) ** 2 * s)) for s in ss]
                assert all(lo <= sum(v) <= hi for v, (lo, hi) in zip(zip(*terms), lims)), (N, R)
                assert sum(abs(c) for *_, c in terms) <= lims[2][1], (N, R)


@given(*[st.fractions(lo, 1, max_denominator=10**4) for lo in (0, -1, 0, -1)])
@example(Fraction(1, 100), Fraction(1), Fraction(1, 100), Fraction(1))
def test_lead_rest_and_g_rest_bound_what_they_leave_out(u, t, v, w):
    # For |X| <= u each form (exactly, by _form) lies within rest X^2 of P_0 X^2,
    # and for |Y| <= v too, G = sum_k g_k h_k(X, Y) lies within _g_rest(u, v) of g_0.
    X, Y = u * t, v * w
    for table in (_AXIS, _DIAG, _EDGE):
        p0, rest = fourier2d._lead_rest(table, u)
        lead, (re, im) = table[0][0] * X**2, _form(table, X)
        assert p0 == abs(table[0][0]) and (re - lead) ** 2 + im**2 <= (rest * X**2) ** 2
    G = sum(g * X**i * Y ** (k - i) for k, g in enumerate(_G) for i in range(k + 1))
    assert abs(G - _G[0]) <= fourier2d._g_rest(u, v)


def test_tail_constants_lie_on_the_safe_side_of_pi(monkeypatch):
    # Each bound lies on its safe side of, and within 1e-8 of, a run with pi bracketed to
    # 50 digits; at N where the near-axis count grows, stops, and the truncation in use.
    bounds = {N: tail_constants(N) for N in (1, 2, 2 * _NEAR_AXIS, 2 * _NEAR_AXIS + 1, SCALE)}
    pi_lo, tol = Fraction(int(sympy.floor(sympy.pi * 10**50)), 10**50), Fraction(1, 10**8)
    monkeypatch.setattr(fourier2d, "_PI_LO", pi_lo)
    monkeypatch.setattr(fourier2d, "_PI_HI", pi_lo + Fraction(1, 10**50))
    for N, got in bounds.items():
        for (lo, hi), (ref_lo, ref_hi) in zip(got, tail_constants(N)):
            assert ref_lo * (1 - tol) <= lo <= ref_lo and ref_hi <= hi <= ref_hi * (1 + tol), N


def test_inverse_square_tail_brackets_hurwitz_zeta():
    with mp.workdps(50):
        for N in (1, 2, 2 * _NEAR_AXIS, 2 * _NEAR_AXIS + 1, SCALE):
            k_lo, k_hi = map(_mpf, _inverse_square_tail(N + 1))
            assert k_lo <= mp.zeta(2, N + 1) <= k_hi


# ---------------------------------------------------------------------------
# The grid dump
# ---------------------------------------------------------------------------


def test_phi_grid_csv(tmp_path):
    # Row-major, t1 = i/16 and t2 = j/16; each value reads back to phi's
    # own double: 1.0 on R1, 1.0 + phi_excess on R2.
    path = tmp_path / "surface.csv"
    phi_grid_csv(path, 16)
    lines = path.read_text().splitlines()
    assert lines[0] == "t1,t2,phi"
    assert [tuple(map(float, line.split(","))) for line in lines[1:]] == [
        (i / 16, j / 16, 1.0 if i + j < 16 else 1.0 + phi_excess(i / 16, j / 16))
        for i in range(16) for j in range(16)]
    with pytest.raises(ValueError, match="^grid too small$"):
        phi_grid_csv(tmp_path / "small.csv", 1)
    assert not (tmp_path / "small.csv").exists()

"""The two-variable test function, its Fourier coefficients, and the
certified truncated coefficient sums used by the final upper bound.

The function is 1-periodic in each variable and piecewise polynomial on
the unit square: with the lower/upper triangles

    R1 = {t1 + t2 < 1},    R2 = {t1 + t2 >= 1},

the test function is

    phi = 1                                                 on R1,
    phi = 1 - 40 (1-t1)(1-t2) (1 - (2-t1-t2)^6)             on R2.

The excess phi - 1 vanishes on the boundary of R2, phi has zero mean
(the excess integrates to -1 over R2), and alpha1 = 1 on R1.  With
u = 1 - t1, v = 1 - t2 and p = u + v, the identity 4 u v = p^2 - (u - v)^2
gives

    phi - 1 = -10 p^2 (1 - p^6) + 10 (u - v)^2 (1 - p^6),

and 0 <= p <= 1 on R2, so the minimum on R2 lies on the diagonal u = v.
There -10 p^2 (1 - p^6) is least at p^6 = 1/4, which gives alpha2 =
1 - 15/2^(5/3) at 1 - t = 2^(-4/3).  The test suite proves the identity
and the zero mean in sympy, on phi_excess itself.

Closed-form coefficients exist on the axes, on the diagonal, and off
the diagonal.  They are short polynomials with small rational
coefficients in the scaled frequencies X = 1/(pi r), Y = 1/(pi s), so pi
enters only through X, Y and D = 1/(pi (r - s)), and they hold at
negative integers too.  The axis and diagonal forms are X^2 P(X^2) +
i X^3 Q(X^2), with (P, Q) the tables _AXIS and _DIAG; off the diagonal

    c(r, s) = D^2 (F(X) + F(Y) + X Y G[X, Y]),

where F has the same shape (table _EDGE) and G is the divided difference
(g(X) - g(Y)) / (X - Y) of a polynomial g, the sum of the complete
homogeneous polynomials h_k = sum_i X^i Y^(k-i) with coefficients _G.
At a fixed X the whole form is one polynomial in Y for each of re and
im (_off_expansion), whose coefficients are polynomials in X alone, so
nothing cancels next to the diagonal.  The test suite proves all three
forms in sympy from phi_excess itself, by repeated integration by parts,
on the exact tables through _form and _off_form, and checks the float
path, the shell kernel's own terms among it, against the same tables
run at 50 digits and against an independent quadrature oracle.

Certified sums.  The axial sum over 0 < |r| <= N of the two axis
coefficient magnitudes, and the main sum over concentric square shells
max(|r1|, |r2|) = R <= N (min != 0), each fall short of their limits by
a truncation tail with derived bounds on both sides: tail_constants
bounds each term beyond N from above and below, times 1/r^2 or 1/R^2,
from the coefficient tables the sums evaluate.  At N = 500 the main
tail lies between about 5.89/N and 6.09/N (5.99/N measured), and the
axial tail is O(1/N^2) wide.  Both sums are folded by math.fsum, which
is correctly rounded whatever the order, and a conservative rounding
slack of terms * eps_machine * total is folded into both interval ends,
each rounded outward by directed_root.  Since phi is real and symmetric,
|c(r, s)| = |c(s, r)| = |c(-r, -s)|, so each shell is evaluated on its
right side alone and expanded to the whole shell (_shell_sums).  The
slack still counts all 4N^2 lattice terms.

The certificate runs on the standard library: the sums use math.hypot
and math.fsum, and the shell kernel (_shell_terms) evaluates the
Y-polynomials of shell R once per pair (R, s), (R, -s), whose terms
share the even and odd parts in Y.  phi and phi_grid_csv run on plain
floats too; numpy is imported only by the quadrature oracle
(_gauss_panels and coeff_quadrature).
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import NamedTuple

from .certify import directed_root

_PI = math.pi

_EPS = sys.float_info.epsilon

# Continued-fraction convergents with _PI_LO < pi < _PI_HI, for the
# derived truncation tails.
_PI_LO, _PI_HI = Fraction(103993, 33102), Fraction(104348, 33215)

# tail_constants bounds the terms (R, s) with 0 < |s| <= _NEAR_AXIS one by one.
_NEAR_AXIS = 8


def phi_excess(t1, t2):
    """The smooth polynomial branch phi - 1, defined on all of R^2; plain
    arithmetic, so it runs on floats, arrays and sympy symbols alike."""
    # grouping keeps the value bitwise symmetric under t1 <-> t2
    w = 2.0 - (t1 + t2)
    return -40.0 * ((1.0 - t1) * (1.0 - t2)) * (1.0 - w**6)


def phi(t1: float, t2: float) -> float:
    """The test function on the torus; inputs are reduced mod 1.

    The reduction lands in [0, 1]^2, not [0, 1)^2: a tiny negative input
    rounds up to 1.0 under `% 1.0` (-1e-20 % 1.0 == 1.0).  The value is
    right all the same, since the excess is 0 on the edges t1 = 1 and
    t2 = 1 (test_vanishing_on_upper_triangle_boundary proves it).
    """
    t1, t2 = t1 % 1.0, t2 % 1.0
    return 1.0 if t1 + t2 < 1.0 else 1.0 + phi_excess(t1, t2)


def alpha2_exact(t=2.0 ** (-5.0 / 3.0)):
    """Exact minimum 1 - 15 t of phi over the upper triangle, t = 2^(-5/3)."""
    return 1 - 15 * t


def alpha2_bound(up: bool) -> Fraction:
    """An exact bound on alpha2, above it if up (below else): t = 2^(-5/3) rounds the other way."""
    return alpha2_exact(Fraction(directed_root(Fraction(1, 32), not up, k=3)))


def alpha2_numeric() -> float:
    """Minimum of phi over the upper triangle, by a ternary search along t1 = t2.

    The minimum lies on the diagonal (see the module docstring), where
    with u = 1 - t the curve t -> phi(t, t) is 1 - 40 (u^2 - 64 u^8),
    unimodal on [1/2, 1).  There 2 t >= 1, so phi(t, t) is
    1 + phi_excess(t, t), which the search evaluates on plain floats.
    """
    lo, hi = 0.5, 1.0 - 1e-12
    while hi - lo > 1e-14:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if 1.0 + phi_excess(m1, m1) <= 1.0 + phi_excess(m2, m2):
            hi = m2
        else:
            lo = m1
    x = 0.5 * (lo + hi)
    return 1.0 + phi_excess(x, x)


# ---------------------------------------------------------------------------
# Closed-form coefficients, Horner polynomials in X = 1/(pi r); valid for
# negative arguments.  Plain arithmetic, so they run on floats, on numpy
# arrays, and on the exact tables with sympy symbols or mpmath scalars.
# ---------------------------------------------------------------------------


def _scaled(r):
    """The scaled frequency 1 / (pi r) for a nonzero integer r, or an integer array."""
    return 1.0 / (_PI * r)


# Exact coefficient tables (P, Q), lowest degree first, of the forms
# X^2 P(X^2) + i X^3 Q(X^2) on the axis, on the diagonal and for the
# off-diagonal edge F; _G holds G's coefficients on h_0..h_5.
# tail_constants reads them, and the evaluators their float copies; no
# coefficient is written anywhere else.
_AXIS = ((Fraction(15, 4), Fraction(-45, 2), Fraction(675, 4), Fraction(-2025, 4)),
         (Fraction(-60, 7), Fraction(-135, 2), Fraction(675, 2), Fraction(-2025, 4)))
_DIAG = ((Fraction(10), Fraction(-210), Fraction(1575), Fraction(-4725)),
         (Fraction(55), Fraction(-630), Fraction(3150), Fraction(-4725)))
_EDGE = ((Fraction(-35, 2), Fraction(525, 4), Fraction(-1575, 4)),
         (Fraction(-105, 2), Fraction(525, 2), Fraction(-1575, 4)))
_G = (Fraction(5), Fraction(15), Fraction(-75, 2), Fraction(-75),
      Fraction(225, 2), Fraction(225, 2))


def _floats(table):
    """The float copy of a (nested) tuple of Fractions, each rounded to nearest."""
    return tuple(map(_floats, table)) if isinstance(table, tuple) else float(table)


# Every entry but -60/7 is dyadic, so its float copy is exact; -60/7 is
# rounded once, to nearest (the one inexact coefficient the floats carry).
_AXIS_F, _DIAG_F, _EDGE_F, _G_F = map(_floats, (_AXIS, _DIAG, _EDGE, _G))


def _horner(coeffs, x):
    """coeffs[0] + coeffs[1] x + coeffs[2] x^2 + ..., by Horner's rule."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = c + x * acc
    return acc


def _form(table, X):
    """X^2 P(X^2) + i X^3 Q(X^2) as (re, im), by Horner in X^2, for table = (P, Q)."""
    P, Q = table
    X2 = X * X
    return X2 * _horner(P, X2), (X2 * X) * _horner(Q, X2)


def _axis_values(r):
    """Coefficient at (r, 0) for nonzero integer r; equals (0, r)."""
    return _form(_AXIS_F, _scaled(r))


def _diag_values(r):
    """Coefficient at (r, r) for nonzero integer r."""
    return _form(_DIAG_F, _scaled(r))


def _off_expansion(X, edge=_EDGE_F, g=_G_F) -> tuple:
    """The off-diagonal form F(X) + F(Y) + X Y G[X, Y] at a fixed X, as
    polynomials in Y: coefficient tuples (A, B, C, E) in Y^2, lowest degree
    first, with

        re = A(Y^2) + Y B(Y^2),    im = C(Y^2) + Y E(Y^2).

    G = sum_k g_k h_k with h_k = sum_i X^(k-i) Y^i, so X Y h_k holds
    X^(k+1-i) Y^(i+1) for i = 0..k.  With the tails T_k = g_k + X^2 T_(k+2)
    of G's even (real) and odd (imaginary) coefficients, X Y G puts X T_k
    at Y^(k+1) and, for k >= 1, X^2 T_k at Y^k; F(Y) = Y^2 P(Y^2) + i Y^3
    Q(Y^2) adds P at Y^2, Y^4, Y^6 and Q at Y^3, Y^5, Y^7, and F(X) is the
    constant term.  Every coefficient is a polynomial in X alone, so nothing
    cancels next to the diagonal, where a difference quotient (g(X) -
    g(Y)) / (X - Y) for G would.  Takes the float tables by default, or
    the exact ones.
    """
    (p0, p1, p2), (q0, q1, q2) = edge
    g0, g1, g2, g3, g4, g5 = g
    fx_re, fx_im = _form(edge, X)
    X2 = X * X
    t4 = g4
    t2 = g2 + X2 * t4
    t0 = g0 + X2 * t2
    t5 = g5
    t3 = g3 + X2 * t5
    t1 = g1 + X2 * t3
    return ((fx_re, p0 + X2 * t2, p1 + X2 * t4, p2),
            (X * t0, X * t2, X * t4),
            (fx_im, X * t1, X * t3, X * t5),
            (X2 * t1, q0 + X2 * t3, q1 + X2 * t5, q2))


def _off_form(X, Y, d2, edge=_EDGE_F, g=_G_F):
    """D^2 (F(X) + F(Y) + X Y G[X, Y]) as (re, im), from X, Y and D^2, by
    _off_expansion at X and Horner in Y^2; the float tables by default, or
    the exact ones."""
    A, B, C, E = _off_expansion(X, edge, g)
    Y2 = Y * Y
    return ((_horner(A, Y2) + Y * _horner(B, Y2)) * d2,
            (_horner(C, Y2) + Y * _horner(E, Y2)) * d2)


def _off_values(r, s):
    """Coefficient at (r, s), r != s, both nonzero: _off_form at X = 1/(pi r),
    Y = 1/(pi s) and D = 1/(pi (r - s))."""
    D = _scaled(r - s)
    return _off_form(_scaled(r), _scaled(s), D * D)


def coeff(r1: int, r2: int) -> complex:
    """Closed-form Fourier coefficient of phi.

    Dispatch: the origin is exactly 0 (zero mean), axes use the axial
    form (identical for (r, 0) and (0, r) by symmetry), the diagonal its
    own form, and everything else the generic off-diagonal form.  The
    frequencies are read by operator.index, so numpy integers pass and
    floats fail.
    """
    r1, r2 = operator.index(r1), operator.index(r2)
    if r1 == 0 and r2 == 0:
        return 0j
    if r1 == 0 or r2 == 0:
        re, im = _axis_values(r1 if r1 != 0 else r2)
    elif r1 == r2:
        re, im = _diag_values(r1)
    else:
        re, im = _off_values(r1, r2)
    return complex(re, im)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------


def _gauss_panels(panels: int):
    """Composite 8-point Gauss-Legendre nodes and weights on [0, 1].

    The given number of equal panels, 8 nodes each.
    """
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def coeff_quadrature(rmax: int):
    """Direct numerical Fourier coefficients of phi on max(|r1|, |r2|) <= rmax.

    Independent of the closed forms.  phi is 1 + phi_excess on the upper
    triangle R2 and 1 elsewhere, and the constant 1 has coefficient 1 at
    the origin and 0 at every other frequency, so the oracle integrates
    phi_excess * exp(-2 pi i (r1 t1 + r2 t2)) over R2 alone, with the
    composite rule of _gauss_panels in each variable, and adds 1 at the
    origin.  R2 is mapped to the unit square by t2 = 1 - t1 (1 - s), with
    Jacobian t1, where the excess times the Jacobian is a polynomial of
    degree at most 9 in each variable, which 8-point Gauss integrates
    exactly, so the error comes from the exponential alone.  The rule uses
    min(128, 4 (rmax + 1)) panels: each spans less than a quarter
    wavelength of exp(-2 pi i rmax t) (and less than half of one of the
    mapped phase, whose frequency in t1 reaches 2 rmax), which leaves the
    error at round-off.  From rmax = 31 on it is the 1024-node rule.  The
    whole weight grid is summed against exp(-2 pi i r2 t2) along s for
    each r2, and one matrix product with exp(-2 pi i r1 t1) gives every
    (r1, r2) at once.

    Returns the (2 rmax + 1) x (2 rmax + 1) complex array whose entry
    [r1 + rmax, r2 + rmax] is the coefficient at (r1, r2).
    """
    import numpy as np

    t, w = _gauss_panels(min(128, 4 * (rmax + 1)))
    t1, s = t[:, None], t[None, :]
    t2 = 1.0 - t1 * (1.0 - s)
    r = np.arange(-rmax, rmax + 1)
    rows = np.exp(-2j * _PI * np.outer(r, t))
    weights = t1 * w[:, None] * w[None, :] * phi_excess(t1, t2)
    sums = np.array([np.sum(weights * np.exp(-2j * _PI * r2 * t2), axis=1) for r2 in r])
    coeffs = rows @ sums.T
    coeffs[rmax, rmax] += 1.0
    return coeffs


# ---------------------------------------------------------------------------
# Certified truncated sums
# ---------------------------------------------------------------------------


class _IntervalFields(NamedTuple):
    lo: float
    hi: float
    tail_lo: float
    tail_hi: float
    rounding_slack: float
    N: int


class ConstantInterval(_IntervalFields):
    """A certified enclosure [lo, hi] of a limit of positive sums.

    The limit is the partial sum, which lies within rounding_slack of the
    computed one, plus a truncation tail in [tail_lo, tail_hi], which
    tail_constants derives.  lo and hi are those ends rounded outward, so
    the limit lies inside and hi - lo covers the tail's width.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.lo <= self.hi:
            raise ValueError("empty interval")
        if not 0 <= self.tail_lo <= self.tail_hi:
            raise ValueError("truncation tail outside 0 <= tail_lo <= tail_hi")
        if self.hi - self.lo < self.tail_hi - self.tail_lo:
            raise ValueError("interval narrower than its truncation tail")
        if self.N < 0:
            raise ValueError("negative truncation radius")
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace checks the new fields too
        return cls(*iterable)


def _inverse_square_tail(a: int) -> tuple:
    """Exact bounds (1/a + 1/(2a^2), 1/(a - 1/2)) on sum_{k >= a} 1/k^2, a >= 1.

    The trapezoid rule overestimates, and the midpoint rule
    underestimates, the integral of the convex 1/x^2 (the Euler-Maclaurin
    comparison of a sum with its integral).
    """
    a = Fraction(a)
    return 1 / a + 1 / (2 * a * a), 1 / (a - Fraction(1, 2))


def _interval(total: float, terms: int, per_term: tuple, N: int) -> ConstantInterval:
    """Enclosure of a sum truncated at N whose terms beyond N lie in per_term / k^2.

    total is the fold of `terms` nonnegative terms, so it is also their
    largest partial sum; the rounding slack is terms * eps * total.
    """
    slack = terms * _EPS * total
    k_lo, k_hi = _inverse_square_tail(N + 1)
    tail_lo = directed_root(per_term[0] * k_lo, up=False)
    tail_hi = directed_root(per_term[1] * k_hi, up=True)
    lo = directed_root(Fraction(total) - Fraction(slack) + Fraction(tail_lo), up=False)
    hi = directed_root(Fraction(total) + Fraction(slack) + Fraction(tail_hi), up=True)
    return ConstantInterval(lo=lo, hi=hi, tail_lo=tail_lo, tail_hi=tail_hi,
                            rounding_slack=slack, N=N)


def _lead_rest(table, u) -> tuple:
    """(|P_0|, rest): |x^2 P(x^2) + i x^3 Q(x^2) - P_0 x^2| <= rest x^2 for |x| <= u."""
    P, Q = table
    rest = (sum(abs(c) * u ** (2 * k) for k, c in enumerate(P) if k)
            + u * sum(abs(c) * u ** (2 * k) for k, c in enumerate(Q)))
    return abs(P[0]), rest


def _g_rest(u, v) -> Fraction:
    """sum_{k >= 1} |g_k| h_k(u, v), which bounds |G[X, Y] - g_0| for |X| <= u, |Y| <= v."""
    total, h, u_k = Fraction(0), Fraction(1), Fraction(1)
    for g in _G[1:]:
        u_k *= u
        h = v * h + u_k  # h_k = v h_(k-1) + u^k
        total += abs(g) * h
    return total


def _magnitude_bounds(table, lo, hi) -> tuple:
    """Bounds on |x^2 P(x^2) + i x^3 Q(x^2)| over 0 < lo <= x <= hi, monomial by
    monomial; the square roots are rounded outward to floats."""
    lo2, hi2 = lo * lo, hi * hi
    squares = []
    for part, lo_k, hi_k in zip(table, (lo2, lo2 * lo), (hi2, hi2 * hi)):
        a = b = 0
        for c in part:
            ends = sorted((c * lo_k, c * hi_k))
            a, b = a + ends[0], b + ends[1]
            lo_k, hi_k = lo_k * lo2, hi_k * hi2
        squares.append((max(a, -b, 0) ** 2, max(-a, b) ** 2))
    return tuple(Fraction(directed_root(re + im, up, k=2))
                 for (re, im), up in zip(zip(*squares), (False, True)))


def _over_pi(q: Fraction, power: int, up: bool) -> Fraction:
    """q / pi^power, rounded up (or down) whatever the sign of q."""
    return q / (_PI_LO if (q >= 0) == up else _PI_HI) ** power


def _axis_constants(N: int) -> tuple:
    """The (a_lo, a_hi) of tail_constants, which c_axial needs alone."""
    a0, rest = _lead_rest(_AXIS, 1 / (_PI_LO * (N + 1)))
    return (max(Fraction(0), _over_pi(4 * (a0 - rest), 2, up=False)),
            _over_pi(4 * (a0 + rest), 2, up=True))


def _ell(N: int) -> Fraction:
    """ell(N) >= (1 + H_R) / R for every R > N: H_R <= 1 + ln R, (2 + ln x) / x
    falls, and ln(N + 1) < 0.7 bitlen(N + 1) as ln 2 < 0.7."""
    return (2 + Fraction(7, 10) * (N + 1).bit_length()) / (N + 1)


def _pair_factor(t):
    """(1 / (1 - t))^2 + (1 / (1 + t))^2, rising on 0 <= t < 1: the weight
    (R / (R - s))^2 + (R / (R + s))^2 of the pair +-s of shell R at t = s / R."""
    return 2 * (1 + t * t) / (1 - t * t) ** 2


def _range_sums(N: int, S: int) -> tuple:
    """(band, middle): for each range of tail_constants, bounds ((a_lo, a_hi),
    (b_lo, b_hi), (c_lo, c_hi)) on the sums of a, b and c over it in any
    shell R > N, S the near-axis count; c_hi also bounds the sum of |c|."""
    ell, zeta_hi = _ell(N), _PI_HI**2 / 6
    a = (_PI_LO**2 / 6 - Fraction(2, N + 1), zeta_hi)
    band = (a, (a[0], zeta_hi + 2 * ell + Fraction(2, N)), (a[0], zeta_hi + ell))
    k_lo, k_hi = _inverse_square_tail(S + 1)
    c_abs = 2 * ell + Fraction(2, N + 1)
    return band, ((0, Fraction(3, N + 1)),
                  (2 * k_lo - Fraction(3, N) - 2 * ell, 2 * k_hi + 2 * ell + Fraction(2, N + 1)),
                  (-c_abs, c_abs))


def tail_constants(N: int) -> tuple:
    """Exact ((a_lo, a_hi), (m_lo, m_hi)) with, for every r, R > N >= 1,

        a_lo <= 4 |c(r, 0)| r^2 <= a_hi,    m_lo <= shell(R) R^2 <= m_hi,

    so the tails of c_axial(N) and c_main(N) lie in a_* and m_* times
    sum_{k > N} 1/k^2 (see _inverse_square_tail).  Everything is read
    from the tables _AXIS, _DIAG, _EDGE and _G.

    Each form is P_0 x^2 + rest with |rest| <= x^2 rest(u) for |x| <= u
    (_lead_rest); beyond N, |X| = 1/(pi R) <= u = 1/(pi (N + 1)).  So on
    the axis 4 |c| r^2 = (4/pi^2) (|P_0| +- rest(u)), and likewise
    2 |c(R, R)| R^2 on the diagonal.  By _shell_sums, shell(R) also holds
    4 |c(R, s)| for s in [-R, R - 1] \\ {0} (weight 2 at s = -R), each
    D^2 |E| with E = F(X) + F(Y) + X Y G, in three ranges:

    * near the axis, 0 < |s| <= S = min(_NEAR_AXIS, N // 2): |E| is
      |F(Y)| (bounded over 1/(pi_hi |s|) <= |Y| <= 1/(pi_lo |s|) by
      _magnitude_bounds) +- (|F(X)| + |X Y G|), and the pair +-s carries
      _pair_factor(|s| / R), in [2, _pair_factor(|s| / (N + 1))] (a
      negative lower bound of a term stays valid);
    * the band R/2 <= s < R (|Y| <= 2u) and the middle (|Y| <= v =
      1/(pi (S + 1))): E = -(p_0 (X^2 + Y^2) - g_0 X Y) + rho, with
      p_0 = -P_0 = 35/2 > g_0 / 2 = 5/2, so the lead is negative
      definite, and |rho| <= X^2 rest(u) + Y^2 rest(2u or v) + |X Y|
      g_rest (_g_rest).
      pi^4 R^2 D^2 times X^2, Y^2 and X Y are a = 1/m^2, b = (1/s +
      1/m)^2 and c = (1/s + 1/m)/m with m = R - s, summed over each range
      (_range_sums) by partial fractions, zeta(2) = pi^2/6,
      _inverse_square_tail and _ell(N) >= (1 + H_R) / R.  The lower
      bound drops the term s = -R and the negative-s part of -g_0 c.

    Every step rounds the safe way, with _PI_LO < pi < _PI_HI; a lower
    bound that comes out negative is replaced by 0.
    """
    N = operator.index(N)
    if N < 1:
        raise ValueError("N must be positive")
    S = min(_NEAR_AXIS, N // 2)
    u = 1 / (_PI_LO * (N + 1))
    zero = Fraction(0)

    p0, rx = _lead_rest(_EDGE, u)
    g0 = _G[0]
    near_lo = near_hi = zero
    f_x, xy_g = u * u * (p0 + rx), u * (abs(g0) + _g_rest(u, 1 / _PI_LO)) / _PI_LO
    for j in range(1, S + 1):
        f_lo, f_hi = _magnitude_bounds(_EDGE, 1 / (_PI_HI * j), 1 / (_PI_LO * j))
        delta = f_x + xy_g / j  # >= |F(X)| + |X Y G|
        near_lo += 2 * (f_lo - delta)
        near_hi += _pair_factor(Fraction(j, N + 1)) * (f_hi + delta)

    def summed(v, a, b, c):
        """Bounds on pi^4 R^2 sum D^2 |E| over a range with |Y| <= v.

        a, b and c are (lo, hi) bounds on the sums of a, b and c over the
        range, and c[1] also bounds the sum of |c|.
        """
        rest = a[1] * rx + b[1] * _lead_rest(_EDGE, v)[1] + c[1] * _g_rest(u, v)
        return (p0 * (a[0] + b[0]) - g0 * c[1] - rest, p0 * (a[1] + b[1]) - g0 * c[0] + rest)

    band_sums, middle_sums = _range_sums(N, S)
    band = summed(2 * u, *band_sums)
    middle = summed(1 / (_PI_LO * (S + 1)), *middle_sums)

    d0, rd = _lead_rest(_DIAG, u)
    shell = [_over_pi(2 * (d0 + sign * rd) + 4 * near, 2, up) + _over_pi(4 * (b + m), 4, up)
             for sign, near, b, m, up in ((-1, near_lo, band[0], middle[0], False),
                                          (1, near_hi, band[1], middle[1], True))]
    return _axis_constants(N), (max(zero, shell[0]), shell[1])


def c_axial(N: int) -> ConstantInterval:
    """Certified axial coefficient sum over 0 < |r| <= N (both axes).

    The terms are |c(r, 0)|, |c(-r, 0)|, |c(0, r)| and |c(0, -r)| for
    r = 1..N.  |c(-r, 0)| = |c(r, 0)| bit for bit: X flips sign exactly,
    re is even in X and im odd; the last two follow by the axis symmetry.
    So the fold is 4 * fsum over r > 0, as the scaling by 4 is exact.
    Two-sided tail from _axis_constants; rounding slack counts all 4N terms.
    """
    N = operator.index(N)
    if N < 1:
        raise ValueError("N must be positive")
    total = math.fsum(math.hypot(*_axis_values(r)) for r in range(1, N + 1))
    return _interval(4 * total, 4 * N, _axis_constants(N), N)


def _shell_tables(N: int) -> tuple:
    """(y, d2) with y[m] = 1/(pi m) and d2[m] = y[m]^2 for m = 1..2N: every
    Y = 1/(pi s) and D^2 = 1/(pi (R - s))^2 of the shells R <= N.  Slot 0
    is never read."""
    y = [0.0, *map(_scaled, range(1, 2 * N + 1))]
    return y, [v * v for v in y]


def _shell_terms(R: int, y: list, d2: list) -> list:
    """The 2R terms |c(R, s)| of shell R's right side, s in [-R, R] \\ {0},
    in the order s = 1, -1, 2, -2, ..., R - 1, 1 - R, then -R and R.

    y and d2 are the tables of _shell_tables, for any N >= R.  At X = y[R],
    _off_expansion gives re = A(Y^2) + Y B(Y^2) and im = C(Y^2) + Y E(Y^2),
    and Y = 1/(pi s) flips sign exactly with s, so one evaluation of the
    four parts at Y = y[s], by the Horner steps of _off_form, gives both
    terms of the pair +-s: D^2 = d2[R -+ s] times the even part +- the odd
    part.  The term s = -R and the diagonal point s = R are evaluated on
    their own.
    """
    (a0, a1, a2, a3), (b0, b1, b2), (c0, c1, c2, c3), (e0, e1, e2, e3) = _off_expansion(y[R])
    hypot = math.hypot
    terms = []
    for Y, d2_minus, d2_plus in zip(y[1:R], d2[R - 1 : 0 : -1], d2[R + 1 : 2 * R]):
        Y2 = Y * Y
        re = a0 + Y2 * (a1 + Y2 * (a2 + Y2 * a3))
        re_odd = Y * (b0 + Y2 * (b1 + Y2 * b2))
        im = c0 + Y2 * (c1 + Y2 * (c2 + Y2 * c3))
        im_odd = Y * (e0 + Y2 * (e1 + Y2 * (e2 + Y2 * e3)))
        terms += (hypot((re + re_odd) * d2_minus, (im + im_odd) * d2_minus),
                  hypot((re - re_odd) * d2_plus, (im - im_odd) * d2_plus))
    terms += (hypot(*_off_values(R, -R)), hypot(*_diag_values(R)))
    return terms


def _shell_sums(N: int) -> list:
    """Sums of |c| over the shells R = 1..N, in ascending R.

    Shell R is evaluated on its right side alone, the 2R terms of
    _shell_terms.  The left side mirrors it through (r, s) -> (-r, -s),
    and the top and bottom sides through (r, s) -> (s, r) minus the two
    corners they do not own, so the shell sum is 4 * right - 2 (|c(R, -R)|
    + |c(R, R)|): math.fsum of the terms less the two corners' halves,
    times 4, correctly rounded, as the halving and the scaling are exact.
    """
    y, d2 = _shell_tables(N)
    sums = []
    for R in range(1, N + 1):
        terms = _shell_terms(R, y, d2)
        terms += (-0.5 * terms[-2], -0.5 * terms[-1])
        sums.append(4.0 * math.fsum(terms))
    return sums


def c_main(N: int) -> ConstantInterval:
    """Certified off-axis coefficient sum over shells R = 1..N.

    Shells are concentric squares max(|r1|, |r2|) = R with min != 0; the
    shell sums of _shell_sums are folded by math.fsum, correctly rounded.
    Two-sided tail from tail_constants; slack counts all 4N^2 lattice
    terms.
    """
    N = operator.index(N)
    if N < 1:
        raise ValueError("N must be positive")
    return _interval(math.fsum(_shell_sums(N)), 4 * N * N, tail_constants(N)[1], N)


def phi_grid_csv(path, m: int) -> None:
    """Dump the surface of phi on an m x m uniform grid.

    Row-major CSV with header t1,t2,phi; grid points i/m for i < m.  The
    rows are written as they are computed, one point at a time.
    """
    if m < 2:
        raise ValueError("grid too small")
    with open(path, "w") as fh:
        fh.write("t1,t2,phi\n")
        for i in range(m):
            t1 = i / m
            fh.writelines(f"{t1:.17g},{j / m:.17g},{phi(t1, j / m):.17g}\n" for j in range(m))

"""The two-variable test function, its Fourier coefficients, and the
certified truncated coefficient sums used by the final upper bound.

The function is 1-periodic in each variable and piecewise polynomial on
the unit square: with the lower/upper triangles

    R1 = {t1 + t2 < 1},    R2 = {t1 + t2 >= 1},

the test function is

    phi = 1                                                 on R1,
    phi = 1 - 40 (1-t1)(1-t2) (1 - (2-t1-t2)^6)             on R2.

The excess phi - 1 vanishes on the boundary of R2, phi has zero mean,
alpha1 = 1 on R1, and the exact minimum on R2 is 1 - 15/2^(5/3)
(attained on the symmetric diagonal at 1 - t = 2^(-4/3)).

Closed-form coefficients exist on the axes, on the diagonal, and off
the diagonal.  They are short polynomials with small rational
coefficients in the scaled frequencies X = 1/(pi r), Y = 1/(pi s), so pi
enters only through X, Y and D = 1/(pi (r - s)), and they hold at
negative integers too.  The axis and diagonal forms are X^2 (even
polynomial) + i X^3 (even polynomial); off the diagonal

    c(r, s) = D^2 (F(X) + F(Y) + X Y G[X, Y]),

where F is a one-variable polynomial and G is the divided difference
(g(X) - g(Y)) / (X - Y) of a polynomial g, summed from the complete
homogeneous polynomials h_k = sum_i X^i Y^(k-i) so that nothing cancels
next to the diagonal.  Two signs in the off-diagonal form (the D^2 Y^4
real term and the sign joining the imaginary block) are pinned by the
independent quadrature oracle in the test suite, and by the r <-> s
symmetry of the function.

Certified sums.  The axial sum over 0 < |r| <= N of the two axis
coefficient magnitudes differs from its limit by less than 5/N; the main
sum over concentric square shells max(|r1|, |r2|) = R <= N (min != 0)
differs by less than 40/N.  Both are accumulated with Neumaier
compensation in a fixed documented order, and a conservative rounding
slack of terms * eps_machine * peak_running_magnitude is folded into both
interval ends.  Since phi is real and symmetric, |c(r, s)| = |c(s, r)| =
|c(-r, -s)|, so each shell is evaluated on its right side alone (r1 = R,
r2 ascending, one numpy reduction) and expanded to the whole shell by
_shell_total; shells are folded in ascending R.  The slack still counts
all 4N^2 lattice terms.

Of the off-diagonal form on shell R, Y, F(Y) and D^2 depend on s or on
R - s alone, so c_main builds them once per call as tables over
s = -N..N and R - s = 1..2N (with the diagonal magnitudes), and each
shell reads contiguous slices; only the h_k recursion, G, the
combination and the hypot run per term.  Every term keeps the bits of
the scalar path _off_values: the tables apply the same elementwise
formulas to the same arguments (R - s is exact in floats), and both
paths hand them to the one combination _off_combine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .fourier1d import ternary_argmin

_PI = np.pi

_EPS = float(np.finfo(np.float64).eps)

# Decay envelopes (per 1/r^2 resp. the stated rational expressions).
AXIAL_ENVELOPE = (15.0 + 8.0 * np.sqrt(15.0)) / (4.0 * _PI**2)
DIAGONAL_ENVELOPE = 30.0 / _PI**2
GENERAL_ENVELOPE_CROSS = 105.0 / _PI**4
GENERAL_ENVELOPE_SQUARES = 420.0 / _PI**4

# Certified truncation tails: limit minus partial sum is < TAIL / N.
AXIAL_TAIL = 5.0
MAIN_TAIL = 40.0

# Shell-sum tail constants for the two lattice sums used above.
SHELL_SQUARES_BOUND = 4.0 * _PI**2 / 3.0
SHELL_CROSS_BOUND = 4.0 * (_PI**2 / 3.0 + 1.0)


def phi_excess(t1, t2):
    """The smooth polynomial branch phi - 1, defined on all of R^2."""
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    # grouping keeps the value bitwise symmetric under t1 <-> t2
    w = 2.0 - (t1 + t2)
    out = -40.0 * ((1.0 - t1) * (1.0 - t2)) * (1.0 - w**6)
    return float(out) if out.ndim == 0 else out


def phi(t1, t2):
    """The test function on the torus; inputs are reduced mod 1 into [0, 1)^2."""
    t1 = np.mod(np.asarray(t1, dtype=float), 1.0)
    t2 = np.mod(np.asarray(t2, dtype=float), 1.0)
    out = np.where(t1 + t2 < 1.0, 1.0, 1.0 + phi_excess(t1, t2))
    return float(out) if out.ndim == 0 else out


def alpha2_exact() -> float:
    """Exact minimum of phi over the upper triangle."""
    return 1.0 - 15.0 * 2.0 ** (-5.0 / 3.0)


def _upper_grid_min(grid: int) -> float:
    """Minimum of phi over the midpoint grid points with t1 + t2 >= 1.

    Scanned one row t1 = x at a time, so memory stays O(grid).
    """
    t = (np.arange(grid, dtype=float) + 0.5) / grid
    return min(float(phi(x, t[x + t >= 1.0]).min(initial=np.inf)) for x in t)


def alpha2_numeric(grid: int = 2000) -> float:
    """Dense-grid minimum over the upper triangle, refined along t1 = t2.

    The minimizer sits on the symmetric diagonal, so the shared ternary
    search of t -> phi(t, t) on [1/2, 1) sharpens the grid value; with
    u = 1 - t that curve is 1 - 40 (u^2 - 64 u^8), unimodal there.
    """
    x = ternary_argmin(lambda t: phi(t, t), 0.5, 1.0 - 1e-12)
    return min(_upper_grid_min(grid), phi(x, x))


def excess_row_integral(t1):
    """Closed form of integral_{1-t1}^{1} (phi - 1)(t1, t2) dt2.

    A cubic-plus-degree-9 polynomial in (1 - t1); its full integral over
    [0, 1] is -1, which is what makes the function zero-mean.
    """
    u = 1.0 - np.asarray(t1, dtype=float)
    out = -15.0 * u + (240.0 / 7.0) * u**2 - 20.0 * u**3 + (5.0 / 7.0) * u**9
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Closed-form coefficients, Horner polynomials in X = 1/(pi r); valid for
# negative arguments.
# ---------------------------------------------------------------------------


def _scaled(r):
    """The scaled frequency 1 / (pi r) for a nonzero integer array r."""
    return 1.0 / (_PI * np.asarray(r, dtype=float))


def _axis_values(r):
    """Coefficient at (r, 0) for nonzero integer array r; equals (0, r)."""
    X = _scaled(r)
    X2 = X * X
    re = X2 * (15.0 / 4.0 + X2 * (-45.0 / 2.0 + X2 * (675.0 / 4.0 - (2025.0 / 4.0) * X2)))
    im = -(X2 * X) * (60.0 / 7.0 + X2 * (135.0 / 2.0 + X2 * (-675.0 / 2.0 + (2025.0 / 4.0) * X2)))
    return re, im


def _diag_values(r):
    """Coefficient at (r, r) for nonzero integer array r."""
    X = _scaled(r)
    X2 = X * X
    re = X2 * (10.0 + X2 * (-210.0 + X2 * (1575.0 - 4725.0 * X2)))
    im = (X2 * X) * (55.0 + X2 * (-630.0 + X2 * (3150.0 - 4725.0 * X2)))
    return re, im


def _off_edge(X):
    """The one-variable part F(X) of the off-diagonal form, as (re, im)."""
    X2 = X * X
    re = X2 * (-35.0 / 2.0 + X2 * (525.0 / 4.0 - (1575.0 / 4.0) * X2))
    im = (X2 * X) * (-105.0 / 2.0 + X2 * (525.0 / 2.0 - (1575.0 / 4.0) * X2))
    return re, im


def _off_combine(X, Y, fx, fy, d2):
    """D^2 (F(X) + F(Y) + X Y G[X, Y]) as (re, im), from F(X), F(Y) and D^2.

    The divided difference G is summed from the complete homogeneous h_k,
    never as a difference quotient, which would cancel next to the
    diagonal.  Augmented assignments update only temporaries made here, so
    no input is written; the plain expression form, one new array per
    operation, runs c_main about 1.7x slower.
    """
    X2 = X * X
    h = X + Y  # h1
    g_im = 15.0 * h
    h = Y * h
    h += X2  # h2
    g_re = (-75.0 / 2.0) * h
    g_re += 5.0
    h *= Y
    h += X2 * X  # h3
    g_im -= 75.0 * h
    h *= Y
    h += X2 * X2  # h4
    g_re += (225.0 / 2.0) * h
    h *= Y
    h += X2 * X2 * X  # h5
    g_im += (225.0 / 2.0) * h
    XY = X * Y
    g_re *= XY
    g_re += fx[0] + fy[0]
    g_re *= d2
    g_im *= XY
    g_im += fx[1] + fy[1]
    g_im *= d2
    return g_re, g_im


def _off_values(r, s):
    """Coefficient at (r, s), r != s, both nonzero; symmetric in (r, s).

    _off_combine with X = 1/(pi r), Y = 1/(pi s) and D = 1 / (pi (r - s)).
    """
    X, Y = _scaled(r), _scaled(s)
    D = 1.0 / (_PI * (np.asarray(r, dtype=float) - np.asarray(s, dtype=float)))
    return _off_combine(X, Y, _off_edge(X), _off_edge(Y), D * D)


def coeff(r1: int, r2: int) -> complex:
    """Closed-form Fourier coefficient of phi.

    Dispatch: the origin is exactly 0 (zero mean), axes use the axial
    form (identical for (r, 0) and (0, r) by symmetry), the diagonal its
    own form, and everything else the generic off-diagonal form.
    """
    r1 = int(r1)
    r2 = int(r2)
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


def _gauss_panels():
    """Composite 8-point Gauss-Legendre nodes and weights on [0, 1].

    128 equal panels of 8 nodes each, 1024 nodes in all; the rule is fixed.
    """
    x, w = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, 1.0, 129)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def coeff_quadrature(rmax: int) -> np.ndarray:
    """Direct numerical Fourier coefficients of phi on max(|r1|, |r2|) <= rmax.

    Independent of the closed forms: integrates phi * exp(-2 pi i (r1 t1
    + r2 t2)) with the composite rule of _gauss_panels in each variable.
    The square is cut along t1 + t2 = 1 and each closed triangle is mapped
    to the unit square, so the integrand is smooth on each piece:
      lower triangle: t2 = (1 - t1) s, Jacobian (1 - t1);
      upper triangle: t2 = 1 - t1 (1 - s), Jacobian t1.
    Each triangle's weight grid is built in blocks of 128 t1 rows, and
    exp(-2 pi i q t2) for q = 0..rmax is summed along s, row by row; the
    weights are real, so the row sums for r2 = -q are their conjugates,
    bit for bit.  One matrix product with exp(-2 pi i r1 t1) per r2 gives
    every r1 at once.

    Returns the (2 rmax + 1) x (2 rmax + 1) complex array whose entry
    [r1 + rmax, r2 + rmax] is the coefficient at (r1, r2).
    """
    t, w = _gauss_panels()
    s = t[None, :]
    r = np.arange(-rmax, rmax + 1)
    rows = np.exp(-2j * _PI * np.outer(r, t))
    out = np.zeros((r.size, r.size), dtype=complex)
    for upper in (False, True):
        blocks = []
        for t1, w1 in zip(t.reshape(-1, 128, 1), w.reshape(-1, 128, 1)):
            jac, t2 = (t1, 1.0 - t1 * (1.0 - s)) if upper else (1.0 - t1, (1.0 - t1) * s)
            weights = jac * w1 * w[None, :] * phi(t1, t2)
            blocks.append([np.sum(weights * np.exp(-2j * _PI * q * t2), axis=1)
                           for q in range(rmax + 1)])
        sums = np.concatenate(blocks, axis=1)  # [q, t1]
        for j, r2 in enumerate(r):
            out[:, j] += rows @ (sums[r2] if r2 >= 0 else np.conj(sums[-r2]))
    return out


# ---------------------------------------------------------------------------
# Certified truncated sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantInterval:
    """A certified enclosure [lo, hi] of a limit of positive sums.

    hi - lo covers the analytic truncation tail plus rounding slack on
    both ends, so the limit lies inside the interval whenever the tail
    bound is valid.
    """

    lo: float
    hi: float
    truncation_tail: float
    rounding_slack: float
    N: int

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError("empty interval")
        if self.hi - self.lo < self.truncation_tail:
            raise ValueError("interval narrower than its truncation tail")
        if self.N < 0:
            raise ValueError("negative truncation radius")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _compensated_fold(values) -> tuple:
    """Neumaier-compensated sum in the given order; also the peak |partial|."""
    s = 0.0
    comp = 0.0
    peak = 0.0
    for v in values:
        t = s + v
        if abs(s) >= abs(v):
            comp += (s - t) + v
        else:
            comp += (v - t) + s
        s = t
        if abs(s) > peak:
            peak = abs(s)
    total = s + comp
    return total, max(peak, abs(total))


def _interval(total: float, tail: float, slack: float, N: int) -> ConstantInterval:
    total, tail, slack = float(total), float(tail), float(slack)
    lo = total - slack
    hi = total + tail + slack
    # Construction in floats may round hi - lo a few ulps under the tail;
    # bump hi upward (conservative) until the enclosure property holds.
    while hi - lo < tail:
        hi = float(np.nextafter(hi, np.inf))
    return ConstantInterval(lo=lo, hi=hi, truncation_tail=tail, rounding_slack=slack, N=N)


def c_axial(N: int) -> ConstantInterval:
    """Certified axial coefficient sum over 0 < |r| <= N (both axes).

    Traversal: |r| ascending, within each |r| the block
    (r,0), (-r,0), (0,r), (0,-r), the last two via the axis symmetry.
    Tail bound 5/N; rounding slack 4N * eps * peak running magnitude.
    """
    if N < 1:
        raise ValueError("N must be positive")
    # |c(-r, 0)| = |c(r, 0)| bit for bit: X flips sign exactly, re is even
    # in X and im odd, so one magnitude serves all four points of a block.
    m = np.hypot(*_axis_values(np.arange(1, N + 1, dtype=np.int64))).tolist()
    total, peak = _compensated_fold(chain.from_iterable(zip(m, m, m, m)))
    slack = 4.0 * N * _EPS * peak
    return _interval(total, AXIAL_TAIL / N, slack, N)


def shell_lattice(R: int) -> tuple:
    """Lattice points with max(|r1|, |r2|) = R and min(|r1|, |r2|) != 0.

    Fixed traversal order (8R - 4 points): right side r1 = R with r2
    ascending over [-R, R] \\ {0}; left side r1 = -R likewise; then top
    r2 = R and bottom r2 = -R with r1 ascending over (-R, R) \\ {0}.
    The tests sum it as the reference for the folded shell sums of
    c_main and shell_sum_bounds_check.
    """
    if R < 1:
        raise ValueError("shell radius must be positive")
    side = np.concatenate([np.arange(-R, 0), np.arange(1, R + 1)])
    inner = np.concatenate([np.arange(-R + 1, 0), np.arange(1, R)])
    r1 = np.concatenate([np.full(side.size, R), np.full(side.size, -R), inner, inner])
    r2 = np.concatenate([side, side, np.full(inner.size, R), np.full(inner.size, -R)])
    return r1, r2


def _shell_total(right) -> float:
    """Sum over shell R of a term with the symmetries of |c|, from its right side.

    right holds the terms at (R, s) for s ascending over [-R, R] \\ {0},
    so the diagonal point (R, R) is last and (R, -R) first.  The left side
    mirrors it through (r, s) -> (-r, -s), and the top and bottom sides
    through (r, s) -> (s, r) minus the two corners they do not own, hence
    4 * right - 2 * (right[-1] + right[0]).
    """
    return 4.0 * float(np.add.reduce(right)) - 2.0 * float(right[-1] + right[0])


@dataclass(frozen=True)
class _ShellTables:
    """Tables of c_main's shell kernel, for shells R <= N.

    Entry N + s of y, and column N + s of f, hold Y = 1/(pi s) and F(Y)
    as (re, im) for s = -N..N, with Y = F = 0 in the slot s = 0, whose
    term is dropped; entry 2N - m of d2 holds D^2 = (1/(pi m))^2 for
    m = 1..2N; diag[R - 1] is |c(R, R)|.  Shell R reads the contiguous
    slices s = -R..R-1 and m = R - s = 2R..1.  No shell writes to them.
    """

    y: np.ndarray
    f: np.ndarray
    d2: np.ndarray
    diag: np.ndarray


def _shell_tables(N: int) -> _ShellTables:
    """Build the tables of _ShellTables once for the shells R = 1..N."""
    y = np.concatenate([_scaled(np.arange(-N, 0)), [0.0], _scaled(np.arange(1, N + 1))])
    d = _scaled(np.arange(2 * N, 0, -1))
    diag = np.hypot(*_diag_values(np.arange(1, N + 1)))
    return _ShellTables(y, np.array(_off_edge(y)), d * d, diag)


def _shell_terms(R: int, t: _ShellTables) -> np.ndarray:
    """The 2R magnitudes |c(R, s)| of shell R's right side, from the tables.

    Order: s ascending over [-R, R] \\ {0}, the diagonal point (R, R) last.
    Every term has the bits of np.hypot(*_off_values(R, s)), resp.
    np.hypot(*_diag_values(R)); the module docstring says why.
    """
    N = t.diag.size
    row = slice(N - R, N + R)
    re, im = _off_combine(t.y[N + R], t.y[row], t.f[:, N + R], t.f[:, row], t.d2[2 * N - 2 * R :])
    mags = np.hypot(re, im)
    return np.concatenate([mags[:R], mags[R + 1 :], t.diag[R - 1 : R]])


def _shell_partial(R: int, tables: _ShellTables) -> float:
    """Sum of |coefficient| over shell R, from tables = _shell_tables(N), N >= R."""
    return _shell_total(_shell_terms(R, tables))


def c_main(N: int) -> ConstantInterval:
    """Certified off-axis coefficient sum over shells R = 1..N.

    Shells are concentric squares max(|r1|, |r2|) = R with min != 0; each
    shell's sum comes from _shell_partial on tables built once for this
    N, and the partials are folded sequentially in ascending R with
    Neumaier compensation.  Tail bound 40/N; slack counts all 4N^2
    lattice terms.
    """
    if N < 1:
        raise ValueError("N must be positive")
    tables = _shell_tables(N)
    total, peak = _compensated_fold(_shell_partial(R, tables) for R in range(1, N + 1))
    slack = 4 * N * N * _EPS * peak
    return _interval(total, MAIN_TAIL / N, slack, N)


# ---------------------------------------------------------------------------
# Lemma verification utilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShellTailReport:
    """Partial lattice-sum tails versus their closed-form shell bounds."""

    N: int
    Rmax: int
    squares_tail: float
    squares_bound: float
    cross_tail: float
    cross_bound: float

    @property
    def ok(self) -> bool:
        return self.squares_tail < self.squares_bound and self.cross_tail < self.cross_bound


def shell_sum_bounds_check(N: int, Rmax: int) -> ShellTailReport:
    """Sum 1/(r1 r2)^2 and 1/(|r1 r2| (r1-r2)^2) over shells N < R <= Rmax.

    The first runs over all shell points with min != 0, the second
    additionally excludes the diagonal.  Both summands have the symmetries
    of |c|, so each shell is _shell_total of its 2R right-side terms, with
    a zero in the diagonal slot of the second.  Both partial tails must
    stay under their respective bounds (4 pi^2 / 3) / N and
    4 (pi^2 / 3 + 1) / N.
    """
    if Rmax <= N:
        raise ValueError("Rmax must exceed N")
    squares = cross = 0.0
    for R in range(N + 1, Rmax + 1):
        s = np.concatenate([np.arange(-R, 0), np.arange(1, R)]).astype(float)
        squares += _shell_total(1.0 / (R * R * np.append(s, R) ** 2))
        cross += _shell_total(np.append(1.0 / (np.abs(R * s) * (R - s) ** 2), 0.0))
    return ShellTailReport(
        N=N,
        Rmax=Rmax,
        squares_tail=squares,
        squares_bound=SHELL_SQUARES_BOUND / N,
        cross_tail=cross,
        cross_bound=SHELL_CROSS_BOUND / N,
    )


@dataclass(frozen=True)
class EnvelopeReport:
    """Worst observed |coefficient| / envelope ratio over a sample."""

    worst_ratio: float
    worst_pair: tuple

    @property
    def ok(self) -> bool:
        return self.worst_ratio <= 1.0


def decay_envelope(r1: int, r2: int) -> float:
    """The applicable decay envelope for a nonzero frequency pair."""
    if r1 == 0 and r2 == 0:
        raise ValueError("pair (0, 0) has no decay regime")
    if r1 == 0 or r2 == 0:
        r = r1 if r1 != 0 else r2
        return AXIAL_ENVELOPE / (r * r)
    if r1 == r2:
        return DIAGONAL_ENVELOPE / (r1 * r1)
    return GENERAL_ENVELOPE_CROSS / (abs(r1 * r2) * (r1 - r2) ** 2) + (
        GENERAL_ENVELOPE_SQUARES / (r1 * r1 * r2 * r2)
    )


def decay_envelope_check(sample) -> EnvelopeReport:
    """Measure the worst |coeff| / envelope ratio over the sample.

    Each pair's envelope, and so its regime, comes from decay_envelope,
    which rejects the origin; the report is ok when the ratio stays <= 1.
    """
    sample = list(sample)
    if not sample:
        raise ValueError("empty sample")
    worst = 0.0
    worst_pair = sample[0]
    for r1, r2 in sample:
        ratio = abs(coeff(r1, r2)) / decay_envelope(r1, r2)
        if ratio > worst:
            worst = ratio
            worst_pair = (r1, r2)
    return EnvelopeReport(worst_ratio=worst, worst_pair=tuple(worst_pair))


def phi_grid_csv(path, m: int) -> None:
    """Dump the surface of phi on an m x m uniform grid.

    Row-major CSV with header t1,t2,phi; grid points i/m for i < m.
    """
    if m < 2:
        raise ValueError("grid too small")
    t = np.arange(m, dtype=float) / m
    with open(path, "w") as fh:
        fh.write("t1,t2,phi\n")
        for i in range(m):
            row = phi(np.full(m, t[i]), t)
            fh.writelines(
                f"{t[i]:.17g},{t[j]:.17g},{row[j]:.17g}\n" for j in range(m)
            )

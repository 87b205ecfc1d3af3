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
the diagonal; they are rational in the frequencies and are evaluated
directly at negative integers too.  Two signs in the off-diagonal form
(the (r-s)^-2 s^-4 real term and the sign joining the imaginary block)
are pinned by the independent quadrature oracle in the test suite, and
by the r <-> s symmetry of the function.

Certified sums.  The axial sum over 0 < |r| <= N of the two axis
coefficient magnitudes differs from its limit by less than 5/N; the main
sum over concentric square shells max(|r1|, |r2|) = R <= N (min != 0)
differs by less than 40/N.  Both are accumulated with Neumaier
compensation in a fixed documented order, and a conservative rounding
slack of terms * eps_machine * peak_running_magnitude is folded into both
interval ends.  Since phi is real and symmetric, |c(r, s)| = |c(s, r)| =
|c(-r, -s)|, so each shell is evaluated on its right side alone (r1 = R,
r2 ascending, one numpy reduction) and expanded as
4 * right - 2 * (|c(R, R)| + |c(R, -R)|); shells are folded in ascending
R.  The slack still counts all 4N^2 lattice terms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

_PI = np.pi
_P2 = _PI**2
_P3 = _PI**3
_P4 = _PI**4
_P5 = _PI**5
_P6 = _PI**6
_P7 = _PI**7
_P8 = _PI**8
_P9 = _PI**9

_EPS = float(np.finfo(np.float64).eps)

# Decay envelopes (per 1/r^2 resp. the stated rational expressions).
AXIAL_ENVELOPE = (15.0 + 8.0 * np.sqrt(15.0)) / (4.0 * _P2)
DIAGONAL_ENVELOPE = 30.0 / _P2
GENERAL_ENVELOPE_CROSS = 105.0 / _P4
GENERAL_ENVELOPE_SQUARES = 420.0 / _P4

# Certified truncation tails: limit minus partial sum is < TAIL / N.
AXIAL_TAIL = 5.0
MAIN_TAIL = 40.0

# Shell-sum tail constants for the two lattice sums used above.
SHELL_SQUARES_BOUND = 4.0 * _P2 / 3.0
SHELL_CROSS_BOUND = 4.0 * (_P2 / 3.0 + 1.0)


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


def alpha2_numeric(grid: int = 2000) -> float:
    """Dense-grid minimum over the upper triangle, refined along t1 = t2.

    The minimizer sits on the symmetric diagonal, so a bounded golden
    scan of t -> phi(t, t) on [1/2, 1) sharpens the grid value.
    """
    t = (np.arange(grid, dtype=float) + 0.5) / grid
    t1, t2 = np.meshgrid(t, t, indexing="ij")
    vals = phi(t1, t2)
    upper = t1 + t2 >= 1.0
    grid_min = float(vals[upper].min())
    res = minimize_scalar(
        lambda x: phi(x, x),
        bounds=(0.5, 1.0 - 1e-12),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return min(grid_min, float(res.fun))


def excess_row_integral(t1):
    """Closed form of integral_{1-t1}^{1} (phi - 1)(t1, t2) dt2.

    A cubic-plus-degree-9 polynomial in (1 - t1); its full integral over
    [0, 1] is -1, which is what makes the function zero-mean.
    """
    u = 1.0 - np.asarray(t1, dtype=float)
    out = -15.0 * u + (240.0 / 7.0) * u**2 - 20.0 * u**3 + (5.0 / 7.0) * u**9
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Closed-form coefficients.  All three expressions are rational in the
# integer frequencies and valid for negative arguments.
# ---------------------------------------------------------------------------


def _axis_values(r):
    """Coefficient at (r, 0) for nonzero integer array r; equals (0, r)."""
    rf = np.asarray(r, dtype=float)
    x2 = 1.0 / (rf * rf)
    x3 = x2 / rf
    re = (15.0 / (4.0 * _P2)) * x2 * (
        1.0 - (6.0 / _P2) * x2 + (45.0 / _P4) * x2**2 - (135.0 / _P6) * x2**3
    )
    im = -(60.0 / (7.0 * _P3)) * x3 * (
        1.0
        + (63.0 / (8.0 * _P2)) * x2
        - (315.0 / (8.0 * _P4)) * x2**2
        + (945.0 / (16.0 * _P6)) * x2**3
    )
    return re, im


def _diag_values(r):
    """Coefficient at (r, r) for nonzero integer array r."""
    rf = np.asarray(r, dtype=float)
    x2 = 1.0 / (rf * rf)
    x3 = x2 / rf
    re = (10.0 / _P2) * x2 * (
        1.0 - (21.0 / _P2) * x2 + (315.0 / (2.0 * _P4)) * x2**2 - (945.0 / (2.0 * _P6)) * x2**3
    )
    im = (55.0 / _P3) * x3 * (
        1.0
        - (126.0 / (11.0 * _P2)) * x2
        + (630.0 / (11.0 * _P4)) * x2**2
        - (945.0 / (11.0 * _P6)) * x2**3
    )
    return re, im


def _off_values(r, s):
    """Coefficient at (r, s), r != s, both nonzero; symmetric in (r, s)."""
    rf = np.asarray(r, dtype=float)
    sf = np.asarray(s, dtype=float)
    x = 1.0 / rf
    y = 1.0 / sf
    q = 1.0 / (rf - sf) ** 2
    x2 = x * x
    x3 = x2 * x
    x4 = x2 * x2
    x5 = x2 * x3
    x6 = x3 * x3
    x7 = x3 * x4
    y2 = y * y
    y3 = y2 * y
    y4 = y2 * y2
    y5 = y2 * y3
    y6 = y3 * y3
    y7 = y3 * y4
    re = (
        -(1575.0 / (4.0 * _P8)) * (x6 + y6)
        + (525.0 / (4.0 * _P6)) * (x4 + y4)
        - (35.0 / (2.0 * _P4)) * (x2 + y2)
        + (225.0 / (2.0 * _P8)) * (x * y5 + x2 * y4 + x3 * y3 + x4 * y2 + x5 * y)
        - (75.0 / (2.0 * _P6)) * (x * y3 + x2 * y2 + x3 * y)
        + (5.0 / _P4) * x * y
    )
    im = (
        -(1575.0 / (4.0 * _P9)) * (x7 + y7)
        + (525.0 / (2.0 * _P7)) * (x5 + y5)
        - (105.0 / (2.0 * _P5)) * (x3 + y3)
        + (225.0 / (2.0 * _P9)) * (x * y6 + x2 * y5 + x3 * y4 + x4 * y3 + x5 * y2 + x6 * y)
        - (75.0 / _P7) * (x * y4 + x2 * y3 + x3 * y2 + x4 * y)
        + (15.0 / _P5) * (x * y2 + x2 * y)
    )
    return q * re, q * im


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
        return complex(re, im)
    if r1 == r2:
        re, im = _diag_values(r1)
        return complex(re, im)
    re, im = _off_values(r1, r2)
    return complex(re, im)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------


def _gauss_panels(m: int):
    """Composite 8-point Gauss-Legendre nodes/weights on [0, 1].

    m is the approximate node count per dimension; m // 8 panels of 8
    nodes each.  Fixed order, so accuracy improves as panels shrink.
    """
    panels = max(1, m // 8)
    x, w = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


@functools.lru_cache(maxsize=4)
def _quad_pack(m: int):
    """Precomputed grids for the split quadrature at node count m.

    The square is cut along t1 + t2 = 1 and each closed triangle is mapped
    to the unit square, so the integrand is smooth on each piece:
      lower triangle: t2 = (1 - t1) s, Jacobian (1 - t1);
      upper triangle: t2 = 1 - t1 (1 - s), Jacobian t1.
    Returns (u, B_low, B_up, W_low, W_up): u the 1D t1 nodes, B the 2D t2
    grids, W the weight * Jacobian * function-value grids.
    """
    u, wu = _gauss_panels(m)
    s, ws = _gauss_panels(m)
    W = wu[:, None] * ws[None, :]
    b_low = (1.0 - u)[:, None] * s[None, :]
    b_up = 1.0 - u[:, None] * (1.0 - s[None, :])
    a = u[:, None] + np.zeros_like(s)[None, :]
    w_low = W * (1.0 - u)[:, None] * phi(a, b_low)
    w_up = W * u[:, None] * phi(a, b_up)
    return u, b_low, b_up, w_low, w_up


def coeff_quadrature(r1: int, r2: int, m: int = 1024) -> complex:
    """Direct numerical Fourier coefficient of phi.

    Independent of the closed forms: integrates phi * exp(-2 pi i (r1 t1
    + r2 t2)) over the two triangles with a fixed-order composite rule.
    """
    if m < 256:
        raise ValueError("quadrature grid too small (need m >= 256)")
    u, b_low, b_up, w_low, w_up = _quad_pack(int(m))
    r1, r2 = int(r1), int(r2)
    total = 0j
    for b, w in ((b_low, w_low), (b_up, w_up)):
        phase = r1 * u[:, None] + r2 * b
        total += np.sum(w * np.exp(-2j * _PI * phase))
    return complex(total)


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
    rs = np.arange(1, N + 1, dtype=np.int64)
    mag_pos = np.hypot(*_axis_values(rs))
    mag_neg = np.hypot(*_axis_values(-rs))
    vals = np.empty(4 * N)
    vals[0::4] = mag_pos
    vals[1::4] = mag_neg
    vals[2::4] = mag_pos
    vals[3::4] = mag_neg
    total, peak = _compensated_fold(vals)
    slack = 4.0 * N * _EPS * peak
    return _interval(total, AXIAL_TAIL / N, slack, N)


def shell_lattice(R: int) -> tuple:
    """Lattice points with max(|r1|, |r2|) = R and min(|r1|, |r2|) != 0.

    Fixed traversal order (8R - 4 points): right side r1 = R with r2
    ascending over [-R, R] \\ {0}; left side r1 = -R likewise; then top
    r2 = R and bottom r2 = -R with r1 ascending over (-R, R) \\ {0}.
    The lemma checks walk it, and the tests sum it as the reference for
    the folded shell sums of c_main.
    """
    if R < 1:
        raise ValueError("shell radius must be positive")
    side = np.concatenate([np.arange(-R, 0), np.arange(1, R + 1)])
    inner = np.concatenate([np.arange(-R + 1, 0), np.arange(1, R)])
    r1 = np.concatenate(
        [
            np.full(side.size, R),
            np.full(side.size, -R),
            inner,
            inner,
        ]
    )
    r2 = np.concatenate(
        [
            side,
            side,
            np.full(inner.size, R),
            np.full(inner.size, -R),
        ]
    )
    return r1, r2


def _shell_partial(R: int) -> float:
    """Sum of |coefficient| over shell R, evaluated on its right side alone.

    The right side r1 = R, r2 ascending over [-R, R] \\ {0}, is one numpy
    reduction (2R terms, the diagonal point (R, R) last).  The left side
    mirrors it through |c(-r, -s)| = |c(r, s)|, and the top and bottom
    sides mirror it through |c(r, s)| = |c(s, r)| minus the two corners
    they do not own, hence 4 * right - 2 * (|c(R, R)| + |c(R, -R)|).
    """
    s = np.concatenate([np.arange(-R, 0), np.arange(1, R)])
    vals = np.empty(2 * R)
    vals[:-1] = np.hypot(*_off_values(R, s))
    vals[-1] = np.hypot(*_diag_values(R))
    right = float(np.add.reduce(vals))
    return 4.0 * right - 2.0 * float(vals[-1] + vals[0])


def c_main(N: int) -> ConstantInterval:
    """Certified off-axis coefficient sum over shells R = 1..N.

    Shells are concentric squares max(|r1|, |r2|) = R with min != 0; each
    shell's sum comes from _shell_partial, and the partials are folded
    sequentially in ascending R with Neumaier compensation.  Tail bound
    40/N; slack counts all 4N^2 lattice terms.
    """
    if N < 1:
        raise ValueError("N must be positive")
    total, peak = _compensated_fold(_shell_partial(R) for R in range(1, N + 1))
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
    additionally excludes the diagonal.  Both partial tails must stay
    under their respective bounds (4 pi^2 / 3) / N and
    4 (pi^2 / 3 + 1) / N.
    """
    if Rmax <= N:
        raise ValueError("Rmax must exceed N")
    squares = 0.0
    cross = 0.0
    for R in range(N + 1, Rmax + 1):
        r1, r2 = shell_lattice(R)
        r1f = r1.astype(float)
        r2f = r2.astype(float)
        squares += float(np.add.reduce(1.0 / (r1f * r1f * r2f * r2f)))
        off = r1 != r2
        a = r1f[off]
        b = r2f[off]
        cross += float(np.add.reduce(1.0 / (np.abs(a * b) * (a - b) ** 2)))
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
    """Worst observed |coefficient| / envelope ratio per decay regime."""

    checked_axis: int
    checked_diagonal: int
    checked_general: int
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
    """Assert |coeff| <= envelope for every pair in the sample.

    Pairs are classified automatically (axis / diagonal / general);
    the origin is rejected.
    """
    sample = list(sample)
    if not sample:
        raise ValueError("empty sample")
    counts = {"axis": 0, "diagonal": 0, "general": 0}
    worst = 0.0
    worst_pair = sample[0]
    for r1, r2 in sample:
        env = decay_envelope(r1, r2)
        if r1 == 0 or r2 == 0:
            counts["axis"] += 1
        elif r1 == r2:
            counts["diagonal"] += 1
        else:
            counts["general"] += 1
        ratio = abs(coeff(r1, r2)) / env
        if ratio > worst:
            worst = ratio
            worst_pair = (r1, r2)
    return EnvelopeReport(
        checked_axis=counts["axis"],
        checked_diagonal=counts["diagonal"],
        checked_general=counts["general"],
        worst_ratio=worst,
        worst_pair=tuple(worst_pair),
    )


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

"""Closed-form Fourier coefficients versus the quadrature oracle.

The coefficients of the piecewise-polynomial test function have exact
rational-in-frequency expressions on the axes, the diagonal, and off the
diagonal.  An independent Gauss-Legendre quadrature confirms them to
machine precision: it integrates the excess phi - 1 times
exp(-2 pi i (r1 t1 + r2 t2)) over the upper triangle, the only place the
excess is nonzero, and adds 1 at the origin.
The truncation tails of the certified sums are derived from the same
closed forms: a_lo <= 4 |c(r, 0)| r^2 <= a_hi and m_lo <= shell(R) R^2 <= m_hi
for r, R > N.
"""

import math

from additive_bases.cli import SCALE
from additive_bases.fourier2d import (
    _axis_values,
    _shell_sums,
    coeff,
    coeff_quadrature,
    phi_grid_csv,
    tail_constants,
)

quad = coeff_quadrature(7)  # every coefficient with max(|r1|, |r2|) <= 7
print("pair        closed form                     |closed - quadrature|")
for pair in ((1, 0), (0, 3), (2, 2), (1, 2), (3, -5), (-4, 7)):
    c = coeff(*pair)
    print(f"{str(pair):10s}  {c.real:+.8f} {c.imag:+.8f}i   {abs(c - quad[pair]):.2e}")

N = 100
(a_lo, a_hi), (m_lo, m_hi) = (map(float, pair) for pair in tail_constants(N))
r = range(N + 1, SCALE + 1)
axis = [4 * math.hypot(*_axis_values(x)) * x * x for x in r]
shells = [shell * x * x for x, shell in zip(r, _shell_sums(SCALE)[N:])]
print(f"\nderived, for r, R > {N}: {a_lo:.4f} <= 4|c(r,0)| r^2 <= {a_hi:.4f}, "
      f"{m_lo:.3f} <= shell(R) R^2 <= {m_hi:.3f}")
print(f"measured on r, R <= {SCALE}: 4|c(r,0)| r^2 in [{min(axis):.4f}, {max(axis):.4f}], "
      f"shell(R) R^2 in [{min(shells):.4f}, {max(shells):.4f}]")

phi_grid_csv("phi_surface.csv", 128)
print("\nwrote phi_surface.csv (128 x 128 grid, columns t1,t2,phi)")

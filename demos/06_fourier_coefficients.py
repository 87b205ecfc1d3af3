"""Closed-form Fourier coefficients versus the quadrature oracle.

The coefficients of the piecewise-polynomial test function have exact
rational-in-frequency expressions on the axes, the diagonal, and off the
diagonal.  An independent split-domain Gauss-Legendre quadrature of
phi * exp(-2 pi i (r1 t1 + r2 t2)) confirms them to machine precision.
The truncation tails of the certified sums are derived from the same
closed forms: a_lo <= 4 |c(r, 0)| r^2 <= a_hi and m_lo <= shell(R) R^2 <= m_hi
for r, R > N.
"""

import numpy as np

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
    q = quad[pair[0] + 7, pair[1] + 7]
    print(f"{str(pair):10s}  {c.real:+.8f} {c.imag:+.8f}i   {abs(c - q):.2e}")

N = 100
(a_lo, a_hi), (m_lo, m_hi) = (map(float, pair) for pair in tail_constants(N))
r = np.arange(N + 1, SCALE + 1)
axis = 4 * np.hypot(*_axis_values(r)) * r * r
shells = np.array(_shell_sums(SCALE)[N:]) * r * r
print(f"\nderived, for r, R > {N}: {a_lo:.4f} <= 4|c(r,0)| r^2 <= {a_hi:.4f}, "
      f"{m_lo:.3f} <= shell(R) R^2 <= {m_hi:.3f}")
print(f"measured on r, R <= {SCALE}: 4|c(r,0)| r^2 in [{axis.min():.4f}, {axis.max():.4f}], "
      f"shell(R) R^2 in [{shells.min():.4f}, {shells.max():.4f}]")

phi_grid_csv("phi_surface.csv", 128)
print("\nwrote phi_surface.csv (128 x 128 grid, columns t1,t2,phi)")

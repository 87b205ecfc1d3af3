"""Closed-form Fourier coefficients versus the quadrature oracle.

The coefficients of the piecewise-polynomial test function have exact
rational-in-frequency expressions on the axes, the diagonal, and off the
diagonal.  An independent split-domain Gauss-Legendre quadrature of
phi * exp(-2 pi i (r1 t1 + r2 t2)) confirms them to machine precision.
The truncation tails of the certified sums are derived from the same
closed forms: 4 |c(r, 0)| <= A / r^2 and shell(R) <= M / R^2 for r, R >= 2.
"""

import numpy as np

from additive_bases.fourier2d import (
    AXIAL_TAIL,
    MAIN_TAIL,
    _axis_values,
    _shell_partial,
    _shell_tables,
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

A, M = tail_constants()
print(f"\nderived tails: axial A = {float(A):.4f} (in use {AXIAL_TAIL}), "
      f"main M = {float(M):.3f} (in use {MAIN_TAIL})")
r = np.arange(2, 5001)
axis = 4 * np.hypot(*_axis_values(r)) * r * r
tables = _shell_tables(500)
shells = [_shell_partial(R, tables) * R * R for R in range(2, 501)]
R = int(np.argmax(shells)) + 2
print(f"worst measured 4|c(r,0)| r^2 = {axis.max():.4f} at r = {r[axis.argmax()]}, "
      f"shell(R) R^2 = {shells[R - 2]:.4f} at R = {R}")

phi_grid_csv("phi_surface.csv", 128)
print("\nwrote phi_surface.csv (128 x 128 grid, columns t1,t2,phi)")

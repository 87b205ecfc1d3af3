"""Closed-form Fourier coefficients versus the quadrature oracle.

The coefficients of the piecewise-polynomial test function have exact
rational-in-frequency expressions on the axes, the diagonal, and off the
diagonal.  An independent split-domain Gauss-Legendre quadrature of
phi * exp(-2 pi i (r1 t1 + r2 t2)) confirms them to machine precision,
and the analytic decay envelopes hold with room to spare.
"""

import numpy as np

from additive_bases.fourier2d import (
    coeff,
    coeff_quadrature,
    decay_envelope,
    decay_envelope_check,
    phi_grid_csv,
    shell_sum_bounds_check,
)

quad = coeff_quadrature(7)  # every coefficient with max(|r1|, |r2|) <= 7
print("pair        closed form                     |closed - quadrature|")
for pair in ((1, 0), (0, 3), (2, 2), (1, 2), (3, -5), (-4, 7)):
    c = coeff(*pair)
    q = quad[pair[0] + 7, pair[1] + 7]
    print(f"{str(pair):10s}  {c.real:+.8f} {c.imag:+.8f}i   {abs(c - q):.2e}")

print("\ndecay envelopes (|coeff| / envelope, closer to 1 = tighter):")
for pair in ((1, 0), (10, 0), (1, 1), (10, 10), (2, 5), (7, -3)):
    ratio = abs(coeff(*pair)) / decay_envelope(*pair)
    print(f"  {str(pair):10s} ratio = {ratio:.3f}")

sample = [(r, 0) for r in range(1, 51)] + [(r, r) for r in range(1, 51)]
rng = np.random.default_rng(1)
while len(sample) < 300:
    r1, r2 = (int(x) for x in rng.integers(-200, 201, 2))
    if r1 and r2 and r1 != r2:
        sample.append((r1, r2))
report = decay_envelope_check(sample)
print(f"\nenvelope check on {len(sample)} pairs: worst ratio {report.worst_ratio:.3f} at {report.worst_pair}")

tails = shell_sum_bounds_check(10, 2000)
print(
    f"shell tails beyond N=10: {tails.squares_tail:.4f} < {tails.squares_bound:.4f}"
    f" and {tails.cross_tail:.4f} < {tails.cross_bound:.4f}"
)

phi_grid_csv("phi_surface.csv", 128)
print("\nwrote phi_surface.csv (128 x 128 grid, columns t1,t2,phi)")

"""The one-variable Fourier argument and the constant 0.4898.

cos(4 pi t)/2 + sin(2 pi t) stays above 1/2 on the lower half-period and
above -3/2 on the upper one.  Feeding those bounds through the
exponential-sum inequality and balancing the combinatorial branch
lam^2/2 against the analytic branch (1 - 4 lam)^2 / 18 at lam = 1/7
yields a surplus of k^2/98, i.e. the covering radius is at most
(1/2 - 1/98) k^2 + k.  The package derives the bounds and the constant
in exact rationals; the grid below evaluates the function with the
math module, on 10^5 points, which include the minima t = 0, 1/4 and 3/4.
"""

import math

from additive_bases.fourier1d import (
    MOSER_A2,
    MOSER_B1,
    balance_fraction,
    moser_bounds,
    one_var_bound,
)


A2, B1 = float(MOSER_A2), float(MOSER_B1)


def f(t):
    return A2 * math.cos(4.0 * math.pi * t) + B1 * math.sin(2.0 * math.pi * t)


t = [i / 9 for i in range(9)]
print("t        :", "  ".join(f"{x:6.3f}" for x in t))
print("phi(t)   :", "  ".join(f"{f(x):6.3f}" for x in t))

alpha1, alpha2, S = moser_bounds()
M = 10**5
vals = [f(i / M) for i in range(M)]
print(f"\nmin on [0, 1/2) : {min(vals[: M // 2]):+.9f}  (bound {alpha1})")
print(f"min on [1/2, 1) : {min(vals[M // 2 :]):+.9f}  (bound {alpha2})")

coefficient = one_var_bound(alpha1, alpha2, S)
print(f"\nbalance fraction ell/k : {balance_fraction(alpha1, alpha2, S)}")
print(f"surplus constant c     : {(1 - 2 * coefficient) / 2}")
print(f"coefficient            : {coefficient} = {float(coefficient):.15f}")
print("reported               : 0.4898")

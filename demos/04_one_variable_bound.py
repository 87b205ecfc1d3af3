"""The one-variable Fourier argument and the constant 0.4898.

cos(4 pi t)/2 + sin(2 pi t) stays above 1/2 on the lower half-period and
above -3/2 on the upper one.  Feeding those bounds through the
exponential-sum inequality and balancing the combinatorial branch
lam^2/2 against the analytic branch (1 - 4 lam)^2 / 18 at lam = 1/7
yields a surplus of k^2/98, i.e. the covering radius is at most
(1/2 - 1/98) k^2 + k.  The package derives the bounds and the constant
in exact rationals; the grid below evaluates the function with numpy.
"""

import numpy as np

from additive_bases.fourier1d import (
    MOSER_A2,
    MOSER_B1,
    balance_fraction,
    moser_bounds,
    one_var_bound,
)


def f(t):
    return float(MOSER_A2) * np.cos(4.0 * np.pi * t) + float(MOSER_B1) * np.sin(2.0 * np.pi * t)


t = np.linspace(0.0, 1.0, 9, endpoint=False)
print("t        :", "  ".join(f"{x:6.3f}" for x in t))
print("phi(t)   :", "  ".join(f"{f(x):6.3f}" for x in t))

alpha1, alpha2, S = moser_bounds()
grid = np.arange(10**6) / 10**6
vals = f(grid)
print(f"\nmin on [0, 1/2) : {vals[grid < 0.5].min():+.9f}  (bound {alpha1})")
print(f"min on [1/2, 1) : {vals[grid >= 0.5].min():+.9f}  (bound {alpha2})")

coefficient = one_var_bound(alpha1, alpha2, S)
print(f"\nbalance fraction ell/k : {balance_fraction(alpha1, alpha2, S)}")
print(f"surplus constant c     : {(1 - 2 * coefficient) / 2}")
print(f"coefficient            : {coefficient} = {float(coefficient):.15f}")
print("reported               : 0.4898")

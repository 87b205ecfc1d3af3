"""The one-variable Fourier argument and the constant 0.4898.

cos(4 pi t)/2 + sin(2 pi t) stays above 1/2 on the lower half-period and
above -3/2 on the upper one.  Feeding those bounds through the
exponential-sum inequality and balancing the combinatorial branch
lam^2/2 against the analytic branch (1 - 4 lam)^2 / 18 at lam = 1/7
yields a surplus of k^2/98, i.e. the covering radius is at most
(1/2 - 1/98) k^2 + k.
"""

import numpy as np

from additive_bases import (
    balance_fraction,
    moser_constant,
    moser_test_function,
    one_var_bound,
)

f = moser_test_function()
t = np.linspace(0.0, 1.0, 9, endpoint=False)
print("t        :", "  ".join(f"{x:6.3f}" for x in t))
print("phi(t)   :", "  ".join(f"{f(x):6.3f}" for x in t))

grid = np.arange(10**6) / 10**6
vals = f(grid)
print(f"\nmin on [0, 1/2) : {vals[grid < 0.5].min():+.9f}  (bound +0.5)")
print(f"min on [1/2, 1) : {vals[grid >= 0.5].min():+.9f}  (bound -1.5)")

c, coefficient = moser_constant()
computed = one_var_bound(f)
print(f"\nbalance fraction ell/k : {balance_fraction(f):.9f}  (= 1/7)")
print(f"surplus constant c     : {c:.9f}  (= 1/98)")
print(f"coefficient            : {computed:.15f}")
print(f"closed form 1/2 - 1/98 : {coefficient:.15f}")
print("reported               : 0.4898")

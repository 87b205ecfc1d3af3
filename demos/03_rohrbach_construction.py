"""The classical lower-bound construction and its k^2/4 coefficient.

With r = floor(k/2), the set {0..r} + {2r, 3r, ..., (r-1)r} uses at most
k elements and its sumset covers the whole segment [0, r^2]; the ratio
(r^2 + 1) / k^2 approaches 1/4 from above.
"""

from fractions import Fraction

from additive_bases.constructions import lower_bound_coefficient, rohrbach_basis
from additive_bases.sumsets import n2

print(" k     |A|   n(2,A)   claimed   (r^2+1)/k^2")
for k in (4, 6, 10, 20, 50, 100):
    basis = rohrbach_basis(k)
    r = k // 2
    coeff = lower_bound_coefficient(k)
    print(
        f"{k:3d}   {len(basis):4d}   {n2(basis):6d}   {r * r + 1:7d}"
        f"   {coeff} = {float(coeff):.6f}"
    )

print(f"\nlimit of the ratio: 1/4 = {float(Fraction(1, 4))}")
mrose = Fraction(2, 7)  # best known lower-bound constant for n(2,k)/k^2 (Mrose)
print(f"best known lower-bound constant: {mrose} = {float(mrose):.4f}")
print("upper bound certified by this package: 0.4789 (see demo 05)")

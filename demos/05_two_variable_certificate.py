"""End-to-end two-variable certificate (a fraction of a second).

The pipeline: certified enclosures of the axial and main coefficient
sums -> the (kappa, tau) box -> a lower bound on rho = xi^2 through the
positive root of kappa xi^2 + tau xi - 1 = 0 -> the final coefficient
(1 - rho)/2 rounded up at the fourth decimal.

Both truncation tails have derived bounds on both sides, so at the
command line's one truncation N = cli.SCALE (500) the enclosures already
lie inside the published intervals, and the certificate gives the
headline coefficient 0.4789 (0.4788 on the corner route), below the best
one-variable-plus-combinatorial value 0.4802.
"""

from additive_bases.certify import alpha2_exact, certify, rho_from
from additive_bases.cli import SCALE
from additive_bases.fourier2d import c_axial, c_main

ax = c_axial(SCALE)
mn = c_main(SCALE)
print(f"alpha2 (exact)  : {alpha2_exact():+.9f}")
for name, iv in (("axial", ax), ("main", mn)):
    print(f"{name:5s} sum (N={iv.N:5d}): [{iv.lo:.7f}, {iv.hi:.7f}]  "
          f"tail in [{iv.tail_lo:.6e}, {iv.tail_hi:.6e}]")

for route in ("corner", "lemma"):
    cert = certify(ax, mn, route=route)
    print(f"\nroute = {route}")
    print(f"  kappa in [{cert.kappa[0]:.6f}, {cert.kappa[1]:.6f}]  (>= 3)")
    print(f"  tau   in [{cert.tau[0]:.6f}, {cert.tau[1]:.6f}]  (>= 2)")
    print(f"  rho   >=  {cert.rho_lower:.7f}")
    print(f"  coefficient <= {cert.coefficient_upper}")

print(f"\nregime sanity: rho(3, 2) = {rho_from(3.0, 2.0):.7f} (= 1/9, the ceiling)")
print("historical comparison: 0.4992 / 0.4903 / 0.4847 / 0.4802 -> 0.4789")

"""Sumsets, covering radii, and the exact pair-count identity.

A set A of nonnegative integers is a basis of order 2 for n when its
sumset 2A = {a + a'} contains 0, 1, ..., n-1.  This walk-through shows
the basic quantities on small sets.
"""

from additive_bases.sumsets import exp_sum_stats, m2, n2, rep_profile, sumset2

for elems in ([0, 1], [0, 1, 2], [0, 1, 3], [0, 2, 3]):
    profile = rep_profile(elems)
    k = len(elems)
    print(f"A = {elems}")
    print(f"  2A         = {sumset2(elems)}")
    print(f"  n(2,A)     = {profile.n}   (covers [0, {profile.n - 1}])")
    print(f"  m(2,A)     = {m2(elems)}   (longest consecutive run in 2A)")
    print(f"  surplus    = {profile.delta_total}")
    print(
        f"  identity   : (k^2+k)/2 = {(k * k + k) // 2}"
        f" = n + surplus = {profile.n} + {profile.delta_total}"
    )
    print()

# Exponential sums bound the surplus from below.  For A = {0,1,3} at its
# natural modulus n = 5 the triangle count ell(ell+1)/2 is tight.
stats = exp_sum_stats([0, 1, 3], 5)
profile = rep_profile([0, 1, 3])
print("A = [0, 1, 3] at modulus 5:")
print(f"  M = {stats.M:.6f}, mu = {stats.mu:.6f}, ell = {stats.ell}, L = {stats.L}")
print(f"  surplus {profile.delta_total} >= ell(ell+1)/2 = {stats.ell * (stats.ell + 1) // 2}")
print(f"  surplus {profile.delta_total} >= (M^2 - k)/2 = {(stats.M ** 2 - 3) / 2:+.4f}")
print(f"  2 * surplus {2 * profile.delta_total} >= L = {stats.L}")

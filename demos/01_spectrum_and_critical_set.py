"""Eigendata of the fourth-order operator and the critical parameter set.

The operator -d^4/dx^4 - (nu - 2 mu_j) d^2/dx^2 on (0, a) has rates
lambda_k = -k^4 pi^4/a^4 + (nu - 2 mu_j) k^2 pi^2/a^2.  Controllability from
the boundary lives or dies on these rates staying pairwise distinct, which
fails exactly on the countable set {2 mu_j + pi^2 (k^2 + l^2)/a^2}.  This
script walks the dichotomy on the unit-pi box.
"""

from kscontrol.spectrum import (
    Box,
    SpectrumSpec,
    bound_check,
    critical_set_check,
    gap_check,
    K0_index,
    n0_index,
    weyl_fit,
)

# a critical parameter: nu = 2*1 + (1 + 4) = 7 collides modes k=1 and k=2
for nu in (7, "6.5", 0):
    spec = SpectrumSpec(a="pi", nu=nu, cross_section=Box(["pi"]), K_x=12, J_y=8)
    v = critical_set_check(spec)
    print(f"nu = {nu}: verdict {v.kind}", end="")
    if not v.is_clear:
        print(f" at (j={v.j}, k={v.k}, l={v.l})", end="")
        rates = spec.x_rates(v.j, v.l)
        lam_k, lam_l = float(rates[v.k - 1]), float(rates[v.l - 1])
        print(f"; colliding rates {lam_k} == {lam_l}", end="")
    print()

spec = SpectrumSpec(a="pi", nu="6.5", cross_section=Box(["pi"]), K_x=12, J_y=8)
print(f"\nthresholds at nu=6.5: n0 = {n0_index(spec)} (2 mu_j > nu), "
      f"K0 = {K0_index(spec)} (mu_j > nu)")

# the counting function of the rate family stays below (a/pi) r^(1/4)
rep = bound_check(spec, j=2)
print(f"counting bound, j=2: smallest admissible C = {rep['smallest_C']:.4f} "
      f"vs a/pi = {rep['a_over_pi']:.4f}; violations: {rep['violations']}")

rho, linear = gap_check(-spec.x_rates(2, 10))
print(f"gap diagnostics, j=2: min pairwise gap {rho:.4g}, linear-gap constant {linear:.4g}")

# Weyl growth of the box cross-section spectrum
big = SpectrumSpec(a="pi", nu=0, cross_section=Box(["pi", "pi"]), K_x=2, J_y=220)
w = weyl_fit(big)
print(f"\nWeyl fit on a 2-D cross-section: slope {w['slope']:.3f} "
      f"(expected {w['expected']:.3f} for growth mu_j ~ j^(2/(N-1)))")

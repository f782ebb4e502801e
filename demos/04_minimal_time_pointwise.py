"""Interior point actuation: Diophantine minimal time and the dichotomy.

How fast |sin(k pi x0/a)| can approach zero against the quartic rate k^4
decides the minimal control horizon for an actuator at x0.  Algebraic
points cannot resonate deeply (Liouville's theorem), so they control at any
horizon; a Liouville-type point with quartically-graded convergents carries
a genuine finite minimal time visible to the scan.
"""

import numpy as np

from kscontrol.boundary_1d import verify_null
from kscontrol.errors import BelowMinimalTime
from kscontrol.pointwise import (
    PointSpec,
    minimal_time_estimate,
    minimal_time_gate,
    negative_certificate,
    synthesize_point_control,
)
from kscontrol.spectrum import Box, SpectrumSpec

spec = SpectrumSpec(a="pi", nu=0, cross_section=Box(["pi"]), K_x=16, J_y=4)

algebraic = PointSpec.algebraic([1, 2, -1], root_index=0)  # sqrt(2) - 1
est = minimal_time_gate(algebraic, spec)  # the scan to k = 10^4, kept by spec
print(f"x0/a = sqrt(2)-1: scanned T0_hat = {est.T0_hat:.4f} (at k={est.T0_argmax}), "
      f"tail max {est.T0_tail:.2e}")

u0 = np.zeros(16)
u0[0] = 1.0
u0[1] = 1.0
for T in (0.1, 1.0):
    control, rep = synthesize_point_control(u0, T, algebraic, spec, 1, K_trunc=8)
    rel = verify_null(u0, control, T, spec, 1, K_trunc=8).rel_final_enforced
    print(f"  T={T}: ||h|| = {rep.control_norm:.4g}, closed-loop final {rel:.2e}")
print("  (shorter horizons cost more, but any T > 0 works for algebraic points)")

liou = PointSpec.liouville("quartic_anchor3", depth=6)
est_l = minimal_time_gate(liou, spec)
print(f"\nquartically-graded Liouville point 1/3 + sum 10^(-36 n!), depth 6:")
print(f"  T0_hat = {est_l.T0_hat:.4f} at k={est_l.T0_argmax} "
      f"(|sin(3 pi x0/a)| ~ 3 pi 10^-36)")

T_bad = est_l.T0_hat / 2
try:
    synthesize_point_control(u0, T_bad, liou, spec, 1, K_trunc=8)
except BelowMinimalTime as exc:
    print(f"  synthesis at T = T0_hat/2 refused: {exc}")
w = negative_certificate(liou, spec, 1, T_bad)
i = list(w.k).index(3)
print(f"  blow-up witness at k=3: observability ratio 10^{w.log10_ratio[i]:.1f}")

classic = PointSpec.liouville("classic10", depth=6)
est_c = minimal_time_estimate(classic, spec.a_float, k_max=1_200)
print(f"\nclassic sum 10^(-n!) (depth 6): spikes of -log|sin| >= 1 at k = "
      f"{[k for k in est_c.spikes if k in (9, 100, 909)]} (continued-fraction denominators),")
print(f"  but the quartic normalization crushes them: T0_hat = {est_c.T0_hat:.4f} "
      f"comes from k=1 alone, and s_100 = {est_c.s[99]:.2e}")

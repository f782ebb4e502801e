"""Local null control of the nonlinear equation by the source-term method.

The quadratic term -1/2 |grad u|^2 is treated as a source; each Picard
iteration solves a controlled-linear problem with the previous iterate's
source and re-evaluates the nonlinearity along the new trajectory.  The
converged control is then replayed through an independent exponential
time-differencing simulation of the true nonlinear system.
"""

import numpy as np

from kscontrol.errors import NoContraction
from kscontrol.lebeau_robbiano import BoundaryGamma
from kscontrol.nonlinear import WeightPair, fit_cost_constant, fixed_point
from kscontrol.spectrum import Box, SpectrumSpec

spec = SpectrumSpec(a="pi", nu=0, cross_section=Box(["pi"]), K_x=16, J_y=16)

fit = fit_cost_constant(spec, BoundaryGamma(None), T_grid=(0.5, 1.0), beta=4)
print(f"empirical control-cost constant from log||q|| ~ C/T: C_hat = {fit['C_hat']:.3f}")
weights = WeightPair(T=1.0, C_cost=fit["C_hat"])
print(f"weights: p = {weights.p:.3f}, q = {weights.q_w}, both vanishing like "
      f"exp(-c/(T-t)) toward T\n")

u0 = np.zeros((16, 16))
u0[0, 0] = 1e-3
res = fixed_point(u0, 1.0, spec, BoundaryGamma(None), beta=4, weights=weights)
print(f"||u0|| = 1e-3: converged in {res.iterations} iterations")
print(f"  weighted source increments: {[f'{d:.3e}' for d in res.deltas]}")
print(f"  contraction ratios: {[f'{r:.3e}' for r in res.ratios]}")
print(f"  linear end state {res.linear_final_rel:.2e}; independent nonlinear replay "
      f"{res.nonlinear_final_rel:.2e} relative\n")

print("the local theorem is local: far enough out, the ratio test fires --")
scale = 100
while scale <= 1e6:
    try:
        step = fixed_point(scale * u0, 1.0, spec, BoundaryGamma(None), beta=4,
                           weights=weights, verify=False, max_iter=14)
        print(f"  x{scale}: converged in {step.iterations} iterations, "
              f"first ratio {step.ratios[0]:.2e}")
    except NoContraction as exc:
        print(f"  x{scale}: NoContraction: {exc}")
        if "exceed 0.9" in str(exc):
            break
    scale *= 16

print("\nwith a mildly unstable mode (nu=5, rate +6) the boundary moves in:")
spec5 = SpectrumSpec(a="pi", nu=5, cross_section=Box(["pi"]), K_x=16, J_y=16)
res5 = fixed_point(u0, 1.0, spec5, BoundaryGamma(None), verify=False)
print(f"  1e-3 converges by tol ({res5.iterations} iterations, ratios ~{res5.ratios[0]:.1e})")
res5 = fixed_point(100 * u0, 1.0, spec5, BoundaryGamma(None), verify=False, max_iter=24)
print(f"  x100 (0.1) contracts at ratios ~0.3 down to the rounding floor and stops there "
      f"({res5.stop_reason!r}, {res5.iterations} iterations, delta {res5.deltas[-1]:.2e} "
      f"<= floor {res5.delta_floor:.2e})")
try:
    fixed_point(1000 * u0, 1.0, spec5, BoundaryGamma(None), verify=False, max_iter=24)
except NoContraction as exc:
    print(f"  x1000 (1.0) exits the contraction regime: NoContraction: {exc}")

"""Minimal-norm biorthogonal families and their cost growth.

The moment method needs functions q_m with int_0^T e^{-Lambda_k t} q_m = delta_{km}.
Inside the exponential span the unique minimal-norm family is C = G^{-1} with
the Gram matrix of the exponentials; its norms grow like exp(K Lambda^(1/4))
in the quartic rate regime and blow up as T shrinks.
"""

import numpy as np

from kscontrol.biorthogonal import build_family, cost_fit

lam = np.array([float(k**4 + 2 * k**2) for k in range(1, 11)])  # a=pi, nu=0, mu_1=1

for T in (0.5, 1.0):
    fam = build_family(lam, T)
    norms = [fam.norm(m) for m in range(len(lam))]
    print(f"T={T}: Gram condition {fam.gram_condition:.3e}, "
          f"biorthogonality residual {fam.residual_max:.1e}")
    print("   norms:", " ".join(f"{n:.3g}" for n in norms))

print("\nnote the top one or two norms dip: the truncated family's last members")
print("escape the orthogonality constraints of absent higher exponentials.\n")

rep = cost_fit(lam[:8], T_grid=[0.1, 0.2, 0.5, 1.0])
print(f"fit of log||q_k|| against Lambda^(1/4) + T^(-1/3): slope {rep['slope']:.3f}, "
      f"intercept {rep['intercept']:.3f}, rms residual {rep['fit_rms_residual']:.3f}")

# scale covariance: rates x s, horizon / s maps norms^2 -> s * norms^2
s = 2.0
f1 = build_family(lam[:4], 0.8)
f2 = build_family(s * lam[:4], 0.8 / s)
print("\nscale covariance at s=2:",
      [f"{f2.norm(m)**2 / f1.norm(m)**2:.6f}" for m in range(4)])
print("(each ratio equals s)")

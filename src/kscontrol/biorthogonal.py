"""Minimal-norm biorthogonal families of decaying exponentials on (0, T).

Given positive, pairwise distinct exponents Lambda_k, the family
``q_m(t) = sum_k C[m, k] exp(-Lambda_k t)`` is biorthogonal to the
exponentials exactly when ``C = G^{-1}`` with the Gram matrix

    G[k, m] = int_0^T exp(-(Lambda_k + Lambda_m) t) dt
            = (1 - exp(-(Lambda_k + Lambda_m) T)) / (Lambda_k + Lambda_m).

Within the exponential span this family is the unique one of minimal L2
norm, and ``||q_m||^2 = (G^{-1})[m, m]``.  Gram matrices of exponentials
are notoriously ill-conditioned, so every family is built one way: the Gram
is inverted by Gauss-Jordan in `decimal` at 60 digits, the inverse rounded to
doubles, and the rounded coefficients certified against the 60-digit Gram.
An IllConditioned error fires when even that cannot certify the
biorthogonality residual.
"""

from __future__ import annotations

import decimal
import json
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import IllConditioned
from .spectrum import gap_check, line_fit

K_BIO_MAX = 24
RESIDUAL_TOL = 1e-8
FAIL_COND = 1e14
EXTENDED_DIGITS = 60


def gram_matrix(exponents, T: float) -> np.ndarray:
    """Gram matrix of {exp(-Lambda_k t)} in L2(0, T)."""
    lam = np.asarray(exponents, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("exponents must be strictly positive")
    if T <= 0:
        raise ValueError("T must be positive")
    gap_check(lam)  # DuplicateRate on coincident exponents
    s = lam[:, None] + lam[None, :]
    return -np.expm1(-s * T) / s


@dataclass
class BiorthogonalFamily:
    """Coefficients of the minimal-norm biorthogonal family.

    ``q_m(t) = sum_k coeffs[m, k] exp(-exponents[k] t)`` and the analytic
    moments ``int_0^T exp(-exponents[k] t) q_m(t) dt`` equal the identity up
    to ``residual_max``.
    """

    exponents: np.ndarray
    horizon: float
    coeffs: np.ndarray
    residual_max: float
    gram_condition: float

    def evaluate(self, m: int, t) -> np.ndarray:
        """q_m(t), vectorized in t (m is 0-based)."""
        tt = np.asarray(t, dtype=float)
        return np.exp(-np.multiply.outer(tt, self.exponents)) @ self.coeffs[m]

    def norm(self, m: int) -> float:
        """L2(0, T) norm of q_m: ||q_m||^2 = (G^{-1})[m, m], the diagonal of
        the 60-digit inverse rounded once to a double."""
        return math.sqrt(float(self.coeffs[m, m]))

    def to_json(self) -> str:
        return json.dumps(
            {
                "exponents": self.exponents.tolist(),
                "T": self.horizon,
                "coeffs": self.coeffs.tolist(),
                "residual_max": self.residual_max,
                "gram_condition": self.gram_condition,
            },
            indent=2,
            sort_keys=True,
        )


def _gram_mp(lam, T):
    """The Gram matrix as lists of `Decimal` at the context precision, from the n
    exponentials E_i = exp(-lam_i T): G[i][k] = (1 - E_i E_k) / (lam_i + lam_k).
    `build_family` calls it exactly once per family."""
    E = [(-x * T).exp() for x in lam]
    return [[(1 - Ei * Ek) / (li + lk) for lk, Ek in zip(lam, E)] for li, Ei in zip(lam, E)]


def _inverse(G):
    """G^{-1} by Gauss-Jordan on [G | I] at the context precision.

    G is symmetric positive definite, so the pivots are positive and no
    pivoting is needed; a pivot that is not (all of G is 0 once lam T <
    1e-60) raises IllConditioned.  Before step j the left block's first j
    columns are done and the right block's columns past n + j are still
    those of I, so step j only updates columns j + 1 .. n + j.
    """
    n = len(G)
    one, zero = Decimal(1), Decimal(0)
    A = [row + [one if k == i else zero for k in range(n)] for i, row in enumerate(G)]
    for j in range(n):
        cols = slice(j + 1, n + j + 1)
        if not A[j][j] > 0:
            raise IllConditioned(f"Gram pivot {j} is not positive at {EXTENDED_DIGITS} digits")
        inv = one / A[j][j]
        span = A[j][cols] = [x * inv for x in A[j][cols]]
        for i, row in enumerate(A):
            f = row[j]
            if i != j and f:
                row[cols] = [a - f * p for a, p in zip(row[cols], span)]
    return [row[n:] for row in A]


def build_family(exponents, T: float) -> BiorthogonalFamily:
    """Invert the Gram in extended precision and certify the biorthogonality residual.

    G^{-1} is computed by Gauss-Jordan in `decimal` at 60 digits; rounded to
    doubles it matches a 60-digit mpmath inverse bit for bit, and the
    coefficients come back C-ordered whatever the family.  The certified
    ``residual_max`` is what the returned double-precision coefficients
    actually achieve against the 60-digit Gram; for families with huge rate
    spread it is limited to roughly cond * eps even though the inverse is
    computed exactly, which is why moment syntheses certify their own
    (target-weighted) residual instead.
    IllConditioned fires when the condition number exceeds 1e14 and the
    residual misses 1e-8: the truncation must shrink or precision increase.
    """
    lam = np.asarray(exponents, dtype=float)
    if len(lam) > K_BIO_MAX:
        raise ValueError(f"family size {len(lam)} exceeds K_bio_max={K_BIO_MAX}")
    cond = float(np.linalg.cond(gram_matrix(lam, T)))
    with decimal.localcontext() as ctx:
        ctx.prec = EXTENDED_DIGITS
        G_x = _gram_mp([Decimal(x) for x in lam], Decimal(float(T)))
        # G^{-1} = C^T: column i of the inverse is row i of C
        C = np.array(list(zip(*_inverse(G_x))), dtype=float)
        # residual of the float-rounded coefficients against the exact Gram
        C_back = [[Decimal(x) for x in row] for row in C.tolist()]
        residual = 0.0
        for i, g_row in enumerate(G_x):
            for k, c_row in enumerate(C_back):
                target = 1.0 if i == k else 0.0
                prod = float(sum(map(Decimal.__mul__, g_row, c_row)))
                residual = max(residual, abs(prod - target))
    if cond > FAIL_COND and residual > RESIDUAL_TOL:
        raise IllConditioned(
            f"Gram condition {cond:.3e}, residual {residual:.3e} after extended precision"
        )
    return BiorthogonalFamily(
        exponents=lam, horizon=float(T), coeffs=C, residual_max=residual, gram_condition=cond
    )


def cost_fit(exponents, T_grid):
    """Fit log ||q_{k,T}|| against Lambda_k^(1/4) + T^(-1/3).

    Purely diagnostic: returns the fitted slope/intercept and the residual of
    the regression, with the full norm table.  theta = 1/4 is fixed by the
    quartic growth of the rates, and -theta/(1-theta) = -1/3.
    """
    lam = np.asarray(exponents, dtype=float)
    rows = []
    for T in T_grid:
        fam = build_family(lam, float(T))
        for k in range(len(lam)):
            rows.append((float(T), lam[k], fam.norm(k)))
    z = np.array([lam_k**0.25 + T ** (-1.0 / 3.0) for T, lam_k, _ in rows])
    y = np.log([nrm for _, _, nrm in rows])
    slope, intercept, fit_residual = line_fit(z, y)
    return {
        "slope": slope,
        "intercept": intercept,
        "fit_rms_residual": fit_residual,
        "table": rows,
    }

"""Minimal-norm biorthogonal families of decaying exponentials on (0, T).

Given positive, pairwise distinct exponents Lambda_k, the family
``q_m(t) = sum_k C[m, k] exp(-Lambda_k t)`` is biorthogonal to the
exponentials exactly when ``C = G^{-1}`` with the Gram matrix

    G[k, m] = int_0^T exp(-(Lambda_k + Lambda_m) t) dt
            = (1 - exp(-(Lambda_k + Lambda_m) T)) / (Lambda_k + Lambda_m).

Within the exponential span this family is the unique one of minimal L2
norm, and ``||q_m||^2 = (G^{-1})[m, m]``.  Gram matrices of exponentials
are notoriously ill-conditioned, so every family is built one way: the Gram
is factored once as L D L^T in `decimal` at 60 digits.  A moment synthesis
solves against that factorization, rounding G^{-1} m to doubles once; the
explicit inverse is solved from it and rounded to doubles only where it is
read, and so is its certificate against the 60-digit Gram.  An
IllConditioned error fires when even that cannot certify the
biorthogonality residual.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property

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
    """The minimal-norm biorthogonal family, held as the 60-digit factorization
    G = L D L^T of its Gram.

    ``q_m(t) = sum_k coeffs[m, k] exp(-exponents[k] t)`` and the analytic
    moments ``int_0^T exp(-exponents[k] t) q_m(t) dt`` equal the identity up
    to ``residual_max``.  Moment syntheses read only :meth:`solve`; the
    explicit inverse ``coeffs`` and its certificate ``residual_max`` are
    computed from the factorization on first read.
    """

    exponents: np.ndarray
    horizon: float
    gram_condition: float
    gram: list = field(repr=False)    # the 60-digit Gram, rows of Decimal
    lower: list = field(repr=False)   # row i of L: its entries left of the diagonal
    pivots: list = field(repr=False)  # the diagonal of D, all positive

    def solve(self, m) -> np.ndarray:
        """G^{-1} m at 60 digits, rounded once to doubles."""
        if len(m) != len(self.pivots):
            raise ValueError(f"{len(m)} moments for a family of {len(self.pivots)}")
        with decimal.localcontext() as ctx:
            ctx.prec = EXTENDED_DIGITS
            return np.array([float(x) for x in self._solve([Decimal(float(v)) for v in m])])

    def _solve(self, x):
        """G^{-1} x for a list x of Decimal, which it overwrites: L y = x, then
        L^T z = y / D."""
        for i, row in enumerate(self.lower):
            x[i] -= sum(map(Decimal.__mul__, row, x))
        x = [v / d for v, d in zip(x, self.pivots)]
        for i in reversed(range(len(x))):
            xi = x[i]
            for k, l_ik in enumerate(self.lower[i]):
                x[k] -= l_ik * xi
        return x

    @cached_property
    def coeffs(self) -> np.ndarray:
        """C = (G^{-1})^T, C-ordered: row m is G^{-1} solved on the m-th unit vector."""
        n = len(self.pivots)
        one, zero = Decimal(1), Decimal(0)
        with decimal.localcontext() as ctx:
            ctx.prec = EXTENDED_DIGITS
            return np.array([self._solve([one if k == m else zero for k in range(n)])
                             for m in range(n)], dtype=float)

    @cached_property
    def residual_max(self) -> float:
        """max |G C^T - I| of the double-rounded ``coeffs`` against the 60-digit Gram."""
        C_back = [[Decimal(x) for x in row] for row in self.coeffs.tolist()]
        residual = 0.0
        with decimal.localcontext() as ctx:
            ctx.prec = EXTENDED_DIGITS
            for i, g_row in enumerate(self.gram):
                for k, c_row in enumerate(C_back):
                    target = 1.0 if i == k else 0.0
                    prod = float(sum(map(Decimal.__mul__, g_row, c_row)))
                    residual = max(residual, abs(prod - target))
        return residual

    def norm(self, m: int) -> float:
        """L2(0, T) norm of q_m: ||q_m||^2 = (G^{-1})[m, m], the diagonal of
        the 60-digit inverse rounded once to a double."""
        return math.sqrt(float(self.coeffs[m, m]))


def _gram_mp(lam, T):
    """The Gram matrix as lists of `Decimal` at the context precision, from the n
    exponentials E_i = exp(-lam_i T): G[i][k] = (1 - E_i E_k) / (lam_i + lam_k).
    `build_family` calls it exactly once per family."""
    E = [(-x * T).exp() for x in lam]
    return [[(1 - Ei * Ek) / (li + lk) for lk, Ek in zip(lam, E)] for li, Ei in zip(lam, E)]


def _ldl(G):
    """(L, D) with G = L D L^T at the context precision, row by row: L's rows
    hold their entries left of the unit diagonal.

    G is symmetric positive definite, so the pivots are positive and no
    pivoting is needed; a pivot that is not (all of G is 0 once lam T <
    1e-60) raises IllConditioned.  Row i first forms a[j] = L[i][j] D[j]
    for j < i, so its i^2/2 multiply-adds give n^3/6 in all.
    """
    lower, pivots = [], []
    for i, g_row in enumerate(G):
        a = []
        for j in range(i):
            a.append(g_row[j] - sum(map(Decimal.__mul__, a, lower[j])))
        row = [x / d for x, d in zip(a, pivots)]
        d = g_row[i] - sum(map(Decimal.__mul__, a, row))
        if not d > 0:
            raise IllConditioned(f"Gram pivot {i} is not positive at {EXTENDED_DIGITS} digits")
        lower.append(row)
        pivots.append(d)
    return lower, pivots


def build_family(exponents, T: float) -> BiorthogonalFamily:
    """Factor the Gram once as L D L^T in extended precision.

    The factorization is computed in `decimal` at 60 digits.  `solve` rounds
    G^{-1} m to doubles once, which is what moment syntheses use; ``coeffs``,
    the explicit inverse, is solved from the same factorization on first
    read and, rounded to doubles, matches a 60-digit mpmath inverse bit for
    bit, C-ordered whatever the family.  Its certified ``residual_max``,
    also computed on first read, is what those double-precision coefficients
    actually achieve against the 60-digit Gram; for families with huge rate
    spread it is limited to roughly cond * eps even though the inverse is
    computed exactly, which is why moment syntheses certify their own
    (target-weighted) residual instead.
    IllConditioned fires when the condition number exceeds 1e14 and the
    residual misses 1e-8: the truncation must shrink or precision increase.
    Only such a family computes its certificate at build time.
    """
    lam = np.asarray(exponents, dtype=float)
    if len(lam) > K_BIO_MAX:
        raise ValueError(f"family size {len(lam)} exceeds K_bio_max={K_BIO_MAX}")
    cond = float(np.linalg.cond(gram_matrix(lam, T)))
    with decimal.localcontext() as ctx:
        ctx.prec = EXTENDED_DIGITS
        G_x = _gram_mp([Decimal(x) for x in lam], Decimal(float(T)))
        lower, pivots = _ldl(G_x)
    fam = BiorthogonalFamily(exponents=lam, horizon=float(T), gram_condition=cond,
                             gram=G_x, lower=lower, pivots=pivots)
    if cond > FAIL_COND and fam.residual_max > RESIDUAL_TOL:
        raise IllConditioned(
            f"Gram condition {cond:.3e}, residual {fam.residual_max:.3e} after extended precision"
        )
    return fam


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

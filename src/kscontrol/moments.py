"""Moment problems on exponential families, solved analytically.

Given modal decay rates lambda_k (any signs) and targets m_k, find h with

    int_0^T exp(lambda_k t) h(t) dt = m_k,   k = 1..K.

Unstable or neutral families are handled by the positivity shift c0 (write
exp(lambda_k t) = exp(-c0 t) exp(-(c0 - lambda_k) t) and solve for
g = exp(c0 t) h against the shifted, uniformly positive exponents).  The
solution is the minimal-norm biorthogonal combination inside the shifted
exponential span, returned as an exact sum of exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biorthogonal import BiorthogonalFamily, build_family
from .signals import ExpSegment
from .spectrum import c0_shift

MOMENT_RESIDUAL_TOL = 1e-8  # certified relative to max(1, max |target|)


@dataclass
class MomentSolution:
    """h(t) on [0, T] solving the moment problem, as a sum of exponentials."""

    rates: np.ndarray
    targets: np.ndarray
    horizon: float
    c0: float
    family: BiorthogonalFamily
    exponents: np.ndarray    # h(t) = sum_l coeff[l] exp(exponents[l] t), exponents <= 0
    coeffs: np.ndarray
    residual_max: float

    def value(self, t):
        tt = np.asarray(t, dtype=float)
        return np.exp(np.multiply.outer(tt, self.exponents)) @ self.coeffs

    def norm_l2(self) -> float:
        seg = self.segment(0.0)
        return math.sqrt(max(seg.l2_squared(), 0.0))

    def segment(self, t_offset: float) -> ExpSegment:
        """ExpSegment for h(t - t_offset) on [t_offset, t_offset + T]."""
        return ExpSegment(
            t0=t_offset,
            t1=t_offset + self.horizon,
            exponents=self.exponents.copy(),
            refs=np.full_like(self.exponents, t_offset),
            coeffs=self.coeffs.copy(),
        )

    def reversed_segment(self, t_offset: float) -> ExpSegment:
        """ExpSegment for h(T - (t - t_offset)): the physical control window.

        Exponents flip sign, so references move to the window end to keep
        evaluation exponents nonpositive.
        """
        t1 = t_offset + self.horizon
        return ExpSegment(
            t0=t_offset,
            t1=t1,
            exponents=-self.exponents.copy(),
            refs=np.full_like(self.exponents, t1),
            coeffs=self.coeffs.copy(),
        )


class MomentSolver:
    """Reusable solver for one rate family and horizon.

    Builds the biorthogonal family once; each call to :meth:`solve` combines
    it linearly with a target vector (the moment map is linear).
    """

    def __init__(self, rates, T: float):
        self.rates = np.asarray(rates, dtype=float)
        self.horizon = float(T)
        self.c0 = c0_shift(self.rates)
        self.shifted = self.c0 - self.rates  # strictly positive exponents
        self.family = build_family(self.shifted, T)
        self.exponents = -(self.shifted + self.c0)  # all <= -c0 <= 0

    def solve(self, targets) -> MomentSolution:
        """Combine the family with a target vector and certify the residual.

        The certified quantity is the analytic moment residual of the
        assembled control against *these* targets: that is what bounds the
        closed-loop end state, and it stays tiny even when the family's raw
        delta-matrix residual is limited by conditioning (the ill-conditioned
        directions pair with exponentially dead targets).
        """
        from .errors import IllConditioned

        m = np.asarray(targets, dtype=float)
        if m.shape != self.rates.shape:
            raise ValueError("rates and targets must have equal length")
        if not np.all(np.isfinite(m)):
            raise ValueError("moment targets must be finite")
        # h(t) = e^{-c0 t} sum_k m_k q_k(t),  q_k = sum_l C[k,l] e^{-shifted_l t}
        coeffs = self.family.coeffs.T @ m
        sol = MomentSolution(
            rates=self.rates, targets=m, horizon=self.horizon, c0=self.c0,
            family=self.family, exponents=self.exponents.copy(), coeffs=coeffs,
            residual_max=0.0,
        )
        sol.residual_max = float(np.max(np.abs(moment_residuals(sol))))
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
        if not sol.residual_max <= MOMENT_RESIDUAL_TOL * scale:  # NaN fails too
            raise IllConditioned(
                f"moment residual {sol.residual_max:.3e} exceeds {MOMENT_RESIDUAL_TOL:.1e} x scale "
                f"(Gram condition {self.family.gram_condition:.3e})"
            )
        return sol


def moment_residuals(sol: MomentSolution) -> np.ndarray:
    """Analytic residuals int_0^T e^{lambda_k t} h(t) dt - m_k."""
    lam = sol.rates[:, None]
    b = sol.exponents[None, :]
    T = sol.horizon
    s = lam + b  # all <= lambda_k - c0 < 0 in the shifted frame
    small = np.abs(s * T) < 1e-10
    denom = np.where(small, 1.0, s)
    integ = np.where(small, T * (1.0 + s * T / 2.0), np.expm1(s * T) / denom)
    vals = integ @ sol.coeffs
    return vals - sol.targets

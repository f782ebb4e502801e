"""Control signals: exact analytic segments in time.

Every control is one segment on its window: a sum of exponentials (moment
method) or a Legendre series (Gramian steering).  A run that controls over
several windows keeps one signal per window.  Closed-loop verification
integrates the segment against the modal flow in closed form, so the only
numerical error downstream of a synthesis is the linear-algebra residual of
the synthesis itself.  Export samples `ControlSignal.value_at` on a uniform
grid.

Overflow discipline: every stored exponential carries its own reference time
(window start for decaying terms, window end for growing ones) so evaluation
exponents are always <= a small bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import legendre as npleg

# Sign of the boundary input as seen by the modal ODE: frozen once by the
# duality calibration test in tests/test_modal.py.  With orthonormal sines
# and the control acting on the Laplacian trace at x=0, integration by parts
# gives  d/dt u_k = lambda_k u_k - sqrt(2/a) (k pi / a) q(t).
S_BOUNDARY = -1.0


def phi1(z):
    """(e^z - 1)/z with the removable singularity filled."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-8
    zs = np.where(small, 1.0, z)
    out = np.expm1(zs) / zs
    return np.where(small, 1.0 + z / 2.0, out)


def phi2(z):
    """(e^z - 1 - z)/z^2 with a series guard against cancellation."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    out = (np.expm1(zs) - zs) / (zs * zs)
    series = 0.5 + z / 6.0 + z * z / 24.0
    return np.where(small, series, out)


def exp_sum_integral(lam, exps, refs, t0: float, t1: float):
    """int_{t0}^{t1} e^{lam (t1 - s)} e^{b (s - r)} ds for each (lam, b) pair.

    ``lam`` has shape (M,), ``exps``/``refs`` shape (E,).  Returns (M, E).
    Evaluated in the end-anchored form (f(t1) - f(t0)) / (b - lam) with a
    series fallback near b = lam; f stays bounded because the stored
    references keep each exponent nonpositive on the window.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    b = np.asarray(exps, dtype=float)[None, :]
    r = np.asarray(refs, dtype=float)[None, :]
    lamc = lam[:, None]
    delta = t1 - t0
    g1 = b * (t1 - r)                      # exponent of f at t1
    g0 = lamc * delta + b * (t0 - r)       # exponent of f at t0
    diff = (b - lamc) * delta
    small = np.abs(diff) < 1e-6
    denom = np.where(small, 1.0, b - lamc)
    main = (np.exp(g1) - np.exp(g0)) / denom
    # series: e^{g0} * delta * (1 + d/2 + d^2/6), d = (b - lam) delta
    series = np.exp(g0) * delta * (1.0 + diff / 2.0 + diff * diff / 6.0)
    return np.where(small, series, main)


def _exp_gram_block(exps, refs, t0: float, t1: float) -> np.ndarray:
    """Gram block int_{t0}^{t1} e^{b_i (t - r_i)} e^{b_m (t - r_m)} dt of the exponentials."""
    b = np.asarray(exps, dtype=float)
    r = np.asarray(refs, dtype=float)
    s = b[:, None] + b[None, :]
    g = -b[:, None] * r[:, None] - b[None, :] * r[None, :]
    e0 = np.exp(s * t0 + g)
    small = np.abs(s * (t1 - t0)) < 1e-8
    denom = np.where(small, 1.0, s)
    return np.where(small, e0 * (t1 - t0), (np.exp(s * t1 + g) - e0) / denom)


@functools.lru_cache(maxsize=64)
def _gauss_legendre(degree: int):
    """Gauss-Legendre nodes and weights of order degree + 1, and the values
    there of P_0..P_degree; computed once per degree, read-only."""
    nodes, wts = npleg.leggauss(degree + 1)
    vander = npleg.legvander(nodes, degree)
    for arr in (nodes, wts, vander):
        arr.flags.writeable = False
    return nodes, wts, vander


def legendre_mode_integrals(lam, degree: int, delta: float):
    """I_p(lam) = int_0^delta e^{lam (delta - s)} P_p(2 s/delta - 1) ds.

    Via int_{-1}^{1} e^{z tau} P_p(tau) dtau = 2 i_p(z) (modified spherical
    Bessel), with the exponentially scaled form for stability at large decay
    rates.  Returns array (len(lam), degree + 1).

    scipy is imported here, not at module level: its import costs several
    times numpy's, and most runs never evaluate a Legendre segment.  A new
    use of scipy in the package imports it inside the function that needs
    it, likewise (tests/test_cli_runner.py checks that importing the CLI
    leaves scipy unloaded).
    """
    from scipy import special as sps

    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    p = np.arange(degree + 1)
    out = np.empty((len(lam), degree + 1))
    z = -lam * delta / 2.0
    # decaying modes, all at once: e^{-z} i_p(z) is scipy's ive up to the half-order factor
    decaying = z >= 1e-6
    zd = z[decaying][:, None]
    out[decaying] = delta * (sps.ive(p + 0.5, zd) * np.sqrt(np.pi / (2.0 * zd)))
    for i in np.flatnonzero(~decaying):
        zi = z[i]
        if abs(zi) < 1e-6:
            row = np.zeros(degree + 1)
            row[0] = 1.0 + zi * zi / 6.0
            if degree >= 1:
                row[1] = zi / 3.0
            if degree >= 2:
                row[2] = zi * zi / 15.0
            out[i] = delta * math.exp(-zi) * row
        else:
            # growing mode (small positive rates only): direct evaluation
            vals = np.array([float(sps.spherical_in(int(n), -zi)) for n in p])
            signs = np.where(p % 2 == 0, 1.0, -1.0)
            out[i] = delta * math.exp(-zi) * signs * vals
    return out


@dataclass
class ExpSegment:
    """value(t) = sum_i coeffs[i] * exp(exponents[i] * (t - refs[i])) on [t0, t1].

    ``coeffs`` has shape (E,) for scalar signals or (E, R) for R-row signals.
    """

    t0: float
    t1: float
    exponents: np.ndarray
    refs: np.ndarray
    coeffs: np.ndarray

    def basis(self, tt: np.ndarray) -> np.ndarray:
        """(len(tt), E) values of the exponentials at times tt."""
        return np.exp(self.exponents[None, :] * (tt[:, None] - self.refs[None, :]))

    def value(self, t):
        out = self.basis(np.atleast_1d(np.asarray(t, dtype=float))) @ self.coeffs
        return out if np.ndim(t) else out[0]

    def mode_duhamel(self, lam, t0: float, t1: float):
        """Duhamel integrals int e^{lam (t1-s)} value(s) ds over [t0, t1].

        Returns (M,) for scalar signals, (M, R) for row signals.
        """
        block = exp_sum_integral(lam, self.exponents, self.refs, t0, t1)
        return block @ self.coeffs

    def l2_squared(self, row_gram: Optional[np.ndarray] = None) -> float:
        block = _exp_gram_block(self.exponents, self.refs, self.t0, self.t1)
        if self.coeffs.ndim == 1:
            return float(self.coeffs @ block @ self.coeffs)
        gram = row_gram if row_gram is not None else np.eye(self.coeffs.shape[1])
        total = 0.0
        for i, m in zip(*np.nonzero(gram)):
            # cross term int q_i q_m
            total += gram[i, m] * float(self.coeffs[:, i] @ block @ self.coeffs[:, m])
        return total


@dataclass
class LegendreSegment:
    """value(t) = sum_p coeffs[p] P_p(2 (t - t0)/(t1 - t0) - 1) on [t0, t1]."""

    t0: float
    t1: float
    coeffs: np.ndarray  # (P,) or (P, R)

    def basis(self, tt: np.ndarray) -> np.ndarray:
        """(len(tt), P) values of P_0..P_{P-1} at times tt."""
        tau = 2.0 * (tt - self.t0) / (self.t1 - self.t0) - 1.0
        return npleg.legvander(tau, self.coeffs.shape[0] - 1)

    def value(self, t):
        out = self.basis(np.atleast_1d(np.asarray(t, dtype=float))) @ self.coeffs
        return out if np.ndim(t) else out[0]

    def mode_duhamel(self, lam, t0: float, t1: float, integrals=None):
        """Duhamel integrals int e^{lam (t1-s)} value(s) ds over [t0, t1].

        ``integrals(degree, delta)``, when given, returns
        `legendre_mode_integrals` of ``lam``; a caller stepping many pieces
        of equal length passes a cached one.
        """
        deg = self.coeffs.shape[0] - 1
        if integrals is None:
            integrals = functools.partial(legendre_mode_integrals, lam)
        if math.isclose(t0, self.t0) and math.isclose(t1, self.t1):
            I = integrals(deg, self.t1 - self.t0)
            return I @ self.coeffs
        # partial span: re-expand the restricted polynomials in the Legendre
        # basis of [t0, t1] (exact, degree-preserving), then integrate there
        R = self._restriction_matrix(t0, t1)
        I = integrals(deg, t1 - t0)
        return I @ (R @ self.coeffs)

    def _restriction_matrix(self, t0: float, t1: float) -> np.ndarray:
        """R[q, p]: coefficient of P_q on [t0, t1] in P_p restricted from the window."""
        deg = self.coeffs.shape[0] - 1
        nodes, wts, Vq = _gauss_legendre(deg)   # Vq: (n, P) values of child P_q
        s = t0 + (t1 - t0) * (nodes + 1.0) / 2.0
        tau_parent = 2.0 * (s - self.t0) / (self.t1 - self.t0) - 1.0
        Vp = npleg.legvander(tau_parent, deg)   # (n, P) values of parent P_p
        q = np.arange(deg + 1)
        # c_{qp} = (2q+1)/2 int P_p(tau(s)) P_q(tau') dtau'
        return ((2.0 * q[:, None] + 1.0) / 2.0) * (Vq.T @ (wts[:, None] * Vp))

    def l2_squared(self, row_gram: Optional[np.ndarray] = None) -> float:
        delta = self.t1 - self.t0
        p = np.arange(self.coeffs.shape[0])
        w = delta / (2.0 * p + 1.0)
        if self.coeffs.ndim == 1:
            return float(np.sum(w * self.coeffs**2))
        gram = row_gram if row_gram is not None else np.eye(self.coeffs.shape[1])
        inner = self.coeffs.T @ (w[:, None] * self.coeffs)
        return float(np.sum(gram * inner))


@dataclass
class ControlSignal:
    """An exact analytic control: one `ExpSegment` or `LegendreSegment`.

    The segment's window [t0, t1] is the signal's [t_start, t_end].  The
    control acts at x = ``x0``, or on the boundary x = 0 when ``x0`` is None.
    N-D signals carry row data: the segment's value is the row vector (R,)
    of coefficients of the first R cross-section modes restricted to the
    control region, and ``mass[r, j]`` maps row coefficients to y-modal
    gains, so ``mass[:, :R]`` is the rows' Gram matrix `row_gram`.
    """

    segment: object
    x0: Optional[float] = None
    mass: Optional[np.ndarray] = None

    def __post_init__(self):
        seg = self.segment
        if not seg.t0 < seg.t1:
            raise ValueError("control segment needs t0 < t1")
        if not np.all(np.isfinite([seg.value(seg.t0), seg.value(seg.t1)])):
            raise ValueError("control values must be finite")

    @property
    def row_gram(self) -> Optional[np.ndarray]:
        """L2(control region) inner products of the rows; None without a mass."""
        return None if self.mass is None else self.mass[:, :self.mass.shape[0]]

    @property
    def t_start(self) -> float:
        return float(self.segment.t0)

    @property
    def t_end(self) -> float:
        return float(self.segment.t1)

    def norm_l2(self) -> float:
        """L2 norm over the window, in closed form."""
        return math.sqrt(max(self.segment.l2_squared(self.row_gram), 0.0))

    def _row_square(self, vals):
        if vals.ndim == 1:
            return vals**2
        if self.row_gram is None:
            return np.sum(vals**2, axis=1)
        return np.einsum("sr,rq,sq->s", vals, self.row_gram, vals)

    def value_at(self, t):
        """Evaluate the control at times t, each within 1e-12 of the window.

        The segment builds its basis once for all times.  The product with
        the coefficients stays one row per time, so every value has the bits
        of ``segment.value(t_i)``: a batched matrix product rounds differently.
        """
        seg = self.segment
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        inside = (seg.t0 - 1e-12 <= tt) & (tt <= seg.t1 + 1e-12)
        if not np.all(inside):
            raise ValueError(f"t={tt[np.argmin(inside)]} outside analytic segments")
        # contiguous rows, laid out like a one-time basis (legvander's is not)
        B = np.ascontiguousarray(seg.basis(tt))
        out = np.empty((len(tt),) + seg.coeffs.shape[1:])
        for r in range(len(tt)):
            out[r] = (B[r:r + 1] @ seg.coeffs)[0]
        return out if np.ndim(t) else out[0]

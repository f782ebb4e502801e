"""Control signals: exact analytic segments in time.

Every control is one segment on its window: a sum of exponentials (moment
method) or a Legendre series (Gramian steering).  A run that controls over
several windows keeps one signal per window.  Closed-loop verification
integrates the segment against the modal flow in closed form, over an array
of pieces in one call (`mode_duhamel`), so the only numerical error
downstream of a synthesis is the linear-algebra residual of the synthesis
itself.  Export samples `ControlSignal.value_at` on a uniform grid.

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
from numpy.polynomial import laguerre as nplag
from numpy.polynomial import legendre as npleg

# Sign of the boundary input as seen by the modal ODE: frozen once by the
# duality calibration test in tests/test_modal.py.  With orthonormal sines
# and the control acting on the Laplacian trace at x=0, integration by parts
# gives  d/dt u_k = lambda_k u_k - sqrt(2/a) (k pi / a) q(t).
S_BOUNDARY = -1.0

#: `ExpSegment.mode_duhamel` evaluates `exp_sum_integral` over chunks of
#: pieces of at most about this many (piece, mode, exponential) entries: a
#: chunk's temporaries (32 KB each) stay in cache and off the process's
#: peak; a piece of more entries is a chunk of its own
PIECE_BATCH_ELEMENTS = 2**12


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


def exp_sum_integral(lam, exps, refs, t0s, t1s):
    """int_{t0}^{t1} e^{lam (t1 - s)} e^{b (s - r)} ds for each (lam, b) pair
    and each piece [t0, t1] of ``t0s``, ``t1s``.

    ``lam`` has shape (M,), ``exps``/``refs`` shape (E,), ``t0s``/``t1s``
    shape (P,).  Returns (P, M, E), or (M, E) for scalar piece ends.
    Evaluated in the end-anchored form (f(t1) - f(t0)) / (b - lam) with a
    series fallback near b = lam; f stays bounded because the stored
    references keep each exponent nonpositive on the window.  Every entry is
    elementwise arithmetic, so its bits do not depend on the other pieces.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    b = np.asarray(exps, dtype=float)[None, None, :]
    r = np.asarray(refs, dtype=float)[None, None, :]
    t0 = np.asarray(t0s, dtype=float).reshape(-1, 1, 1)
    t1 = np.asarray(t1s, dtype=float).reshape(-1, 1, 1)
    lamc = lam[None, :, None]
    delta = t1 - t0
    g1 = b * (t1 - r)                      # exponent of f at t1
    g0 = lamc * delta + b * (t0 - r)       # exponent of f at t0
    gap = b - lamc
    diff = gap * delta
    small = np.abs(diff) < 1e-6
    denom = np.where(small, 1.0, gap)
    main = (np.exp(g1) - np.exp(g0)) / denom
    # series: e^{g0} * delta * (1 + d/2 + d^2/6), d = (b - lam) delta
    series = np.exp(g0) * delta * (1.0 + diff / 2.0 + diff * diff / 6.0)
    out = np.where(small, series, main)
    return out if np.ndim(t0s) else out[0]


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
def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], the
    one rule of every Legendre quadrature; computed once per n, read-only.

    numpy's `leggauss` weights are off by up to 7.6e-14 relative at 32 nodes
    and 1.2e-12 at 64, so each node takes one more Newton step and its
    weight is recomputed there: w = 2 / ((1 - x^2) P_n'(x)^2).
    """
    basis = np.eye(1, n + 1, n)[0]
    dbasis = npleg.legder(basis)
    x = npleg.leggauss(n)[0]
    x = x - npleg.legval(x, basis) / npleg.legval(x, dbasis)
    wts = 2.0 / ((1.0 - x * x) * npleg.legval(x, dbasis) ** 2)
    for arr in (x, wts):
        arr.flags.writeable = False
    return x, wts


@functools.lru_cache(maxsize=64)
def _gauss_legendre(degree: int):
    """`gauss_legendre` of order degree + 1, and the values there of
    P_0..P_degree; computed once per degree, read-only."""
    nodes, wts = gauss_legendre(degree + 1)
    vander = npleg.legvander(nodes, degree)
    vander.flags.writeable = False
    return nodes, wts, vander


@functools.lru_cache(maxsize=64)
def _mode_integral_rules(degree: int):
    """The quadrature rules of `legendre_mode_integrals` for P_0..P_degree,
    computed once per degree, read-only: the crossover z0, then 1 - tau and
    the table P_p(tau) w / 2 of `gauss_legendre` on [-1, 1], then the nodes
    and weights of a Gauss-Laguerre rule exact to degree 2 degree + 1.

    As in `gauss_legendre`, each Laguerre node takes one more Newton step
    and its weight is recomputed there: c = 1 / (x L_n'(x)^2).
    """
    z0 = max(12.0, degree / 2.0)
    x, wts = gauss_legendre(degree // 2 + math.ceil(z0) + 24)
    table = npleg.legvander(x, degree) * (wts[:, None] / 2.0)
    n = degree // 2 + 2
    basis = np.eye(n + 1)[n]
    dbasis = nplag.lagder(basis)
    u = nplag.laggauss(n)[0]
    u = u - nplag.lagval(u, basis) / nplag.lagval(u, dbasis)
    c = 1.0 / (u * nplag.lagval(u, dbasis) ** 2)
    rules = (1.0 - x, table, u, c)
    for arr in rules:
        arr.flags.writeable = False
    return (z0,) + rules


def _legendre_near_one(t, degree: int) -> np.ndarray:
    """P_p(1 - t) - 1 for p = 0..degree, shape (degree + 1,) + t.shape.

    The three-term recurrence runs on P_p - 1 itself, so a t far below 1
    keeps its digits (1 - t rounded to a double would lose them)."""
    out = np.zeros((degree + 1,) + t.shape)
    s = 1.0 - t
    if degree:
        out[1] = -t
    for k in range(1, degree):
        # (k + 1) d_{k+1} = (2k + 1) ((1 - t) d_k - t) - k d_{k-1}
        nxt = out[k + 1]
        np.multiply(s, out[k], out=nxt)
        nxt -= t
        nxt *= (2 * k + 1) / (k + 1)
        nxt -= (k / (k + 1)) * out[k - 1]
    return out


def legendre_mode_integrals(lam, degree: int, delta: float):
    """I_p(lam) = int_0^delta e^{lam (delta - s)} P_p(2 s/delta - 1) ds.

    With z = -lam delta / 2 and w = |z|, I_p = delta y_p(z), where
    y_p(w) = e^{-w} i_p(w) = 1/2 int_{-1}^{1} e^{-w (1 - tau)} P_p(tau) dtau
    (i_p the modified spherical Bessel function).  Returns array
    (len(lam), degree + 1).

    For w <= z0 a Gauss-Legendre rule integrates y_p, z = 0 included.
    Above z0, u = w (1 - tau) turns y_p into
    (1/2w) [int_0^inf e^{-u} P_p(1 - u/w) du
            - e^{-2w} int_0^inf e^{-v} P_p(-1 - v/w) dv],
    two polynomials of degree p against e^{-u}, which a Gauss-Laguerre rule
    integrates exactly.  A growing mode (z < 0) is its reflection,
    y_p(-w) = (-1)^p e^{2w} y_p(w).  Normwise (row max), each row is within
    about 2e-14 of a 40-digit oracle up to degree 63.

    Each distinct z is evaluated once and scattered back to every rate that
    shares it: on the pi x pi cylinder the x- and y-spectra coincide, so
    rate(k, j) = rate(j, k) and its 256 rates at K_x = J_y = 16 hold 130
    values.  A row's bits do not depend on the other rates in the call.
    """
    z0, one_minus_tau, table, u, c = _mode_integral_rules(degree)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    z = -lam * delta / 2.0
    zd, row = np.unique(z, return_inverse=True)
    w = np.abs(zd)
    y = np.empty((len(zd), degree + 1))
    signs = np.where(np.arange(degree + 1) % 2 == 0, 1.0, -1.0)
    near = w <= z0
    y[near] = np.einsum("mn,np->mp", np.exp(-w[near, None] * one_minus_tau), table)
    far = w[~near, None]
    if far.size:
        # P_p(1 - t) at t = u/w, then P_p(-1 - t) = (-1)^p P_p(1 + t); the
        # weights integrate the constant 1 of P_p = 1 + d_p to 1
        d = _legendre_near_one(np.concatenate([u, -u]) / far, degree)
        top = 1.0 + np.einsum("pmn,n->mp", d[:, :, :len(u)], c)
        bottom = (1.0 + np.einsum("pmn,n->mp", d[:, :, len(u):], c)) * signs
        y[~near] = (top - np.exp(-2.0 * far) * bottom) / (2.0 * far)
    growing = zd < 0.0
    y[growing] *= np.exp(2.0 * w[growing, None]) * signs
    return delta * y[row]


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

    def mode_duhamel(self, lam, t0s, t1s):
        """Duhamel integrals int e^{lam (t1-s)} value(s) ds over each piece
        [t0, t1] of ``t0s``, ``t1s``.

        Returns (P, M) for scalar signals, (P, M, R) for row signals, without
        the leading P for scalar piece ends.  `exp_sum_integral` runs on
        chunks of at most about PIECE_BATCH_ELEMENTS entries (at least one
        piece); each piece's product with the coefficients is its own 2-D
        product, so a piece has the same bits in any chunk.
        """
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        t0, t1 = np.atleast_1d(t0s), np.atleast_1d(t1s)
        per = max(1, PIECE_BATCH_ELEMENTS // (len(lam) * len(self.exponents)))
        out = np.empty((len(t0), len(lam)) + self.coeffs.shape[1:])
        for lo in range(0, len(t0), per):
            block = exp_sum_integral(lam, self.exponents, self.refs,
                                     t0[lo:lo + per], t1[lo:lo + per])
            for i, piece in enumerate(block, lo):
                np.matmul(piece, self.coeffs, out=out[i])
        return out if np.ndim(t0s) else out[0]

    def time_gram(self) -> np.ndarray:
        """(E, E) Gram matrix of the exponentials in L2(t0, t1)."""
        return _exp_gram_block(self.exponents, self.refs, self.t0, self.t1)


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

    def mode_duhamel(self, lam, t0s, t1s, integrals=None):
        """Duhamel integrals int e^{lam (t1-s)} value(s) ds over each piece
        [t0, t1] of ``t0s``, ``t1s``: (P, M) or (P, M, R), without the
        leading P for scalar piece ends.

        ``integrals(degree, delta)``, when given, returns
        `legendre_mode_integrals` of ``lam``; a caller stepping many pieces
        of equal length passes a cached one.  The polynomials restricted to
        a piece are re-expanded in the Legendre basis of the piece (exact,
        degree-preserving) and integrated there, whether or not the piece is
        the whole window.
        """
        deg = self.coeffs.shape[0] - 1
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if integrals is None:
            integrals = functools.partial(legendre_mode_integrals, lam)
        t0, t1 = np.atleast_1d(t0s), np.atleast_1d(t1s)
        out = np.empty((len(t0), len(lam)) + self.coeffs.shape[1:])
        pieces = zip(self._restriction_matrices(t0, t1), (t1 - t0).tolist())
        for i, (R, h) in enumerate(pieces):
            out[i] = integrals(deg, h) @ (R @ self.coeffs)
        return out if np.ndim(t0s) else out[0]

    def _restriction_matrices(self, t0s: np.ndarray, t1s: np.ndarray) -> list:
        """Per piece [t0, t1], R[q, p]: the coefficient of P_q on [t0, t1] in
        P_p restricted from the window.  The Gauss nodes of every piece go
        through one `legvander`; each piece keeps its own 2-D products."""
        deg = self.coeffs.shape[0] - 1
        nodes, wts, Vq = _gauss_legendre(deg)   # Vq: (n, P) values of child P_q
        s = t0s[:, None] + (t1s - t0s)[:, None] * (nodes + 1.0) / 2.0
        tau_parent = 2.0 * (s - self.t0) / (self.t1 - self.t0) - 1.0
        Vp = npleg.legvander(tau_parent, deg)   # (pieces, n, P) values of parent P_p
        # c_{qp} = (2q+1)/2 int P_p(tau(s)) P_q(tau') dtau'
        scale = (2.0 * np.arange(deg + 1)[:, None] + 1.0) / 2.0
        return [scale * (Vq.T @ (wts[:, None] * V)) for V in Vp]

    def time_gram(self) -> np.ndarray:
        """(P, P) Gram matrix of P_0..P_{P-1} in L2(t0, t1): diag((t1 - t0)/(2p + 1))."""
        p = np.arange(self.coeffs.shape[0])
        return np.diag((self.t1 - self.t0) / (2.0 * p + 1.0))


@dataclass
class ControlSignal:
    """An exact analytic control: one `ExpSegment` or `LegendreSegment`.

    The segment's window [t0, t1] is the signal's [t_start, t_end].  The
    control acts at x = ``x0``, or on the boundary x = 0 when ``x0`` is None.
    N-D signals carry row data: the segment's value is the row vector (R,)
    of coefficients of the first R cross-section modes restricted to the
    control region, and ``mass[r, j]`` maps row coefficients to y-modal
    gains, so ``mass[:, :R]`` is the rows' Gram matrix: their inner
    products in L2(control region).
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
    def t_start(self) -> float:
        return float(self.segment.t0)

    @property
    def t_end(self) -> float:
        return float(self.segment.t1)

    def norm_l2(self) -> float:
        """L2 norm over the window, in closed form: with G the segment's
        `time_gram` and C its coefficients (E,) or (E, R), the square root of
        the sum of mass[:, :R] * (C^T G C), the rows' Gram matrix being the
        identity without a mass."""
        seg = self.segment
        C = seg.coeffs.reshape(len(seg.coeffs), -1)
        inner = C.T @ seg.time_gram() @ C
        rows = np.eye(len(inner)) if self.mass is None else self.mass[:, :len(inner)]
        return math.sqrt(max(float(np.sum(rows * inner)), 0.0))

    def value_at(self, t):
        """Evaluate the control at times t, each within 1e-12 of the window.

        The segment builds its basis once for all times.  The product with
        the coefficients is one stacked row product per time, so every value
        has the bits of ``segment.value(t_i)``: one (N, E) matrix product
        rounds differently.
        """
        seg = self.segment
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        inside = (seg.t0 - 1e-12 <= tt) & (tt <= seg.t1 + 1e-12)
        if not np.all(inside):
            raise ValueError(f"t={tt[np.argmin(inside)]} outside analytic segments")
        # contiguous rows, laid out like a one-time basis (legvander's is not)
        B = np.ascontiguousarray(seg.basis(tt))
        out = np.matmul(B[:, None, :], seg.coeffs)[:, 0]
        return out if np.ndim(t) else out[0]

"""Exact-in-time spectral evolution of the truncated system.

States are modal coefficient arrays in the orthonormal sine basis: a vector
(K,) for 1-D problems, a matrix (K_x, J_y) on the cylinder.  The linear flow
is diagonal, so every evolution step is an exact exponential update; a
control enters through the closed-form Duhamel integral of its analytic
segment, evaluated for all of an evolution's pieces in one pass.
Sources are piecewise linear in time and integrated exactly by phi1/phi2
updates.

The modal input coefficients, derived from the transposition identity:

* boundary control q at x=0 (Laplacian trace):
  du_{kj}/dt = Lambda_{kj} u_{kj} + S_BOUNDARY sqrt(2/a) (k pi/a) <q, psi_j>_omega
* pointwise control at x0:
  du_{kj}/dt = Lambda_{kj} u_{kj} + sqrt(2/a) sin(k pi x0/a) <h, psi_j>_omega

Both signs are guarded by the duality calibration tests.  Evolution refuses no
parameter; `boundary_1d.verify_null` judges, and guards, a 1-D null claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .signals import (
    S_BOUNDARY,
    ControlSignal,
    LegendreSegment,
    exp_sum_integral,
    legendre_mode_integrals,
    phi1,
    phi2,
)
from .spectrum import SpectrumSpec

#: `coeff_norm` recomputes a 2-norm at or below this from the max-scaled entries
TINY_NORM = 1e-140
#: above this largest entry the squares of a norm can overflow, so
#: `nonlinear._source_delta` scales by the largest entry first
HUGE_NORM = 1e150


def coeff_norm(x, axis=None):
    """The 2-norm of modal coefficients, over ``axis`` (None: all of them).

    `np.linalg.norm` squares the entries, so it returns 0.0 once the largest
    is below about 1e-154; a result <= TINY_NORM is recomputed as
    max|x| ||x / max|x|||.  Above that bound the squares lost to underflow
    cost less than 2.3e-22 relative for up to 2^20 entries, so every
    normal-range norm keeps the bits of `np.linalg.norm`.  Over an ``axis``
    the norm equals np.sqrt(np.sum(x**2, axis)) bit for bit.
    """
    out = np.linalg.norm(x, axis=axis)
    if axis is None:
        if out > TINY_NORM:  # the common case costs one comparison
            return float(out)
    elif np.all(out > TINY_NORM):
        return out
    top = np.max(np.abs(x), axis=axis, keepdims=True, initial=np.finfo(float).tiny)
    scaled = np.reshape(top, np.shape(out)) * np.linalg.norm(x / top, axis=axis)
    out = np.where(out > TINY_NORM, out, scaled)
    return float(out) if axis is None else out


@dataclass
class ModalState:
    """Modal coefficients at a time instant, with their decay rates."""

    coeffs: np.ndarray
    time: float
    spec: SpectrumSpec
    rates: np.ndarray

    @property
    def norm(self) -> float:
        """L2(Omega) norm via Parseval."""
        return coeff_norm(self.coeffs)

    @property
    def is_1d(self) -> bool:
        return self.coeffs.ndim == 1


def state_1d(
    spec: SpectrumSpec,
    j: int,
    coeffs=None,
    time: float = 0.0,
    count: Optional[int] = None,
) -> ModalState:
    """1-D state for cross-mode j of the plain fourth-order problem (rates
    ``spec.x_rates(j, count)``)."""
    n = count if count is not None else spec.K_x
    rates = spec.x_rates(j, n)
    c = np.zeros(n) if coeffs is None else np.asarray(coeffs, dtype=float).copy()
    if c.shape != (n,):
        raise ValueError(f"coefficient shape {c.shape} != ({n},)")
    if not np.all(np.isfinite(c)):
        raise ValueError("modal coefficients must be finite")
    return ModalState(coeffs=c, time=time, spec=spec, rates=rates)


def state_nd(spec: SpectrumSpec, coeffs=None, time: float = 0.0) -> ModalState:
    """Cylinder state with the full (K_x, J_y) rate matrix."""
    c = (
        np.zeros((spec.K_x, spec.J_y))
        if coeffs is None
        else np.asarray(coeffs, dtype=float).copy()
    )
    if c.shape != (spec.K_x, spec.J_y):
        raise ValueError(f"coefficient shape {c.shape} != ({spec.K_x}, {spec.J_y})")
    if not np.all(np.isfinite(c)):
        raise ValueError("modal coefficients must be finite")
    return ModalState(coeffs=c, time=time, spec=spec, rates=spec.rate_matrix())


@dataclass
class Trace:
    """Recorded (t, coeffs) samples of an evolution."""

    times: np.ndarray
    coeffs: np.ndarray  # (n, *state_shape)

    def norms(self) -> np.ndarray:
        """`coeff_norm` of each sample."""
        return coeff_norm(self.coeffs, axis=tuple(range(1, self.coeffs.ndim)))


@dataclass
class ModalSource:
    """Piecewise-linear-in-time modal source f(t) with the state's shape."""

    times: np.ndarray
    values: np.ndarray

    def value_at(self, t: float) -> np.ndarray:
        ts = self.times
        if t <= ts[0]:
            return self.values[0]
        if t >= ts[-1]:
            return self.values[-1]
        i = int(np.searchsorted(ts, t, side="right") - 1)
        w = (t - ts[i]) / (ts[i + 1] - ts[i])
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]


# ---------------------------------------------------------------------------
# gains
# ---------------------------------------------------------------------------

def x_gain(spec: SpectrumSpec, x0: Optional[float] = None,
           count: Optional[int] = None) -> np.ndarray:
    """x-modal gain of the actuator at ``x0`` for k = 1..count (default K_x):
    the boundary's S_BOUNDARY sqrt(2/a) k pi / a when ``x0`` is None, the
    point's sqrt(2/a) sin(k pi x0 / a) otherwise."""
    n = count if count is not None else spec.K_x
    ks = np.arange(1, n + 1, dtype=float)
    if x0 is None:
        return S_BOUNDARY * math.sqrt(2.0 / spec.a_float) * ks * math.pi / spec.a_float
    return math.sqrt(2.0 / spec.a_float) * np.sin(ks * math.pi * x0 / spec.a_float)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

class ControlStepper:
    """Exact steps of one state shape under one control signal, or none.

    Built once per signal and reused for every step: the x gain and the
    row-to-mode ``mass`` are resolved once, and e^{lam h} and the Legendre
    mode integrals are cached per distinct step length h.  Two forcings of a
    step inside the signal's window:

    * `forcing` evaluates the segment's `mode_duhamel` at the absolute times
      of an array of pieces, then applies ``mass`` and the gain.
      `evolve_controlled` takes all of its pieces through one call, and each
      piece has the bits of the per-piece formula, so syntheses keep their
      arithmetic bit for bit.
    * `step_forcing`, the closed-loop replay's, also caches an exponential
      segment's Duhamel block per h, with step-anchored references: each
      exponential is referenced to the step's start if it decays and to the
      step's end if it grows.  The block already holds the gain, ``mass`` and
      the segment's coefficients, so a step starting at t0 costs the scale
      vector e^{b (t0 + rho h - r)} (rho = 1 for growing b, else 0; entries
      <= 1 under the reference discipline of `signals`) and one
      matrix-vector product.  A Legendre segment takes `forcing`.  When
      the block was introduced, the ``nonlinear-tensor`` benchmark (2-core
      VM, reference CPU speed) had a median ``wall_s`` of 0.77 s with a
      replay that called `evolve_controlled` per step, 0.62 s on `forcing`
      alone and 0.39 s on the block; with the later speedups of the other
      layers and of `rhs_operator` it is 0.184 s.
    """

    def __init__(self, state: ModalState, control: Optional[ControlSignal]):
        self.control = control
        self.rates = state.rates
        self._lam = state.rates.ravel()
        self._cache = {}  # ("grow", h), ("legendre", degree, h), ("block", h)
        if control is not None:
            # the modal forcing is outer(x gain, mass.T @ w(t)), or x gain * w(t) in 1-D
            self._x_gain = x_gain(state.spec, control.x0, state.coeffs.shape[0])
            self._mass = control.mass

    def growth(self, h: float) -> np.ndarray:
        """e^{lam h}, cached per step length."""
        return self._cached(("grow", h), lambda: np.exp(self.rates * h))

    def forcing(self, t0s, t1s) -> np.ndarray:
        """int_{t0}^{t1} e^{lam (t1 - s)} (modal input of the control)(s) ds
        for each piece [t0, t1] of ``t0s``, ``t1s`` inside the window,
        evaluated at absolute times: (P,) + rates.shape, or rates.shape for
        scalar piece ends.  The segment's `mode_duhamel` takes every piece in
        one call; ``mass`` is contracted piece by piece, so each piece has
        the bits of a call on that piece alone."""
        seg, lam = self.control.segment, self.rates
        t0, t1 = np.atleast_1d(t0s), np.atleast_1d(t1s)
        if isinstance(seg, LegendreSegment):
            duh = seg.mode_duhamel(self._lam, t0, t1, integrals=self._legendre_integrals)
        else:
            duh = seg.mode_duhamel(self._lam, t0, t1)  # (P, M) or (P, M, R)
        pieces = (len(duh),) + lam.shape
        if duh.ndim == 2:
            out = duh.reshape(pieces) * (self._x_gain if lam.ndim == 1 else self._x_gain[:, None])
        else:
            out = np.empty(pieces)
            for i, d in enumerate(duh.reshape(pieces + (duh.shape[2],))):
                out[i] = np.einsum("kjr,rj->kj", d, self._mass)
            out *= self._x_gain[:, None]
        return out if np.ndim(t0s) else out[0]

    def step_forcing(self, t0: float, t1: float) -> np.ndarray:
        """The same integral by the step-anchored block of an exponential
        segment, cached per step length."""
        seg = self.control.segment
        if isinstance(seg, LegendreSegment):
            return self.forcing(t0, t1)
        h = t1 - t0
        block = self._cached(("block", h), lambda: self._anchored_block(seg, h))
        anchor = np.where(seg.exponents > 0, t1, t0)
        return (block @ np.exp(seg.exponents * (anchor - seg.refs))).reshape(self.rates.shape)

    def advance(self, coeffs: np.ndarray, t0: float, t1: float) -> np.ndarray:
        """The replay's exact controlled flow of ``coeffs`` over a step
        [t0, t1] inside the window."""
        if self.control is None:
            return coeffs * self.growth(t1 - t0)
        return coeffs * self.growth(t1 - t0) + self.step_forcing(t0, t1)

    def _cached(self, key, build):
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = build()
        return out

    def _legendre_integrals(self, degree: int, h: float) -> np.ndarray:
        return self._cached(("legendre", degree, h),
                            lambda: legendre_mode_integrals(self._lam, degree, h))

    def _anchored_block(self, seg, h: float) -> np.ndarray:
        """(M, E): the step-anchored Duhamel integrals of the exponentials
        over [0, h], times gain[k] * (coefficients @ mass)[e, j]."""
        b = seg.exponents
        duh = exp_sum_integral(self._lam, b, np.where(b > 0, h, 0.0), 0.0, h)
        cols = seg.coeffs if self._mass is None else seg.coeffs @ self._mass
        reduced = self._x_gain[:, None, None] * cols.reshape(len(b), -1).T[None, :, :]
        return (duh.reshape(len(reduced), -1, len(b)) * reduced).reshape(duh.shape)


def _breakpoints(t0, t1, source, record):
    pts = {t0, t1}
    if source is not None:
        for t in source.times:
            pts.add(float(t))
    if record is not None:
        for t in record:
            pts.add(float(t))
    arr = np.array(sorted(p for p in pts if t0 - 1e-14 <= p <= t1 + 1e-14))
    arr[0], arr[-1] = t0, t1
    keep = np.concatenate([[True], np.diff(arr) > 1e-14])
    return arr[keep]


def _recorded(pts: np.ndarray, record) -> np.ndarray:
    """Mask of the breakpoints within 1e-12 of a record time."""
    want = np.unique(np.asarray(record, dtype=float))
    if want.size == 0:
        return np.zeros(len(pts), dtype=bool)
    i = np.searchsorted(want, pts)
    below = np.abs(pts - want[np.maximum(i - 1, 0)])
    above = np.abs(want[np.minimum(i, want.size - 1)] - pts)
    return np.minimum(below, above) <= 1e-12


def evolve_controlled(
    state: ModalState,
    control: Optional[ControlSignal],
    window: tuple,
    source: Optional[ModalSource] = None,
    record: Optional[Sequence[float]] = None,
):
    """Evolve over ``window`` under control and/or source, exactly per piece.

    The window is cut at every source time and record time, and each piece
    is one exact update: diagonal flow, the closed-form Duhamel integral of
    the control's segment, and the phi1/phi2 update of the source.  The
    Duhamel integrals of all pieces come from one `ControlStepper.forcing`
    call, on one stepper built for this call, before the first step.
    Returns the end state, or ``(state, Trace)`` when ``record`` times are
    given; a breakpoint within 1e-12 of a record time is recorded.  The
    control's segment must cover the window: a control over several windows
    is evolved one signal at a time.  ``state`` itself is left unchanged.  A
    window that ends before it starts, or at nan, raises ValueError.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t0 <= t1:  # also refuses a nan end
        raise ValueError(f"window ({t0}, {t1}) needs t0 <= t1")
    if not math.isclose(t0, state.time, rel_tol=0, abs_tol=1e-10):
        raise ValueError(f"window start {t0} != state time {state.time}")
    if control is not None and (control.t_start > t0 + 1e-12 or control.t_end < t1 - 1e-12):
        raise ValueError("control segment does not cover the window")
    stepper = ControlStepper(state, control)

    pts = _breakpoints(t0, t1, source, record)
    keep = _recorded(pts, record) if record is not None else None
    lam = state.rates
    coeffs = state.coeffs
    if control is not None:
        forcings = stepper.forcing(pts[:-1], pts[1:])
    rec_c = [coeffs.copy()] if keep is not None and keep[0] else []
    for i, (a, b) in enumerate(zip(pts[:-1], pts[1:])):
        delta = b - a
        coeffs = coeffs * stepper.growth(delta)
        if control is not None:
            coeffs = coeffs + forcings[i]
        if source is not None:
            f0, f1 = source.value_at(a), source.value_at(b)
            z = lam * delta
            coeffs = coeffs + (delta * phi1(z) * f0 + delta * phi2(z) * (f1 - f0))
        if keep is not None and keep[i + 1]:
            rec_c.append(coeffs)
    cur = replace(state, coeffs=coeffs, time=pts[-1]) if len(pts) > 1 else state
    if record is None:
        return cur
    return cur, Trace(times=pts[keep], coeffs=np.array(rec_c))


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------

def observation(coeffs: np.ndarray, spec: SpectrumSpec, x0: Optional[float] = None):
    """d/dx at x=0 when ``x0`` is None, else the value at x = x0: a scalar in
    1-D, a y-modal row on the cylinder."""
    w = x_gain(spec, x0, coeffs.shape[0]) / (S_BOUNDARY if x0 is None else 1.0)
    if coeffs.ndim == 1:
        return float(w @ coeffs)
    return w @ coeffs


def observe(trace: Trace, spec: SpectrumSpec, x0: Optional[float] = None):
    """Boundary and (optionally) point observation series along a trace."""
    out = {"t": trace.times, "norm": trace.norms()}
    out["boundary"] = np.array([observation(c, spec) for c in trace.coeffs])
    if x0 is not None:
        out["point"] = np.array([observation(c, spec, x0) for c in trace.coeffs])
    return out


# ---------------------------------------------------------------------------
# nonlinear term
# ---------------------------------------------------------------------------

class _AxisRows(NamedTuple):
    """Midpoint nodes on one axis and the orthonormal sine rows there."""

    length: float
    nodes: np.ndarray
    weights: np.ndarray
    S: np.ndarray  # S[m - 1] = sqrt(2/L) sin(m pi s/L) at the nodes
    C: np.ndarray  # dS/ds


def _axis_rows(spec: SpectrumSpec) -> list:
    """`_AxisRows` of the x axis, then of each box axis of the cross-section,
    on 2 count + 2 midpoint nodes, where ``count`` is the axis's highest
    retained sine index: K_x on x, the largest tuple entry on a box axis."""
    out = []
    for length, count in [(spec.a_float, spec.K_x)] + spec.box_axes("nonlinear term"):
        n = 2 * count + 2
        nodes, weights = (np.arange(n) + 0.5) * length / n, np.full(n, length / n)
        ms = np.arange(1, count + 1)
        arg = np.outer(ms, nodes) * math.pi / length
        S = math.sqrt(2.0 / length) * np.sin(arg)
        C = math.sqrt(2.0 / length) * (ms[:, None] * math.pi / length) * np.cos(arg)
        out.append(_AxisRows(length, nodes, weights, S, C))
    return out


def _sine_projection_matrix(K: int, length: float, nodes: np.ndarray, weights: np.ndarray):
    """Exact projection of cosine-polynomial grid data onto orthonormal sines.

    |grad u|^2 is a pure cosine polynomial of degree <= 2K per axis, so its
    cosine coefficients come out exactly from the midpoint rule (which kills
    cos(m x) sums for 0 < m < 2 n), and the sine-basis projection follows from
    the closed form int_0^L cos(m pi x/L) sin(k pi x/L) dx
    = (L/pi) k (1 - (-1)^{k+m}) / (k^2 - m^2).
    """
    M = 2 * K
    m = np.arange(0, M + 1)
    Dc = np.cos(np.outer(m, nodes) * math.pi / length) * weights[None, :] * (2.0 / length)
    Dc[0] *= 0.5
    ks = np.arange(1, K + 1)
    kk = ks[:, None].astype(float)
    mm = m[None, :].astype(float)
    odd = (ks[:, None] + m[None, :]) % 2 == 1
    denom = np.where(odd, kk * kk - mm * mm, 1.0)
    B = np.where(odd, 2.0 * kk / denom, 0.0)
    B *= (length / math.pi) * math.sqrt(2.0 / length)
    return B @ Dc  # (K, n)


class _RhsOperator(NamedTuple):
    """The read-only matrices of `nonlinear_rhs` on one spec and midpoint grid.

    A call costs 2 + 2 * (number of box axes) + 2 products, each its own
    `np.dot` (the dgemm of ``@`` with less dispatch).  Each square is taken
    in place in the array `np.dot` just returned, and the -1/2 of the term
    sits in ``neg_half_proj_x``: scaling by a power of two is exact, so this
    has the bits of ``proj_x @ (-0.5 * grad_sq) @ proj_y_T`` unless a
    product falls in the subnormal range.  The products are not stacked
    into one wider product: OpenBLAS blocks a wider operand differently and
    rounds it differently in the last bit.
    """

    x_cos_T: np.ndarray          # (nx, K_x): d/dx rows at the x nodes
    x_sin_T: np.ndarray          # (nx, K_x): sine rows at the x nodes
    y_sine: np.ndarray           # (J_y, NY): y basis on the y grid
    y_derivs: tuple              # per box axis i, (J_y, NY): d/dy_i of the y basis
    neg_half_proj_x: np.ndarray  # (K_x, nx): -1/2 times the x projection
    proj_y_T: np.ndarray         # (NY, J_y)

    def __call__(self, U: np.ndarray) -> np.ndarray:
        """The projected quadratic term of a (K_x, J_y) coefficient array."""
        dot = np.dot
        grad_sq = dot(self.x_cos_T, dot(U, self.y_sine))  # (nx, NY): u_x, squared next
        grad_sq *= grad_sq
        for Pd in self.y_derivs:
            uyi = dot(self.x_sin_T, dot(U, Pd))
            uyi *= uyi
            grad_sq += uyi
        return dot(dot(self.neg_half_proj_x, grad_sq), self.proj_y_T)


def _rhs_operator(spec: SpectrumSpec) -> _RhsOperator:
    x, *y_axes = _axis_rows(spec)
    y_sines = [ax.S for ax in y_axes]
    # d/dy_i: derivative rows on axis i, sine rows on the others
    y_derivs = tuple(spec.tuple_tensor(y_sines[:axis] + [ax.C] + y_sines[axis + 1:])
                     for axis, ax in enumerate(y_axes))
    proj_y = spec.tuple_tensor([
        _sine_projection_matrix(ax.S.shape[0], ax.length, ax.nodes, ax.weights) for ax in y_axes
    ])
    op = _RhsOperator(
        x_cos_T=x.C.T, x_sin_T=x.S.T, y_sine=spec.tuple_tensor(y_sines), y_derivs=y_derivs,
        neg_half_proj_x=-0.5 * _sine_projection_matrix(spec.K_x, x.length, x.nodes, x.weights),
        proj_y_T=proj_y.T,
    )
    for arr in (op.x_cos_T, op.x_sin_T, op.y_sine, *op.y_derivs, op.neg_half_proj_x, op.proj_y_T):
        arr.flags.writeable = False
    return op


def rhs_operator(spec: SpectrumSpec) -> _RhsOperator:
    """The grid matrices of `nonlinear_rhs`, built once per spec and
    read-only.  Calling the result on a coefficient array is the array-level
    core of `nonlinear_rhs`: no state copy, no validation; the array is
    only read."""
    return spec.cached("nonlinear_rhs", lambda: _rhs_operator(spec))


def nonlinear_rhs(state: ModalState) -> np.ndarray:
    """Projection of -1/2 |grad u|^2 onto the retained sine basis.

    Pseudospectral on a tensor midpoint grid of 2K + 2 points per axis, K the
    axis's highest retained sine index.  The squared gradient is a pure
    cosine polynomial of degree <= 2K per axis, so with >= 2K + 1 points per
    axis its retained projection is computed without aliasing error.  The
    grid matrices are built once per spec.
    """
    if state.is_1d:
        raise ValueError("nonlinear term is defined on the cylinder (use state_nd)")
    return rhs_operator(state.spec)(state.coeffs)

"""Exact-in-time spectral evolution of the truncated system.

States are modal coefficient arrays in the orthonormal sine basis: a vector
(K,) for 1-D problems, a matrix (K_x, J_y) on the cylinder.  The linear flow
is diagonal, so every evolution step is an exact exponential update; a
control enters through the closed-form Duhamel integral of its analytic
segment.
Sources are piecewise linear in time and integrated exactly by phi1/phi2
updates.

The modal input coefficients, derived from the transposition identity:

* boundary control q at x=0 (Laplacian trace):
  du_{kj}/dt = Lambda_{kj} u_{kj} + S_BOUNDARY sqrt(2/a) (k pi/a) <q, psi_j>_omega
* pointwise control at x0:
  du_{kj}/dt = Lambda_{kj} u_{kj} + sqrt(2/a) sin(k pi x0/a) <h, psi_j>_omega

Both signs are guarded by the duality calibration tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import QuadratureUnderResolved
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


@dataclass
class ModalState:
    """Modal coefficients at a time instant, with their decay rates."""

    coeffs: np.ndarray
    time: float
    spec: SpectrumSpec
    rates: np.ndarray

    def copy(self) -> "ModalState":
        return replace(self, coeffs=self.coeffs.copy())

    @property
    def norm(self) -> float:
        """L2(Omega) norm via Parseval."""
        return float(np.linalg.norm(self.coeffs))

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
    ``x_eigenvalue``)."""
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
        axes = tuple(range(1, self.coeffs.ndim))
        return np.sqrt(np.sum(self.coeffs**2, axis=axes))


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

def evolve_free(state: ModalState, dt: float) -> ModalState:
    """Exact diagonal flow over dt >= 0."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt == 0.0:
        return state.copy()
    new = state.copy()
    new.coeffs = state.coeffs * np.exp(state.rates * dt)
    new.time = state.time + dt
    return new


class ControlStepper:
    """Exact steps of one state shape under one control signal, or none.

    Built once per signal and reused for every step: the x gain and the
    row-to-mode ``mass`` are resolved once, and e^{lam h} and the Legendre
    mode integrals are cached per distinct step length h.  Two forcings of a
    step inside the signal's window:

    * `forcing` evaluates the segment's `mode_duhamel` at the step's absolute
      times, then applies ``mass`` and the gain.  `evolve_controlled` uses
      it, so syntheses keep their arithmetic bit for bit.
    * `step_forcing`, the closed-loop replay's, also caches an exponential
      segment's Duhamel block per h, with step-anchored references: each
      exponential is referenced to the step's start if it decays and to the
      step's end if it grows.  The block already holds the gain, ``mass`` and
      the segment's coefficients, so a step starting at t0 costs the scale
      vector e^{b (t0 + rho h - r)} (rho = 1 for growing b, else 0; entries
      <= 1 under the reference discipline of `signals`) and one
      matrix-vector product.  A Legendre segment takes `forcing`.  On the
      ``nonlinear-tensor`` benchmark (2-core VM, reference CPU speed) a
      replay on `forcing` alone has a median ``wall_s`` of 0.62 s, one on
      the block 0.39 s, against 0.77 s for a replay that called
      `evolve_controlled` per step.
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

    def forcing(self, t0: float, t1: float) -> np.ndarray:
        """int_{t0}^{t1} e^{lam (t1 - s)} (modal input of the control)(s) ds
        over a step inside the window, evaluated at absolute times."""
        seg, lam = self.control.segment, self.rates
        if isinstance(seg, LegendreSegment):
            duh = seg.mode_duhamel(self._lam, t0, t1, integrals=self._legendre_integrals)
        else:
            duh = seg.mode_duhamel(self._lam, t0, t1)  # (M,) or (M, R)
        if duh.ndim == 1:
            return duh.reshape(lam.shape) * (self._x_gain if lam.ndim == 1 else self._x_gain[:, None])
        duh3 = duh.reshape(lam.shape + (duh.shape[1],))
        return np.einsum("kjr,rj->kj", duh3, self._mass) * self._x_gain[:, None]

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
    the control's segment through one `ControlStepper` built for this call,
    and the phi1/phi2 update of the source.  Returns the end state, or
    ``(state, Trace)`` when ``record`` times are given; a breakpoint within
    1e-12 of a record time is recorded.  The control's segment must cover
    the window: a control over several windows is evolved one signal at a
    time.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not math.isclose(t0, state.time, rel_tol=0, abs_tol=1e-10):
        raise ValueError(f"window start {t0} != state time {state.time}")
    if control is not None and (control.t_start > t0 + 1e-12 or control.t_end < t1 - 1e-12):
        raise ValueError("control segment does not cover the window")
    stepper = ControlStepper(state, control)

    pts = _breakpoints(t0, t1, source, record)
    keep = _recorded(pts, record) if record is not None else None
    lam = state.rates
    coeffs = state.coeffs
    rec_c = [coeffs.copy()] if keep is not None and keep[0] else []
    for i, (a, b) in enumerate(zip(pts[:-1], pts[1:])):
        delta = b - a
        coeffs = coeffs * stepper.growth(delta)
        if control is not None:
            coeffs = coeffs + stepper.forcing(a, b)
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


def evolve_pointwise_controlled(state, control, window, **kw):
    """Controlled evolution through the point input at ``control.x0``.

    Refuses Critical/Near parameters: at a rate collision no control acts on
    the invariant two-mode subspace, so controlled-solve claims would be
    vacuous (free flow remains available).
    """
    from .spectrum import require_clear

    if control.x0 is None or not (0.0 < control.x0 < state.spec.a_float):
        raise ValueError("expected a pointwise control signal with x0 inside (0, a)")
    require_clear(state.spec)
    return evolve_controlled(state, control, window, **kw)


# ---------------------------------------------------------------------------
# adjoint and observations
# ---------------------------------------------------------------------------

def adjoint_solution(phi_T: np.ndarray, t: float, T: float, rates: np.ndarray) -> np.ndarray:
    """phi(t) = exp(rates (T - t)) phi_T for 0 <= t <= T."""
    if not 0.0 <= t <= T + 1e-12:
        raise ValueError("need 0 <= t <= T")
    return np.asarray(phi_T) * np.exp(rates * (T - t))


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
# projection of initial data
# ---------------------------------------------------------------------------

def _gauss_nodes(n: int, length: float):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * length * (x + 1.0), 0.5 * length * w


class _AxisRows(NamedTuple):
    """Quadrature nodes on one axis and the orthonormal sine rows there."""

    length: float
    nodes: np.ndarray
    weights: np.ndarray
    S: np.ndarray  # S[m - 1] = sqrt(2/L) sin(m pi s/L) at the nodes
    C: np.ndarray  # dS/ds


def _axis_rows(spec: SpectrumSpec, nodes_for, what: str) -> list:
    """`_AxisRows` of the x axis, then of each box axis of the cross-section.

    ``nodes_for(axis, length, count)`` returns the (nodes, weights) of an
    axis whose highest retained sine index is ``count``: K_x on x, the
    largest tuple entry on a box axis.  ``what`` names the caller for the
    Box gate.
    """
    out = []
    for axis, (length, count) in enumerate([(spec.a_float, spec.K_x)] + spec.box_axes(what)):
        nodes, weights = nodes_for(axis, length, count)
        ms = np.arange(1, count + 1)
        arg = np.outer(ms, nodes) * math.pi / length
        S = math.sqrt(2.0 / length) * np.sin(arg)
        C = math.sqrt(2.0 / length) * (ms[:, None] * math.pi / length) * np.cos(arg)
        out.append(_AxisRows(length, nodes, weights, S, C))
    return out


def project_initial(
    u0,
    spec: SpectrumSpec,
    n_points: Optional[int] = None,
) -> ModalState:
    """Modal coefficients of initial data on the cylinder.

    ``u0`` may be a coefficient array (passed through) or a callable
    ``u0(x, *y)``; callables are integrated against the orthonormal basis by
    tensor Gauss-Legendre quadrature with at least 4 points per wavelength of
    the highest retained mode (>= 2 K points per axis).
    """
    if not callable(u0):
        return state_nd(spec, np.asarray(u0, dtype=float))

    def gauss(axis, length, count):
        n = n_points if n_points is not None else max(4 * count, 48)
        if n < 2 * count:
            raise QuadratureUnderResolved(
                f"{n} points on axis {axis} (x is axis 0) < 2 x {count} modes "
                "(4 points per wavelength rule)"
            )
        return _gauss_nodes(n, length)

    x, *y_axes = _axis_rows(spec, gauss, "callable projection")
    grids = np.meshgrid(x.nodes, *(ax.nodes for ax in y_axes), indexing="ij")
    vals = u0(*grids)
    partial = np.tensordot(x.S * x.weights[None, :], vals, axes=([1], [0]))  # (K_x, ny...)
    Y = spec.tuple_tensor([ax.S * ax.weights[None, :] for ax in y_axes])
    return state_nd(spec, partial.reshape(spec.K_x, -1) @ Y.T)


# ---------------------------------------------------------------------------
# nonlinear term
# ---------------------------------------------------------------------------

def _midpoint_nodes(n: int, length: float):
    return (np.arange(n) + 0.5) * length / n, np.full(n, length / n)


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
    """The matrices of `nonlinear_rhs` on one spec and midpoint grid."""

    x_cos_T: np.ndarray      # (nx, K_x): d/dx rows at the x nodes
    x_sin_T: np.ndarray      # (nx, K_x): sine rows at the x nodes
    y_sine: np.ndarray       # (J_y, NY): y basis on the y grid
    y_derivs: list           # per box axis i, (J_y, NY): d/dy_i of the y basis
    proj_x: np.ndarray       # (K_x, nx)
    proj_y_T: np.ndarray     # (NY, J_y)

    def __call__(self, U: np.ndarray) -> np.ndarray:
        """The projected quadratic term of a (K_x, J_y) coefficient array."""
        ux = self.x_cos_T @ (U @ self.y_sine)  # (nx, NY)
        grad_sq = ux * ux
        for Pd in self.y_derivs:
            uyi = self.x_sin_T @ (U @ Pd)
            grad_sq = grad_sq + uyi * uyi
        f = -0.5 * grad_sq  # (nx, NY)
        return self.proj_x @ f @ self.proj_y_T


def _rhs_operator(spec: SpectrumSpec, grid_resolution: Optional[int]) -> _RhsOperator:
    def midpoint(axis, length, count):
        n = grid_resolution if grid_resolution is not None else 2 * count + 2
        if n < 2 * count:
            raise QuadratureUnderResolved(
                f"{n} grid points on axis {axis} (x is axis 0) < 2 x {count} modes"
            )
        return _midpoint_nodes(n, length)

    x, *y_axes = _axis_rows(spec, midpoint, "nonlinear term")
    y_sines = [ax.S for ax in y_axes]
    # d/dy_i: derivative rows on axis i, sine rows on the others
    y_derivs = [spec.tuple_tensor(y_sines[:axis] + [ax.C] + y_sines[axis + 1:])
                for axis, ax in enumerate(y_axes)]
    proj_y = spec.tuple_tensor([
        _sine_projection_matrix(ax.S.shape[0], ax.length, ax.nodes, ax.weights) for ax in y_axes
    ])
    return _RhsOperator(
        x_cos_T=x.C.T, x_sin_T=x.S.T, y_sine=spec.tuple_tensor(y_sines), y_derivs=y_derivs,
        proj_x=_sine_projection_matrix(spec.K_x, x.length, x.nodes, x.weights),
        proj_y_T=proj_y.T,
    )


def rhs_operator(spec: SpectrumSpec, grid_resolution: Optional[int] = None) -> _RhsOperator:
    """The grid matrices of `nonlinear_rhs`, built once per (spec,
    ``grid_resolution``).  Calling the result on a coefficient array is the
    array-level core of `nonlinear_rhs`: no state copy, no validation."""
    return spec.cached(("nonlinear_rhs", grid_resolution),
                       lambda: _rhs_operator(spec, grid_resolution))


def nonlinear_rhs(state: ModalState, grid_resolution: Optional[int] = None) -> np.ndarray:
    """Projection of -1/2 |grad u|^2 onto the retained sine basis.

    Pseudospectral on a tensor midpoint grid.  The squared gradient is a pure
    cosine polynomial of degree <= 2K per axis, so with >= 2K + 1 points per
    axis its retained projection is computed without aliasing error.  The
    grid matrices are built once per (spec, ``grid_resolution``).
    """
    if state.is_1d:
        raise ValueError("nonlinear term is defined on the cylinder (use state_nd)")
    return rhs_operator(state.spec, grid_resolution)(state.coeffs)


def evaluate_physical(state: ModalState, nx: int, ny: Sequence[int]):
    """Sample u on a tensor midpoint grid (diagnostics and Parseval checks)."""
    sizes = [nx, *ny]
    x, *y_axes = _axis_rows(
        state.spec, lambda axis, length, count: _midpoint_nodes(sizes[axis], length),
        "physical evaluation",
    )
    P0 = state.spec.tuple_tensor([ax.S for ax in y_axes])
    grid_vals = x.S.T @ (state.coeffs @ P0)
    wy_full = y_axes[0].weights
    for ax in y_axes[1:]:
        wy_full = np.multiply.outer(wy_full, ax.weights)
    return grid_vals, x.weights, wy_full.ravel()

"""Frequency-splitting (Lebeau-Robbiano) null control on the box cylinder.

The horizon is cut into windows [a_k, a_k + 2 T_k] with T_k = (alpha/beta) 2^(-k rho),
alpha = beta T (1 - 2^(-rho)) / 2 (so the window lengths telescope to T), and
growing cutoffs gamma_k = beta 2^k.  Each window spends T_k actively killing
the y-modes below gamma_k and T_k coasting on the natural dissipation of the
remainder.  Windows stop once gamma_k exceeds the y-truncation: the truncated
system has finitely many modes, so finitely many windows suffice and the
remaining time is a terminal coast.

Active phases come in two flavors:

* tensor (control region = the whole cross-section): the problem decouples
  per y-mode into 1-D boundary moment problems on the window;
* Gramian (control region a strict subset): the control is parametrized as
  sum_l g_l(t) (psi_l restricted to omega); the input mixes y-modes through
  the mass matrix M[l, j] = <psi_l, psi_j>_{L2(omega)}, and the minimum-norm
  steering problem is solved by least squares on a Legendre-in-time
  parametrization with exact mode integrals.

Internal actuation at {x0} x omega uses the same machinery with the pointwise
x-gain; for omega = Omega_y the per-slice moment problems are solved directly
on the full horizon (no windowing), gated by the minimal-time estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .biorthogonal import K_BIO_MAX
from .errors import (
    BadRho,
    BelowMinimalTime,
    BetaTooSmall,
    DissipationViolated,
    GramianSingular,
    RationalPoint,
)
from .modal import (
    ModalSource,
    ModalState,
    evolve_controlled,
    state_nd,
    x_gain,
)
from .moments import MomentSolver
from .pointwise import DEFAULT_MARGIN, PointSpec, minimal_time_estimate
from .signals import ControlSignal, ExpSegment, LegendreSegment, legendre_mode_integrals
from .spectrum import K0_index, SpectrumSpec, line_fit, require_clear

DEFAULT_RHO = 0.5


@dataclass(frozen=True)
class BoundaryGamma:
    """Boundary actuation on {0} x omega; omega=None means the full cross-section."""

    omega: Optional[tuple] = None


@dataclass(frozen=True)
class InternalPoint:
    """Interior actuation on {x0} x omega; the point is given as the ratio x0/a."""

    point: Union[PointSpec, float]
    omega: Optional[tuple] = None


@dataclass
class LRWindow:
    index: int
    a_k: float
    T_k: float
    gamma: int


@dataclass
class LRSchedule:
    """Realized window list plus the closed-form telescoping accounting."""

    T: float
    rho: float
    beta: int
    alpha: float
    windows: list
    coast_start: float
    realized_fraction: float


def check_schedule(spec: SpectrumSpec, rho: Optional[float] = None,
                   beta: Optional[int] = None) -> None:
    """BadRho unless 0 < rho < 1/(N-1), BetaTooSmall unless beta > K0; None
    skips a value.  A K0 beyond the truncation raises ThresholdBeyondTruncation."""
    if rho is not None and not 0.0 < rho < 1.0 / spec.n_cross_dims:
        raise BadRho(f"rho={rho} outside (0, {1.0 / spec.n_cross_dims:.4g})")
    if beta is not None:
        K0 = K0_index(spec)
        if beta <= K0:
            raise BetaTooSmall(f"beta={beta} must exceed K0={K0} so every cutoff clears it")


def build_schedule(T: float, rho: float, beta: int, spec: SpectrumSpec) -> LRSchedule:
    """Window/cutoff schedule with gamma_0 > K0 and the telescoping check."""
    check_schedule(spec, rho, beta)
    alpha = beta * T * (1.0 - 2.0 ** (-rho)) / 2.0
    windows = []
    a_k = 0.0
    k = 0
    while True:
        gamma = beta * 2**k
        if gamma > spec.J_y and k > 0:
            break
        T_k = (alpha / beta) * 2.0 ** (-k * rho)
        windows.append(LRWindow(index=k, a_k=a_k, T_k=T_k, gamma=min(gamma, spec.J_y)))
        a_k += 2.0 * T_k
        k += 1
        if k > 200:  # safety; cannot happen with J_y <= 2^200 beta
            break
    realized = a_k / T
    return LRSchedule(
        T=T, rho=rho, beta=beta, alpha=alpha, windows=windows,
        coast_start=a_k, realized_fraction=realized,
    )


def default_beta(spec: SpectrumSpec) -> int:
    return max(2 * K0_index(spec), 4)


def default_rho(spec: SpectrumSpec) -> float:
    """DEFAULT_RHO / (N-1): 0.5 on a 2-D strip, inside (0, 1/(N-1)) on every cylinder."""
    return DEFAULT_RHO / spec.n_cross_dims


# ---------------------------------------------------------------------------
# mass matrices on omega
# ---------------------------------------------------------------------------

def _axis_overlap(m: int, mp_: int, c: float, d: float, b: float) -> float:
    """int_c^d (2/b) sin(m pi y/b) sin(mp pi y/b) dy, closed form."""

    def S(w):
        if w == 0.0:
            return d - c
        return (math.sin(w * d) - math.sin(w * c)) / w

    wm = (m - mp_) * math.pi / b
    wp = (m + mp_) * math.pi / b
    return (S(wm) - S(wp)) / b


def omega_axes(spec: SpectrumSpec, omega: tuple) -> list:
    """Per-axis (c, d, b, n): omega's interval (c, d) on the box side of
    length b, whose retained modes use the sines 1..n.

    ``omega`` is (c, d) on a 1-D cross-section, else one (c, d) per axis;
    ValueError unless the cross-section is a Box and each interval lies in
    its side."""
    sides = spec.box_axes("a control region omega")
    if len(sides) == 1 and not isinstance(omega[0], (tuple, list)):
        intervals = [tuple(omega)]
    else:
        intervals = [tuple(iv) for iv in omega]
    if len(intervals) != len(sides):
        raise ValueError("omega must provide one interval per cross-section axis")
    for (c, d), (b, _) in zip(intervals, sides):
        if not 0.0 <= c < d <= b + 1e-12:
            raise ValueError(f"omega interval ({c}, {d}) outside (0, {b})")
    return [(c, d, b, n) for (c, d), (b, n) in zip(intervals, sides)]


def mass_matrix(spec: SpectrumSpec, omega: Optional[tuple], rows: int) -> np.ndarray:
    """M[l, j] = <psi_l, psi_j>_{L2(omega)} for row modes l <= rows.

    ``omega`` as in `omega_axes`; None means the full cross-section (identity
    overlaps).  M gathers one table of `_axis_overlap` per box axis.
    """
    if omega is None:
        return np.eye(rows, spec.J_y)
    tables = [[[_axis_overlap(m, mp_, c, d, b) for mp_ in range(1, n + 1)] for m in range(1, n + 1)]
              for c, d, b, n in omega_axes(spec, omega)]
    return spec.tuple_products(tables, rows)


# ---------------------------------------------------------------------------
# active phases
# ---------------------------------------------------------------------------

def _window_free_end(state: ModalState, window, source) -> np.ndarray:
    """End-of-window coefficients under zero control (source included)."""
    probe = state.copy()
    end = evolve_controlled(probe, None, window, source=source)
    return end.coeffs


def active_phase_tensor(
    state: ModalState,
    window: tuple,
    spec: SpectrumSpec,
    gamma: int,
    source: Optional[ModalSource] = None,
    t_final: Optional[float] = None,
) -> ControlSignal:
    """Per-slice boundary moment controls assembled into one y-expanded signal.

    Decoupling: with the control expanded in the cross-section eigenbasis,
    each y-mode j <= gamma sees an independent 1-D problem with the
    zeroth-order-shifted slice rates.  Slices whose free end state is (or
    will be, by ``t_final``, under their own dissipation) negligible are
    skipped: controlling them is the dissipation's job, and their clustered
    rate families are exactly the numerically hostile ones.
    """
    require_clear(spec)
    t0, t1 = float(window[0]), float(window[1])
    gamma_eff = min(gamma, spec.J_y)
    if spec.K_x > K_BIO_MAX:
        raise ValueError(
            f"tensor active phase kills all {spec.K_x} x-modes per slice; "
            f"K_x must be <= K_bio_max={K_BIO_MAX}"
        )
    horizon_left = max((t_final if t_final is not None else t1) - t1, 0.0)
    end_free = _window_free_end(state, window, source)
    scale = max(float(np.linalg.norm(state.coeffs)), float(np.linalg.norm(end_free)), 1e-300)
    slices = []
    for j in range(1, gamma_eff + 1):
        # content that dies on its own by t_final needs no moment solve
        slice_norm = float(np.linalg.norm(end_free[:, j - 1]))
        slowest = float(np.max(spec.slice_rates(j)))
        log_at_final = (math.log(slice_norm) if slice_norm > 0 else -math.inf) \
            + min(slowest, 0.0) * horizon_left
        if log_at_final > math.log(1e-12 * scale):
            slices.append(j)
    return _slice_moment_control(end_free, slices, spec, (t0, t1), gamma_eff)


def _slice_moment_control(end_free: np.ndarray, slices, spec: SpectrumSpec,
                          window: tuple, rows: int,
                          x0: Optional[float] = None) -> ControlSignal:
    """Per-slice moment solutions assembled into one y-expanded control.

    Row j - 1 (j in ``slices``) is the control that, through the x-gain of
    the actuator at ``x0`` (None: the boundary), steers slice j's free end
    state ``end_free[:, j - 1]`` to zero over ``window``; the other rows are
    zero.  Rows are the first ``rows`` cross-section modes themselves
    (identity mass).  The solver of each (slice, window length) is built
    once per spec: Picard iterations repeat the same windows.
    """
    t0, t1 = window
    W = t1 - t0
    gains = x_gain(spec, x0)
    exps, refs, blocks = [], [], []
    for j in slices:
        solver = spec.cached(("moment_solver", j, W),
                             lambda: MomentSolver(spec.slice_rates(j), W))
        sol = solver.solve(-end_free[:, j - 1] / gains)
        seg = sol.reversed_segment(t0)
        exps.append(seg.exponents)
        refs.append(seg.refs)
        block = np.zeros((len(seg.exponents), rows))
        block[:, j - 1] = seg.coeffs
        blocks.append(block)
    if not blocks:
        exps = [np.zeros(1)]
        refs = [np.zeros(1)]
        blocks = [np.zeros((1, rows))]
    segment = ExpSegment(
        t0=t0, t1=t1,
        exponents=np.concatenate(exps), refs=np.concatenate(refs), coeffs=np.vstack(blocks),
    )
    return ControlSignal(segment, x0=x0, mass=np.eye(rows, spec.J_y))


@dataclass
class GramianReport:
    gamma: int
    n_killed: int
    min_eig: float
    max_eig: float
    lstsq_residual: float


def active_phase_gramian(
    state: ModalState,
    window: tuple,
    spec: SpectrumSpec,
    gamma: int,
    omega: Optional[tuple],
    x0: Optional[float] = None,
    source: Optional[ModalSource] = None,
):
    """Minimum-norm steering of the modes (k <= K_x, j <= gamma) to zero.

    Control rows are g_l(t), l <= gamma, multiplying psi_l|_omega
    (zero-extended); each row is expanded in 2 K_x Legendre polynomials on
    the window and the stacked coefficient vector solves the end-state
    constraint in the L2-weighted least-squares sense (minimum control norm
    within the span).  Returns (ControlSignal, GramianReport).
    """
    require_clear(spec)
    t0, t1 = float(window[0]), float(window[1])
    W = t1 - t0
    gamma_eff = min(gamma, spec.J_y)
    rows = gamma_eff
    P = 2 * spec.K_x
    M = mass_matrix(spec, omega, rows)

    rates = spec.rate_matrix()[:, :gamma_eff]          # (K_x, gamma)
    flat_rates = rates.ravel()
    n_killed = flat_rates.size
    I = legendre_mode_integrals(flat_rates, P - 1, W)  # (n_killed, P)
    # A[(k,j), (l,p)] = x_gain[k] M[l, j] I[(k,j), p]
    I3 = I.reshape(spec.K_x, gamma_eff, P)
    A = np.einsum("k,lj,kjp->kjlp", x_gain(spec, x0), M[:, :gamma_eff], I3)
    A = A.reshape(n_killed, rows * P)

    end_free = _window_free_end(state, window, source)
    b = -end_free[:, :gamma_eff].ravel()
    scale = max(float(np.linalg.norm(state.coeffs)), float(np.linalg.norm(b)), 1e-300)

    p_idx = np.arange(P)
    D = np.sqrt(W / (2.0 * p_idx + 1.0))               # L2 norms of Legendre basis
    D_full = np.tile(D, rows)
    A_tilde = A * D_full[None, :]
    # rcond cutoff drops directions the window cannot reach; those carry dead
    # targets, so singularity only matters if the steering residual shows it
    theta_tilde, res, rank, sv = np.linalg.lstsq(A_tilde, b, rcond=1e-13)
    sv_min = float(sv.min()) if len(sv) else 0.0
    sv_max = float(sv.max()) if len(sv) else 0.0
    resid = float(np.max(np.abs(A_tilde @ theta_tilde - b)))
    if resid > 1e-8 * scale:
        raise GramianSingular(
            f"steering residual {resid:.3e} vs scale {scale:.3e} "
            f"(singular values {sv_min:.3e}..{sv_max:.3e}): omega too small or "
            f"modes indistinguishable at this truncation"
        )
    theta = (theta_tilde * D_full).reshape(rows, P)

    seg = LegendreSegment(t0=t0, t1=t1, coeffs=theta.T.copy())
    sig = ControlSignal(seg, x0=x0, mass=M)
    report = GramianReport(
        gamma=gamma_eff, n_killed=n_killed,
        min_eig=sv_min**2, max_eig=sv_max**2, lstsq_residual=resid,
    )
    return sig, report


def _certify_dissipation(spec: SpectrumSpec, gamma_eff: int, high_before: float,
                         end_coeffs: np.ndarray, span: float, source) -> None:
    """Check that the modes above the cutoff decayed at the cross-section rate.

    Over a free span the component above gamma_eff must obey the decay rate
    of mode gamma_eff + 1 exactly; a violation is a projection leak, i.e. an
    internal bug, and raises DissipationViolated.  A source feeds every mode,
    so sourced spans carry no certificate.
    """
    if source is not None or gamma_eff >= spec.J_y or not high_before > 0.0:
        return
    rate = spec.y_shift(gamma_eff + 1)
    bound = math.exp(rate * span) * high_before * (1.0 + 1e-10)
    high_after = float(np.linalg.norm(end_coeffs[:, gamma_eff:]))
    if high_after > bound:
        raise DissipationViolated(
            f"high-mode norm {high_after:.3e} exceeds bound {bound:.3e} over a span of {span:.6g}"
        )


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

@dataclass
class LRRunResult:
    schedule: Optional[LRSchedule]
    window_norms: list          # ||u(a_k)|| including the final time
    window_control_norms: list
    total_control_norm: float
    final_norm: float
    final_rel_norm: float
    controls: list = field(repr=False, default_factory=list)
    gramian_reports: list = field(default_factory=list)
    decay_fit_slope: Optional[float] = None
    observability_fit: Optional[dict] = None
    trace: object = field(repr=False, default=None)
    kill_residuals: list = field(default_factory=list)


def run_lr(
    u0,
    T: float,
    spec: SpectrumSpec,
    geometry,
    rho: Optional[float] = None,
    beta: Optional[int] = None,
    source: Optional[ModalSource] = None,
    margin: float = DEFAULT_MARGIN,
    record: Optional[Sequence[float]] = None,
) -> LRRunResult:
    """Steer u0 to (truncated) rest at time T under the given actuation.

    Dispatches on geometry: boundary actuation runs the Lebeau-Robbiano
    alternation (tensor phases for the full cross-section, Gramian phases
    otherwise); interior actuation on the full cross-section is a direct
    per-slice pointwise moment solve on [0, T] gated by the minimal-time
    estimate, and on a strict subset it runs Gramian windows with the
    pointwise gain.
    """
    require_clear(spec)
    state = u0 if isinstance(u0, ModalState) else state_nd(spec, u0)
    u0_norm = state.norm

    if isinstance(geometry, InternalPoint) and geometry.omega is None:
        return _run_internal_direct(
            state, T, spec, geometry, margin, source, record, u0_norm
        )

    x0 = None
    if isinstance(geometry, InternalPoint):
        x0 = _resolve_x0(geometry.point, spec, margin, gate=False)

    rho = rho if rho is not None else default_rho(spec)
    beta = beta if beta is not None else default_beta(spec)
    schedule = build_schedule(T, rho, beta, spec)
    tensor = isinstance(geometry, BoundaryGamma) and geometry.omega is None

    rec_times = np.asarray(sorted(set(float(t) for t in record))) if record is not None else None
    trace_t, trace_c = [], []

    def _record_span(t_lo, t_hi, run_state, control, src):
        nonlocal state
        if rec_times is None:
            state = evolve_controlled(run_state, control, (t_lo, t_hi), source=src)
            return
        pts = rec_times[(rec_times >= t_lo - 1e-12) & (rec_times <= t_hi + 1e-12)]
        state, tr = evolve_controlled(run_state, control, (t_lo, t_hi), source=src, record=pts)
        trace_t.extend(tr.times.tolist())
        trace_c.extend(list(tr.coeffs))

    window_norms = [state.norm]
    control_norms = []
    controls = []
    gram_reports = []
    kill_residuals = []
    for w in schedule.windows:
        t_mid = w.a_k + w.T_k
        gamma_eff = min(w.gamma, spec.J_y)
        if tensor:
            sig = active_phase_tensor(
                state, (w.a_k, t_mid), spec, w.gamma, source=source, t_final=T
            )
        else:
            sig, rep = active_phase_gramian(
                state, (w.a_k, t_mid), spec, w.gamma, geometry.omega, x0=x0, source=source
            )
            gram_reports.append(rep)
        _record_span(w.a_k, t_mid, state, sig, source)
        killed = float(np.linalg.norm(state.coeffs[:, :gamma_eff]))
        kill_residuals.append(killed / max(u0_norm, 1e-300))
        controls.append(sig)
        control_norms.append(sig.norm_l2())
        # passive span with the dissipation certificate on the high component
        high_before = float(np.linalg.norm(state.coeffs[:, gamma_eff:]))
        _record_span(t_mid, w.a_k + 2 * w.T_k, state, None, source)
        _certify_dissipation(spec, gamma_eff, high_before, state.coeffs, w.T_k, source)
        window_norms.append(state.norm)
    if state.time < T - 1e-12:
        _record_span(state.time, T, state, None, source)
        window_norms.append(state.norm)

    total = math.sqrt(sum(c * c for c in control_norms))
    slope = _decay_fit(schedule, window_norms, spec)
    obs_fit = _observability_fit(schedule, gram_reports, spec) if gram_reports else None
    trace = None
    if rec_times is not None:
        from .modal import Trace

        tt = np.array(trace_t)
        cc = np.array(trace_c)
        _, keep = np.unique(np.round(tt, 12), return_index=True)
        trace = Trace(times=tt[keep], coeffs=cc[keep])
    return LRRunResult(
        schedule=schedule,
        window_norms=window_norms,
        window_control_norms=control_norms,
        total_control_norm=total,
        final_norm=state.norm,
        final_rel_norm=state.norm / max(u0_norm, 1e-300),
        controls=controls,
        gramian_reports=gram_reports,
        decay_fit_slope=slope,
        observability_fit=obs_fit,
        trace=trace,
        kill_residuals=kill_residuals,
    )


def _resolve_x0(point, spec: SpectrumSpec, margin, gate: bool, T: Optional[float] = None):
    """x0 (absolute) from a PointSpec or ratio, optionally minimal-time gated.

    The minimal-time scan runs once per (spec, point), however many runs
    (Picard iterations, radius probes) share the spec.
    """
    if isinstance(point, PointSpec):
        if point.is_rational:
            raise RationalPoint("x0/a rational: interior control impossible")
        est = spec.cached(("minimal_time", point),
                          lambda: minimal_time_estimate(point, spec.a_float))
        if gate and T is not None and T <= (1.0 + margin) * est.T0_hat:
            raise BelowMinimalTime(
                f"T={T} <= (1+margin) T0_hat = {(1.0 + margin) * est.T0_hat:.6g}"
            )
        return est.x0_over_a * spec.a_float
    return float(point) * spec.a_float


def _run_internal_direct(state, T, spec, geometry, margin, source, record,
                         u0_norm) -> LRRunResult:
    """Interior actuation on the full cross-section: direct per-slice moments."""
    x0 = _resolve_x0(geometry.point, spec, margin, gate=True, T=T)
    if spec.K_x > K_BIO_MAX:
        raise ValueError(f"direct solve kills all K_x={spec.K_x} x-modes; K_x <= {K_BIO_MAX}")
    end_free = _window_free_end(state, (0.0, T), source)
    scale = max(float(np.linalg.norm(state.coeffs)), float(np.linalg.norm(end_free)), 1e-300)
    slices = [j for j in range(1, spec.J_y + 1)
              if float(np.linalg.norm(end_free[:, j - 1])) > 1e-10 * scale]
    sig = _slice_moment_control(end_free, slices, spec, (0.0, T), spec.J_y, x0=x0)
    rec = np.asarray(sorted(set(float(t) for t in record))) if record is not None else None
    if rec is not None:
        end, trace = evolve_controlled(state, sig, (0.0, T), source=source, record=rec)
    else:
        end = evolve_controlled(state, sig, (0.0, T), source=source)
        trace = None
    return LRRunResult(
        schedule=None,
        window_norms=[u0_norm, end.norm],
        window_control_norms=[sig.norm_l2()],
        total_control_norm=sig.norm_l2(),
        final_norm=end.norm,
        final_rel_norm=end.norm / max(u0_norm, 1e-300),
        controls=[sig],
        trace=trace,
    )


def _decay_fit(schedule: LRSchedule, window_norms, spec: SpectrumSpec):
    """Slope of log ||u(a_{k+1})|| against 2^(k (4/(N-1) - rho)) (shape check)."""
    xs, ys = [], []
    n_cross = spec.n_cross_dims
    for w, nrm in zip(schedule.windows, window_norms[1 : 1 + len(schedule.windows)]):
        if nrm > 1e-300:
            xs.append(2.0 ** (w.index * (4.0 / n_cross - schedule.rho)))
            ys.append(math.log(nrm))
    if len(xs) < 2:
        return None
    return line_fit(xs, ys)[0]


def _observability_fit(schedule: LRSchedule, reports, spec: SpectrumSpec):
    """log(1/min_eig) against sqrt(mu_gamma): spectral-inequality shape check."""
    xs, ys = [], []
    for rep in reports:
        if rep.min_eig > 0:
            xs.append(math.sqrt(spec.mu(rep.gamma)))
            ys.append(math.log(1.0 / rep.min_eig))
    if len(xs) < 2:
        return {"slope": None, "points": list(zip(xs, ys))}
    slope, intercept, _ = line_fit(xs, ys)
    return {"slope": slope, "intercept": intercept, "points": list(zip(xs, ys))}

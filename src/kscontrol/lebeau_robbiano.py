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
x-gain, and every interior run passes `minimal_time_gate` on T first.  For
omega = Omega_y it is a single tensor window: its active span is the whole
horizon [0, T] (a moment problem through the point's gain needs a horizon
above the minimal time, which the short windows T_k would not have), so it
has no schedule, no passive span and no coast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import BadRho, BetaTooSmall, DissipationViolated, GramianSingular
from .modal import (
    ModalSource,
    ModalState,
    Trace,
    coeff_norm,
    evolve_controlled,
    state_nd,
    x_gain,
)
from .moments import MomentSolver
from .pointwise import PointSpec, minimal_time_gate
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

    point: PointSpec
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
    return LRSchedule(T=T, rho=rho, beta=beta, alpha=alpha, windows=windows, coast_start=a_k)


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
    overlaps).  M gathers one table of `_axis_overlap` per box axis; the
    tables depend on the spec and omega alone, so the spec keeps them.
    """
    if omega is None:
        return np.eye(rows, spec.J_y)
    axes = tuple(omega_axes(spec, omega))
    return spec.tuple_products(spec.cached(("overlaps", axes), lambda: _overlap_tables(axes)), rows)


def _overlap_tables(axes) -> list:
    """One read-only (n, n) table of `_axis_overlap` per (c, d, b, n) axis."""
    tables = []
    for c, d, b, n in axes:
        table = np.array([[_axis_overlap(m, mp_, c, d, b) for mp_ in range(1, n + 1)]
                          for m in range(1, n + 1)])
        table.flags.writeable = False
        tables.append(table)
    return tables


# ---------------------------------------------------------------------------
# active phases
# ---------------------------------------------------------------------------

def active_phase_tensor(
    state: ModalState,
    window: tuple,
    spec: SpectrumSpec,
    gamma: int,
    source: Optional[ModalSource] = None,
    t_final: Optional[float] = None,
    x0: Optional[float] = None,
) -> ControlSignal:
    """Per-slice moment controls assembled into one y-expanded signal.

    Decoupling: with the control expanded in the cross-section eigenbasis,
    each y-mode j <= gamma sees an independent 1-D problem whose rates are
    column j of `SpectrumSpec.rate_matrix`, the rates the flow evolves.  Row
    j - 1 of the signal is the control that, through the x-gain of the
    actuator at ``x0`` (None: the boundary), steers slice j's free end state
    to zero over ``window``; rows are the first gamma cross-section modes
    themselves (identity mass).  The solver of each (slice, window length)
    is built once per spec: Picard iterations repeat the same windows.
    Slices whose free end state is (or will be, by ``t_final``, under their
    own dissipation) below 1e-12 of the scale are skipped: controlling them
    is the dissipation's job, and their clustered rate families are exactly
    the numerically hostile ones.
    """
    require_clear(spec)
    t0, t1 = float(window[0]), float(window[1])
    W = t1 - t0
    rows = min(gamma, spec.J_y)
    horizon_left = max((t_final if t_final is not None else t1) - t1, 0.0)
    end_free = evolve_controlled(state, None, window, source=source).coeffs
    scale = max(state.norm, coeff_norm(end_free), 1e-300)
    gains = x_gain(spec, x0)
    exps, refs, blocks = [], [], []
    for j in range(1, rows + 1):
        # content that dies on its own by t_final needs no moment solve
        slice_norm = coeff_norm(end_free[:, j - 1])
        slowest = float(np.max(spec.rate_matrix()[:, j - 1]))
        log_at_final = (math.log(slice_norm) if slice_norm > 0 else -math.inf) \
            + min(slowest, 0.0) * horizon_left
        if log_at_final <= math.log(1e-12 * scale):
            continue
        solver = spec.cached(("moment_solver", j, W),
                             lambda: MomentSolver(spec.rate_matrix()[:, j - 1], W))
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
    """One Gramian window.  ``rank`` counts the directions the steering solve
    kept (singular values above 1e-13 of the largest); ``min_eig`` and
    ``max_eig`` are the squares of the smallest kept and the largest singular
    values, so min_eig / max_eig >= 1e-26 measures what the window can steer."""

    gamma: int
    n_killed: int
    min_eig: float
    max_eig: float
    lstsq_residual: float
    rank: int


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
    if not np.all(np.isfinite(I)):  # a growing mode's e^{rate W} beyond the float range
        raise GramianSingular(f"Legendre mode integrals not finite over a window of length {W:.3g}")
    # A[(k,j), (l,p)] = x_gain[k] M[l, j] I[(k,j), p]
    I3 = I.reshape(spec.K_x, gamma_eff, P)
    A = np.einsum("k,lj,kjp->kjlp", x_gain(spec, x0), M[:, :gamma_eff], I3)
    A = A.reshape(n_killed, rows * P)

    end_free = evolve_controlled(state, None, window, source=source).coeffs
    b = -end_free[:, :gamma_eff].ravel()
    scale = max(state.norm, coeff_norm(b), 1e-300)

    p_idx = np.arange(P)
    D = np.sqrt(W / (2.0 * p_idx + 1.0))               # L2 norms of Legendre basis
    D_full = np.tile(D, rows)
    A_tilde = A * D_full[None, :]
    # rcond cutoff drops directions the window cannot reach; those carry dead
    # targets, so singularity only matters if the steering residual shows it
    theta_tilde, res, rank, sv = np.linalg.lstsq(A_tilde, b, rcond=1e-13)
    sv_min = float(sv.min()) if len(sv) else 0.0
    sv_max = float(sv.max()) if len(sv) else 0.0
    sv_kept = float(sv[rank - 1]) if rank else 0.0  # lstsq sorts sv descending
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
        min_eig=sv_kept**2, max_eig=sv_max**2, lstsq_residual=resid, rank=int(rank),
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
    high_after = coeff_norm(end_coeffs[:, gamma_eff:])
    if high_after > bound:
        raise DissipationViolated(
            f"high-mode norm {high_after:.3e} exceeds bound {bound:.3e} over a span of {span:.6g}"
        )


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

class _Spans:
    """A run evolved span after span.  Each span records the ``record`` times
    left by the spans before it, up to its own end (within 1e-12), so a
    boundary between two spans is recorded once; no ``record``, no trace."""

    def __init__(self, record: Optional[Sequence[float]]):
        self.record, self.times, self.coeffs = record, [], []
        self.rest = np.unique(np.asarray([] if record is None else record, dtype=float))

    def evolve(self, state: ModalState, control, window: tuple, source) -> ModalState:
        mine = self.rest <= window[1] + 1e-12
        end, tr = evolve_controlled(state, control, window, source=source, record=self.rest[mine])
        self.rest = self.rest[~mine]
        self.times.extend(tr.times.tolist())
        self.coeffs.extend(tr.coeffs)
        return end

    def trace(self) -> Optional[Trace]:
        if self.record is not None:
            return Trace(times=np.array(self.times), coeffs=np.array(self.coeffs))


@dataclass
class LRRunResult:
    schedule: Optional[LRSchedule]
    window_norms: list          # ||u(a_k)|| including the final time
    window_control_norms: list
    total_control_norm: float
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
    record: Optional[Sequence[float]] = None,
) -> LRRunResult:
    """Steer u0 to (truncated) rest at time T under the given actuation.

    One window loop serves every geometry: each window runs its active phase
    (tensor on the full cross-section, Gramian on a strict omega), then its
    passive span under the dissipation certificate, and a terminal coast
    ends the run at T.  Interior actuation passes `minimal_time_gate` on T
    and acts through the pointwise gain; on the full cross-section it is the
    one window (0, T) with no schedule, whose active span ends at T.  The
    ``trace`` holds the run once at each ``record`` time.
    """
    require_clear(spec)
    state = u0 if isinstance(u0, ModalState) else state_nd(spec, u0)
    u0_norm = state.norm

    x0 = None
    if isinstance(geometry, InternalPoint):
        x0 = minimal_time_gate(geometry.point, spec, T).x0_over_a * spec.a_float
    tensor = geometry.omega is None
    if tensor and x0 is not None:
        schedule = None
        windows = [LRWindow(index=0, a_k=0.0, T_k=T, gamma=spec.J_y)]
    else:
        rho = rho if rho is not None else default_rho(spec)
        beta = beta if beta is not None else default_beta(spec)
        schedule = build_schedule(T, rho, beta, spec)
        windows = schedule.windows

    spans = _Spans(record)
    window_norms = [state.norm]
    control_norms = []
    controls = []
    gram_reports = []
    kill_residuals = []
    for w in windows:
        t_mid = w.a_k + w.T_k
        gamma_eff = min(w.gamma, spec.J_y)
        if tensor:
            sig = active_phase_tensor(
                state, (w.a_k, t_mid), spec, w.gamma, source=source, t_final=T, x0=x0
            )
        else:
            sig, rep = active_phase_gramian(
                state, (w.a_k, t_mid), spec, w.gamma, geometry.omega, x0=x0, source=source
            )
            gram_reports.append(rep)
        state = spans.evolve(state, sig, (w.a_k, t_mid), source)
        killed = coeff_norm(state.coeffs[:, :gamma_eff])
        kill_residuals.append(killed / max(u0_norm, 1e-300))
        controls.append(sig)
        control_norms.append(sig.norm_l2())
        if t_mid < T:  # a window whose active span ends at T has no passive span
            # passive span with the dissipation certificate on the high component
            high_before = coeff_norm(state.coeffs[:, gamma_eff:])
            state = spans.evolve(state, None, (t_mid, w.a_k + 2 * w.T_k), source)
            _certify_dissipation(spec, gamma_eff, high_before, state.coeffs, w.T_k, source)
        window_norms.append(state.norm)
    if state.time < T - 1e-12:
        state = spans.evolve(state, None, (state.time, T), source)
        window_norms.append(state.norm)

    total = math.sqrt(sum(c * c for c in control_norms))
    slope = None if schedule is None else _decay_fit(schedule, window_norms, spec)
    obs_fit = _observability_fit(gram_reports, spec) if gram_reports else None
    return LRRunResult(
        schedule=schedule,
        window_norms=window_norms,
        window_control_norms=control_norms,
        total_control_norm=total,
        final_rel_norm=state.norm / max(u0_norm, 1e-300),
        controls=controls,
        gramian_reports=gram_reports,
        decay_fit_slope=slope,
        observability_fit=obs_fit,
        trace=spans.trace(),
        kill_residuals=kill_residuals,
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


def _observability_fit(reports, spec: SpectrumSpec):
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

"""Boundary null control of the 1-D problem by the moment method.

For the slice problem

    v_t + v_xxxx + (nu - 2 mu_j) v_xx = 0,   v = 0, v_xx(t,0) = q(t), v_xx(t,a) = 0,

null control at horizon T is equivalent to the moment conditions

    g_k int_0^T e^{lambda_k t} h(t) dt = -e^{lambda_k T} <v0, psi_k>,   h(t) = q(T - t),

with the modal boundary gain g_k = S_BOUNDARY sqrt(2/a) k pi / a.  The targets
below therefore carry the prefactor a^(3/2) / (sqrt(2) k pi) of the orthonormal
basis (the sqrt(2)-convention value is a / (sqrt(2) k pi); the two differ by
sqrt(a)).  The per-k prefactor sits inside the k-sum of the synthesized
control.

The moment problem is solved exactly for k <= K_trunc; the control also
excites modes above K_trunc, which `verify_null` measures (`rel_final_all`)
alongside the free-decay tail of the initial data.  "Null" claims are therefore made about
the enforced modes, with the rest accounted explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .biorthogonal import K_BIO_MAX
from .errors import NotCritical
from .modal import (
    Trace,
    evolve_controlled,
    observe,
    state_1d,
    x_gain,
)
from .moments import MomentSolver
from .signals import ControlSignal
from .spectrum import SpectrumSpec, critical_set_check, line_fit, require_clear

DEFAULT_K_TRUNC = 8


@dataclass
class SynthesisReport:
    """Norms, residuals, and truncation accounting of one 1-D synthesis.

    ``T0_hat`` and ``threshold`` are the minimal-time gate of a pointwise
    synthesis, None for a boundary one.
    """

    control_norm: float
    moment_residual_max: float
    tail_free_decay: float
    gram_condition: float
    c0: float
    K_trunc: int
    targets: np.ndarray = field(repr=False, default=None)
    T0_hat: Optional[float] = None
    threshold: Optional[float] = None


def synthesize_boundary_control(
    u0: np.ndarray,
    T: float,
    spec: SpectrumSpec,
    j: int,
    K_trunc: int = DEFAULT_K_TRUNC,
):
    """Boundary control nulling modes k <= K_trunc of initial data u0.

    Returns ``(ControlSignal, SynthesisReport)``.  The control is
    ``q(t) = h(T - t)`` on [0, T] with h the analytic moment solution.  The
    report's ``targets`` are the per-mode moment targets
    -e^{lambda_k T} u0_k / g_k; with the frozen boundary sign these are
    positive multiples a^(3/2)/(sqrt(2) k pi) e^{lambda_k T} u0_k.
    """
    require_clear(spec)
    return _synthesize_1d(u0, T, spec, j, K_trunc)


def _synthesize_1d(u0, T: float, spec: SpectrumSpec, j: int, K_trunc: int,
                  x0: Optional[float] = None):
    """Moment synthesis shared by the 1-D boundary and pointwise controls.

    The actuator is ``x0``: the boundary when None, else the point, whose
    x-modal gain `x_gain` gives.  Returns ``(control, SynthesisReport)``: the
    physical control q(t) = h(T - t) on [0, T], and the report with the
    targets and the free-decay energy of the modes above K_trunc.
    """
    u0 = np.asarray(u0, dtype=float)
    if K_trunc > K_BIO_MAX:
        raise ValueError(f"K_trunc={K_trunc} exceeds K_bio_max={K_BIO_MAX}")
    K_trunc = min(K_trunc, len(u0))
    rates_full = spec.x_rates(j, len(u0))
    rates = rates_full[:K_trunc]
    targets = -np.exp(rates * T) * u0[:K_trunc] / x_gain(spec, x0, len(u0))[:K_trunc]
    sol = MomentSolver(rates, T).solve(targets)
    control = ControlSignal(sol.reversed_segment(0.0), x0=x0)
    report = SynthesisReport(
        control_norm=control.norm_l2(),
        moment_residual_max=sol.residual_max,
        tail_free_decay=float(np.sum(np.exp(2 * rates_full[K_trunc:] * T) * u0[K_trunc:] ** 2)),
        gram_condition=sol.family.gram_condition,
        c0=sol.c0,
        K_trunc=K_trunc,
        targets=sol.targets,
    )
    return control, report


@dataclass
class NullReport:
    """Closed-loop verification of a synthesized control."""

    rel_final_enforced: float
    rel_final_all: float
    per_mode_final: np.ndarray
    initial_norm: float


def verify_null(
    u0: np.ndarray,
    control: ControlSignal,
    T: float,
    spec: SpectrumSpec,
    j: int,
    K_trunc: Optional[int] = None,
) -> NullReport:
    """Simulate the closed loop and measure the end state.

    ``rel_final_enforced`` restricts to the modes the moment problem enforced
    (k <= K_trunc); ``rel_final_all`` includes the control's pollution of the
    unenforced truncated modes.
    """
    u0 = np.asarray(u0, dtype=float)
    state = state_1d(spec, j, coeffs=u0, count=len(u0))
    state.time = control.t_start
    end = evolve_controlled(state, control, (control.t_start, control.t_start + T))
    n0 = float(np.linalg.norm(u0))
    kk = K_trunc if K_trunc is not None else len(u0)
    per_mode = np.abs(end.coeffs)
    denom = n0 if n0 > 0 else 1.0
    return NullReport(
        rel_final_enforced=float(np.linalg.norm(end.coeffs[:kk])) / denom,
        rel_final_all=float(np.linalg.norm(end.coeffs)) / denom,
        per_mode_final=per_mode,
        initial_norm=n0,
    )


def cost_scan(
    spec: SpectrumSpec,
    j_list: Sequence[int],
    T_list: Sequence[float],
    K_trunc: int = DEFAULT_K_TRUNC,
) -> dict:
    """Worst-case-over-basis control cost table with shape diagnostics.

    cost(j, T) = max over unit basis initial modes k <= K_trunc of the
    synthesized control norm.  Reports the fit of log cost against
    j^(1/(N-1)) / T; no constant is asserted.
    """
    require_clear(spec)
    T_list = sorted(T_list)
    table = {}
    gains = x_gain(spec, count=K_trunc)
    for j in j_list:
        rates = spec.x_rates(j, K_trunc)
        for T in T_list:
            solver = MomentSolver(rates, T)
            worst = 0.0
            for k0 in range(K_trunc):
                targets = np.zeros(K_trunc)
                targets[k0] = -math.exp(rates[k0] * T) / gains[k0]
                sol = solver.solve(targets)
                worst = max(worst, sol.norm_l2())
            table[(j, float(T))] = worst
    xs, ys = [], []
    exponent = 1.0 / spec.n_cross_dims
    for (j, T), cost in table.items():
        xs.append(j**exponent / T)
        ys.append(math.log(cost))
    slope, intercept, resid = line_fit(xs, ys)
    monotone_in_T = all(
        table[(j, T2)] <= table[(j, T1)] * (1 + 1e-12)
        for j in j_list
        for T1, T2 in zip(T_list, T_list[1:])
    )
    return {
        "table": table,
        "fit_slope": slope,
        "fit_intercept": intercept,
        "fit_rms_residual": resid,
        "monotone_in_T": monotone_in_T,
    }


@dataclass
class Counterexample:
    """Invariant two-mode solution certifying loss of approximate controllability."""

    j: int
    k0: int
    l0: int
    u0: np.ndarray
    rate: float
    rate_collision_error: float
    observation_max: float
    min_norm: float
    growth_rate_error: float
    pointwise_weight: Optional[float]
    trace: Trace = field(repr=False, default=None)


def critical_counterexample(
    spec: SpectrumSpec,
    T: float = 1.0,
    n_samples: int = 1000,
    x0: Optional[float] = None,
) -> Counterexample:
    """The invariant solution at an exactly critical parameter.

    With rates colliding at (k0, l0), the initial state
    psi_{k0} - (k0/l0) psi_{l0} has identically vanishing boundary
    observation v_x(t, 0) while its norm evolves at the exact common rate
    k0^2 l0^2 pi^4 / a^4.  The pointwise analogue swaps the weight for
    sin(k0 pi x0/a)/sin(l0 pi x0/a).
    """
    verdict = critical_set_check(spec)
    if verdict.kind != "critical":
        raise NotCritical(f"verdict is {verdict.kind}; counterexample needs exact criticality")
    j, k0, l0 = verdict.j, verdict.k, verdict.l
    lam_k = spec.x_eigenvalue(k0, j)
    lam_l = spec.x_eigenvalue(l0, j)
    expected = (k0 * l0) ** 2 * math.pi**4 / spec.a_float**4
    K = max(spec.K_x, l0)
    u0 = np.zeros(K)
    u0[k0 - 1] = 1.0
    u0[l0 - 1] = -k0 / l0
    state = state_1d(spec, j, coeffs=u0, count=K)
    times = np.linspace(0.0, T, n_samples)
    _, trace = evolve_controlled(state, None, (0.0, T), record=times)
    series = observe(trace, spec)
    obs_max = float(np.max(np.abs(series["boundary"])))
    norms = trace.norms()
    growth = (math.log(norms[-1]) - math.log(norms[0])) / (times[-1] - times[0])
    weight = None
    if x0 is not None:
        sk = math.sin(k0 * math.pi * x0 / spec.a_float)
        sl = math.sin(l0 * math.pi * x0 / spec.a_float)
        weight = sk / sl
    scale = max(1.0, abs(lam_k))
    collision_err = max(abs(lam_k - lam_l), abs(lam_k - expected)) / scale
    return Counterexample(
        j=j, k0=k0, l0=l0, u0=u0,
        rate=lam_k,
        rate_collision_error=collision_err,
        observation_max=obs_max,
        min_norm=float(np.min(norms)),
        growth_rate_error=abs(growth - lam_k),
        pointwise_weight=weight,
        trace=trace,
    )


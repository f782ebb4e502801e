import math

import numpy as np
import pytest
from scipy.integrate import quad

from kscontrol.boundary_1d import (
    cost_scan,
    critical_counterexample,
    synthesize_boundary_control,
    verify_null,
)
from kscontrol.errors import CriticalParameter, NotCritical
from kscontrol.modal import evolve_controlled, state_1d, x_gain
from kscontrol.moments import MomentSolver
from kscontrol.spectrum import Box, SpectrumSpec


def spec_box_pi(nu, K_x=16, J_y=4):
    return SpectrumSpec(a="pi", nu=nu, cross_section=Box(["pi"]), K_x=K_x, J_y=J_y)


# ---------------------------------------------------------------------------
# moment solver
# ---------------------------------------------------------------------------

def test_moment_solution_matches_quadrature():
    rates = np.array([-1.0, -16.0, -81.0])
    targets = np.array([0.4, -0.2, 0.05])
    sol = MomentSolver(rates, 0.8).solve(targets)
    h = sol.segment(0.0)  # h(t) on [0, T]
    assert sol.residual_max <= 1e-10
    for k in range(3):
        val, _ = quad(lambda t: math.exp(rates[k] * t) * h.value(t), 0.0, 0.8, limit=300)
        assert val == pytest.approx(targets[k], abs=1e-9)


def test_moment_solver_with_unstable_rates_shift():
    # rates with a positive member exercise the c0 positivity shift
    rates = np.array([3.5, -4.0, -49.5])  # a=pi, nu=6.5, mu=1 family
    targets = np.array([0.1, 0.2, -0.3])
    sol = MomentSolver(rates, 0.5).solve(targets)
    assert sol.c0 == pytest.approx(4.5)
    assert sol.residual_max <= 1e-9
    h = sol.segment(0.0)  # h(t) on [0, T]
    for k in range(3):
        val, _ = quad(lambda t: math.exp(rates[k] * t) * h.value(t), 0.0, 0.5, limit=300)
        assert val == pytest.approx(targets[k], abs=1e-8)


def test_moment_linearity():
    rates = np.array([-1.0, -16.0, -81.0, -256.0])
    solver = MomentSolver(rates, 0.6)
    t1 = np.array([1.0, 0.0, -2.0, 0.5])
    t2 = np.array([0.3, 1.0, 0.0, -1.0])
    s1, s2 = solver.solve(t1), solver.solve(t2)
    s12 = solver.solve(2.0 * t1 + 3.0 * t2)
    tgrid = np.linspace(0, 0.6, 7)
    h1, h2, h12 = (s.segment(0.0).value(tgrid) for s in (s1, s2, s12))
    assert np.allclose(h12, 2 * h1 + 3 * h2, rtol=1e-10)


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

def control_moments(control, spec, j, T, count):
    """int_0^T e^{lambda_k (T - s)} q(s) ds, k <= count: the moments the
    control meets, read off the closed loop from zero data over the gain."""
    zero = state_1d(spec, j, coeffs=np.zeros(count), count=count)
    return evolve_controlled(zero, control, (0.0, T)).coeffs / x_gain(spec, control.x0, count)


def test_targets_zero_state():
    spec = spec_box_pi(nu=0)
    control, _ = synthesize_boundary_control(np.zeros(6), 1.0, spec, 1)
    assert np.allclose(control_moments(control, spec, 1, 1.0, 6), 0.0)


def test_target_prefactor_orthonormal_convention():
    # mu -> 0 family (rates k^4 at a=pi, nu=0): the sqrt(2)-convention value
    # (1/sqrt(2)) e^{-1} differs from the orthonormal one by sqrt(pi) = sqrt(a)
    from kscontrol.modal import x_gain

    spec = spec_box_pi(nu=0)
    gain1 = x_gain(spec, count=1)[0]
    m1 = -math.exp(-1.0) * 1.0 / gain1
    assert m1 == pytest.approx(math.exp(-1.0) * math.sqrt(math.pi / 2.0), rel=1e-12)
    assert m1 == pytest.approx((1 / math.sqrt(2)) * math.exp(-1) * math.sqrt(math.pi), rel=1e-12)


def test_targets_decay_superexponentially():
    spec = spec_box_pi(nu=0)
    rng = np.random.default_rng(4)
    u0 = rng.standard_normal(10)
    control, _ = synthesize_boundary_control(u0, 1.0, spec, 1, K_trunc=10)
    m = control_moments(control, spec, 1, 1.0, 10)
    rates = spec.x_rates(1, 10)
    bound = np.exp(rates * 1.0) * np.linalg.norm(u0) * spec.a_float**1.5 / (
        math.sqrt(2) * math.pi * np.arange(1, 11)
    )
    # the moments are met to rounding, so the dead ones sit at ~1e-17
    assert np.all(np.abs(m) <= bound + 1e-15 * np.max(bound))


def test_targets_critical_raises():
    spec = spec_box_pi(nu=7)
    with pytest.raises(CriticalParameter):
        synthesize_boundary_control(np.ones(4), 1.0, spec, 1)


# ---------------------------------------------------------------------------
# synthesis and closed loop
# ---------------------------------------------------------------------------

def test_zero_initial_data_zero_control():
    spec = spec_box_pi(nu=0)
    control, rep = synthesize_boundary_control(np.zeros(16), 1.0, spec, 1, K_trunc=8)
    assert rep.control_norm == pytest.approx(0.0, abs=1e-14)


def test_null_control_single_mode():
    spec = spec_box_pi(nu=0)
    u0 = np.zeros(16)
    u0[0] = 1.0
    control, rep = synthesize_boundary_control(u0, 1.0, spec, 1, K_trunc=8)
    assert rep.moment_residual_max <= 1e-8
    out = verify_null(u0, control, 1.0, spec, 1, K_trunc=8)
    assert out.rel_final_enforced <= 1e-6


def test_null_control_random_and_truncation_refinement():
    spec = spec_box_pi(nu=0)
    rng = np.random.default_rng(12)
    u0 = np.zeros(16)
    u0[:5] = rng.standard_normal(5)
    finals = {}
    for K_trunc in (8, 12):
        control, rep = synthesize_boundary_control(u0, 0.5, spec, 1, K_trunc=K_trunc)
        out = verify_null(u0, control, 0.5, spec, 1, K_trunc=K_trunc)
        assert out.rel_final_enforced <= 1e-6
        finals[K_trunc] = out.rel_final_enforced
    assert finals[12] <= finals[8] + 1e-9


def test_free_decay_pattern_zero_control():
    spec = spec_box_pi(nu=0)
    u0 = np.zeros(16)
    u0[1] = 2.0
    state = state_1d(spec, 1, coeffs=u0)
    end = evolve_controlled(state, None, (0.0, 0.5))
    lam2 = spec.x_rates(1)[1]
    assert end.coeffs[1] == pytest.approx(2.0 * math.exp(lam2 * 0.5), rel=1e-13)
    assert np.count_nonzero(end.coeffs) == 1


def test_non_finite_data_is_refused():
    # NaN must not come back as a certified control (NaN > tol is False)
    spec = spec_box_pi(nu=0)
    targets = np.zeros(8)
    targets[0] = math.nan
    with pytest.raises(ValueError):
        MomentSolver(spec.x_rates(1, 8), 1.0).solve(targets)
    u0 = np.zeros(16)
    u0[0] = math.nan
    with pytest.raises(ValueError):
        synthesize_boundary_control(u0, 1.0, spec, 1, K_trunc=8)


def test_corrupted_control_detected():
    # scale q by 1.1: the closed loop must visibly miss zero (test sensitivity)
    spec = spec_box_pi(nu=0)
    u0 = np.zeros(16)
    u0[0] = 1.0
    control, _ = synthesize_boundary_control(u0, 1.0, spec, 1, K_trunc=8)
    s = control.segment
    bad = type(control)(
        type(s)(t0=s.t0, t1=s.t1, exponents=s.exponents, refs=s.refs, coeffs=1.1 * s.coeffs))
    out = verify_null(u0, bad, 1.0, spec, 1, K_trunc=8)
    assert out.rel_final_enforced > 1e-3


def test_unstable_slice_nu65_j1():
    # nu=6.5, j=1: lambda_1 = 3.5 > 0, Case-2 shift active end to end
    spec = spec_box_pi(nu="6.5")
    u0 = np.zeros(16)
    u0[0] = 1.0
    control, rep = synthesize_boundary_control(u0, 0.5, spec, 1, K_trunc=8)
    assert rep.c0 > 0
    out = verify_null(u0, control, 0.5, spec, 1, K_trunc=8)
    assert out.rel_final_enforced <= 1e-6


def test_linearity_of_synthesis():
    spec = spec_box_pi(nu=1)
    rng = np.random.default_rng(21)
    u, w = np.zeros(16), np.zeros(16)
    u[:4] = rng.standard_normal(4)
    w[:4] = rng.standard_normal(4)
    a, b = 1.7, -0.6
    cu, _ = synthesize_boundary_control(u, 0.5, spec, 1, K_trunc=8)
    cw, _ = synthesize_boundary_control(w, 0.5, spec, 1, K_trunc=8)
    cuw, _ = synthesize_boundary_control(a * u + b * w, 0.5, spec, 1, K_trunc=8)
    t = np.linspace(0, 0.5, 11)
    assert np.allclose(cuw.value_at(t), a * cu.value_at(t) + b * cw.value_at(t),
                       rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# cost scan
# ---------------------------------------------------------------------------

def test_cost_scan_monotonicity_and_growth():
    spec = spec_box_pi(nu=0, J_y=4)
    rep = cost_scan(spec, j_list=[1, 2, 3], T_list=[0.25, 0.5, 1.0], K_trunc=8)
    assert rep["monotone_in_T"]
    # At fixed desk-scale T the realized cost *decreases* in j: the targets'
    # e^{lambda_k T} decay (lambda_1 = -(1 + 2 j^2)) beats the family-norm
    # growth e^{C sqrt(j)}.  The j-growth of the cost bound is a small-T
    # phenomenon of the constant, not of these realized controls.  Frozen as
    # computed on this grid.
    for T in (0.25, 0.5, 1.0):
        assert rep["table"][(2, T)] <= rep["table"][(1, T)]
        assert rep["table"][(3, T)] <= rep["table"][(2, T)]
    assert np.isfinite(rep["fit_slope"]) and np.isfinite(rep["fit_rms_residual"])


def test_cost_single_mode_equals_target_times_family_norm():
    spec = spec_box_pi(nu=0)
    rates = spec.x_rates(1, 1)
    from kscontrol.modal import x_gain

    T = 0.5
    solver = MomentSolver(rates, T)
    m1 = -math.exp(rates[0] * T) / x_gain(spec, count=1)[0]
    sol = solver.solve(np.array([m1]))
    expect = abs(m1) * solver.family.norm(0)
    assert sol.norm_l2() == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# critical counterexample
# ---------------------------------------------------------------------------

def test_counterexample_certificate():
    spec = spec_box_pi(nu=7, K_x=8)
    ce = critical_counterexample(spec, T=1.0, n_samples=1000)
    assert (ce.j, ce.k0, ce.l0) == (1, 1, 2)
    assert ce.rate == pytest.approx(4.0, rel=1e-14)
    # the two rates collide at the exact common rate k0^2 l0^2 pi^4 / a^4
    lam_k, lam_l = spec.x_rates(ce.j, ce.l0)[[ce.k0 - 1, ce.l0 - 1]]
    expected = (ce.k0 * ce.l0) ** 2 * math.pi**4 / spec.a_float**4
    assert max(abs(lam_k - lam_l), abs(lam_k - expected)) <= 1e-14 * max(1.0, abs(lam_k))
    assert ce.observation_max <= 1e-12
    assert ce.growth_rate_error <= 1e-9
    # norm at T=1 equals e^4 ||u0||, and never vanishes on the way
    norms = ce.trace.norms()
    assert np.min(norms) > 0
    assert norms[-1] == pytest.approx(math.exp(4.0) * norms[0], rel=1e-10)


def test_counterexample_requires_criticality():
    spec = spec_box_pi(nu="6.5")
    with pytest.raises(NotCritical):
        critical_counterexample(spec)


def test_pointwise_counterexample_invariant():
    from kscontrol.modal import evolve_controlled, observation

    spec = spec_box_pi(nu=7, K_x=8)
    x0 = 0.7
    ce = critical_counterexample(spec)
    # the boundary weight k0/l0 becomes sin(k0 pi x0/a)/sin(l0 pi x0/a)
    z = math.pi * x0 / spec.a_float
    weight = math.sin(ce.k0 * z) / math.sin(ce.l0 * z)
    u0 = np.zeros(spec.K_x)
    u0[ce.k0 - 1] = 1.0
    u0[ce.l0 - 1] = -weight
    state = state_1d(spec, 1, coeffs=u0)
    times = np.linspace(0, 1.0, 200)
    _, trace = evolve_controlled(state, None, (0.0, 1.0), record=times)
    obs = np.array([observation(c, spec, x0) for c in trace.coeffs])
    assert np.max(np.abs(obs)) <= 1e-12

import math

import numpy as np
import pytest
from scipy.integrate import quad

from kscontrol.errors import BadRho, BetaTooSmall
from kscontrol.lebeau_robbiano import (
    BoundaryGamma,
    InternalPoint,
    _axis_overlap,
    _certify_dissipation,
    active_phase_gramian,
    active_phase_tensor,
    build_schedule,
    default_beta,
    mass_matrix,
    omega_axes,
    run_lr,
)
from kscontrol.modal import evolve_controlled, state_nd
from kscontrol.pointwise import PointSpec
from kscontrol.spectrum import Box, SpectrumSpec


def spec_2d(nu=0, K_x=8, J_y=8):
    return SpectrumSpec(a="pi", nu=nu, cross_section=Box(["pi"]), K_x=K_x, J_y=J_y)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_schedule_geometry():
    spec = spec_2d(J_y=16)
    sched = build_schedule(1.0, rho=0.5, beta=4, spec=spec)
    # T_0 = (alpha/beta) = T (1 - 2^(-rho))/2
    assert sched.windows[0].T_k == pytest.approx((1 - 2**-0.5) / 2)
    ratios = [
        sched.windows[i + 1].T_k / sched.windows[i].T_k
        for i in range(len(sched.windows) - 1)
    ]
    assert np.allclose(ratios, 2**-0.5)
    gammas = [w.gamma for w in sched.windows]
    assert gammas == [4, 8, 16]


def test_schedule_telescoping_sum():
    spec = spec_2d(J_y=64)
    T = 0.8
    sched = build_schedule(T, rho=0.5, beta=4, spec=spec)
    twice = sum(2 * w.T_k for w in sched.windows)
    assert twice == pytest.approx(sched.coast_start, rel=1e-15)
    # realized windows sum below T; the closed-form infinite sum equals T
    full = 2 * (sched.alpha / sched.beta) / (1 - 2**-sched.rho)
    assert full == pytest.approx(T, rel=1e-12)
    assert sched.coast_start < T


def test_schedule_rejects_bad_parameters():
    spec = spec_2d()
    with pytest.raises(BadRho):
        build_schedule(1.0, rho=1.5, beta=4, spec=spec)
    nu40 = SpectrumSpec(a="pi", nu=40, cross_section=Box(["pi"]), K_x=8, J_y=12)
    # K0 = 7 (mu=49 > 40): beta=4 too small
    with pytest.raises(BetaTooSmall):
        build_schedule(1.0, rho=0.5, beta=4, spec=nu40)
    assert default_beta(nu40) == 14


# ---------------------------------------------------------------------------
# mass matrix
# ---------------------------------------------------------------------------

def test_mass_matrix_full_is_identity():
    spec = spec_2d(J_y=5)
    M = mass_matrix(spec, None, 3)
    assert np.allclose(M, np.eye(3, 5))


def test_mass_matrix_interval_vs_quadrature():
    spec = spec_2d(J_y=5)
    c, d = 0.3, 1.2
    M = mass_matrix(spec, (c, d), 4)
    for l in range(4):
        for j in range(5):
            val, _ = quad(
                lambda y: (2 / math.pi) * math.sin((l + 1) * y) * math.sin((j + 1) * y),
                c, d, limit=200,
            )
            assert M[l, j] == pytest.approx(val, abs=1e-12)


def test_mass_matrix_box_3d():
    spec = SpectrumSpec(a="pi", nu=0, cross_section=Box(["pi", "pi"]), K_x=4, J_y=6)
    M = mass_matrix(spec, ((0.3, 1.2), (0.5, 2.0)), 4)
    # spot-check one entry against 2-D quadrature
    from scipy.integrate import dblquad

    t_l, t_j = spec.mu_tuples[1], spec.mu_tuples[3]
    val, _ = dblquad(
        lambda y2, y1: (2 / math.pi) ** 2
        * math.sin(t_l[0] * y1) * math.sin(t_l[1] * y2)
        * math.sin(t_j[0] * y1) * math.sin(t_j[1] * y2),
        0.3, 1.2, 0.5, 2.0,
    )
    assert M[1, 3] == pytest.approx(val, abs=1e-10)


def _mass_matrix_per_entry(spec, omega, rows):
    """Oracle: one `_axis_overlap` product per (l, j) entry, axis by axis."""
    axes = omega_axes(spec, omega)
    M = np.empty((rows, spec.J_y))
    for l in range(rows):
        for j in range(spec.J_y):
            val = 1.0
            for axis, (c, d, b, _) in enumerate(axes):
                val *= _axis_overlap(spec.mu_tuples[l][axis], spec.mu_tuples[j][axis], c, d, b)
            M[l, j] = val
    return M


@pytest.mark.parametrize("dims, omega", [
    (["pi"], (0.3, 1.2)),
    (["pi", "pi/2"], ((0.3, 1.2), (0.1, 0.9))),
    (["pi", 1.5, "2*pi"], ((0.0, 2.0), (0.4, 1.5), (1.0, 5.0))),
], ids=["1d", "2d", "3d"])
def test_mass_matrix_gathers_the_per_entry_products_bit_for_bit(dims, omega):
    spec = SpectrumSpec(a="pi", nu=0, cross_section=Box(dims), K_x=4, J_y=12)
    M = mass_matrix(spec, omega, 7)
    assert M.shape == (7, 12)
    assert np.array_equal(M, _mass_matrix_per_entry(spec, omega, 7))


# ---------------------------------------------------------------------------
# active phases
# ---------------------------------------------------------------------------

def test_tensor_phase_single_slice_support():
    spec = spec_2d(K_x=6, J_y=6)
    c = np.zeros((6, 6))
    c[0, 0] = 1.0
    state = state_nd(spec, c)
    sig = active_phase_tensor(state, (0.0, 0.3), spec, gamma=3)
    # control rows beyond j=1 are zero (decoupling)
    t = np.linspace(0.0, 0.3, 9)
    vals = sig.value_at(t)
    assert np.max(np.abs(vals[:, 1:])) <= 1e-12
    assert np.max(np.abs(vals[:, 0])) > 0


def test_tensor_phase_kills_projection():
    spec = spec_2d(K_x=6, J_y=6)
    rng = np.random.default_rng(17)
    c = np.zeros((6, 6))
    c[:, :3] = rng.standard_normal((6, 3))
    state = state_nd(spec, c)
    from kscontrol.modal import evolve_controlled

    sig = active_phase_tensor(state, (0.0, 0.3), spec, gamma=3)
    end = evolve_controlled(state, sig, (0.0, 0.3))
    assert np.linalg.norm(end.coeffs[:, :3]) / np.linalg.norm(c) <= 1e-8


def test_tensor_phase_triangle_inequality_norm():
    # assembled control norm <= sum of per-slice norms
    spec = spec_2d(K_x=6, J_y=6)
    rng = np.random.default_rng(23)
    c = np.zeros((6, 6))
    c[:, :3] = rng.standard_normal((6, 3))
    state = state_nd(spec, c)
    sig = active_phase_tensor(state, (0.0, 0.3), spec, gamma=3)
    total = sig.norm_l2()
    per_slice = []
    for j in range(3):
        cj = np.zeros((6, 6))
        cj[:, j] = c[:, j]
        sj = active_phase_tensor(state_nd(spec, cj), (0.0, 0.3), spec, gamma=3)
        per_slice.append(sj.norm_l2())
    assert total <= sum(per_slice) + 1e-10
    # here slices are orthogonal rows, so equality in quadrature
    assert total == pytest.approx(math.sqrt(sum(s * s for s in per_slice)), rel=1e-10)


def test_gramian_phase_full_omega_matches_tensor_end_state():
    spec = spec_2d(K_x=5, J_y=5)
    rng = np.random.default_rng(31)
    c = np.zeros((5, 5))
    c[:, :3] = rng.standard_normal((5, 3))
    state = state_nd(spec, c)
    from kscontrol.modal import evolve_controlled

    sig_t = active_phase_tensor(state, (0.0, 0.25), spec, gamma=3)
    end_t = evolve_controlled(state, sig_t, (0.0, 0.25))
    sig_g, rep = active_phase_gramian(state, (0.0, 0.25), spec, 3, omega=None)
    end_g = evolve_controlled(state, sig_g, (0.0, 0.25))
    assert np.linalg.norm(end_t.coeffs[:, :3]) <= 1e-8 * np.linalg.norm(c)
    assert np.linalg.norm(end_g.coeffs[:, :3]) <= 1e-8 * np.linalg.norm(c)
    assert rep.min_eig > 0


def test_gramian_phase_interval_omega_kills_projection():
    spec = spec_2d(K_x=5, J_y=5)
    rng = np.random.default_rng(37)
    c = np.zeros((5, 5))
    c[:, :3] = rng.standard_normal((5, 3))
    state = state_nd(spec, c)
    from kscontrol.modal import evolve_controlled

    sig, rep = active_phase_gramian(state, (0.0, 0.25), spec, 3, omega=(0.3, 1.2))
    end = evolve_controlled(state, sig, (0.0, 0.25))
    assert np.linalg.norm(end.coeffs[:, :3]) / np.linalg.norm(c) <= 1e-8
    assert rep.min_eig > 0


def test_gramian_shrinking_omega_costs_more():
    spec = spec_2d(K_x=4, J_y=4)
    c = np.zeros((4, 4))
    c[0, 0] = 1.0
    c[1, 1] = 0.5
    state = state_nd(spec, c)
    norms = []
    for omega in [(0.2, 2.9), (0.3, 1.2), (0.4, 0.9)]:
        sig, _ = active_phase_gramian(state, (0.0, 0.25), spec, 2, omega=omega)
        norms.append(sig.norm_l2())
    assert norms[0] < norms[1] < norms[2]


# ---------------------------------------------------------------------------
# passive phase
# ---------------------------------------------------------------------------

def passive_span(state, window, spec, gamma):
    """Free flow over the window, then the dissipation certificate above gamma."""
    high_before = float(np.linalg.norm(state.coeffs[:, gamma:]))
    end = evolve_controlled(state, None, window)
    _certify_dissipation(spec, gamma, high_before, end.coeffs, window[1] - window[0], None)
    return end


def test_tensor_phase_solves_each_slice_at_the_rates_the_flow_evolves():
    # every solved slice's moment solver holds column j of rate_matrix() bit
    # for bit: the synthesis kills each mode at the rate that evolves it
    spec = spec_2d(nu="6.5", K_x=16, J_y=4)
    c = np.random.default_rng(5).standard_normal((16, 4))
    W = 0.05  # short enough that no slice dies on its own
    active_phase_tensor(state_nd(spec, c), (0.0, W), spec, gamma=4)
    for j in range(1, 5):
        solver = spec.cached(("moment_solver", j, W), lambda: pytest.fail(f"slice {j} not solved"))
        assert np.array_equal(solver.rates, spec.rate_matrix()[:, j - 1])


def test_passive_phase_identity_dt0():
    spec = spec_2d()
    state = state_nd(spec, np.ones((8, 8)) * 1e-3)
    end = passive_span(state, (0.0, 0.0), spec, gamma=4)
    assert np.allclose(end.coeffs, state.coeffs)


def test_passive_phase_single_high_mode_exact_rate():
    spec = spec_2d()
    c = np.zeros((8, 8))
    c[0, 5] = 1.0  # j = 6 > gamma = 4
    state = state_nd(spec, c)
    end = passive_span(state, (0.0, 0.05), spec, gamma=4)
    lam = spec.rate_matrix()[0, 5]
    assert end.coeffs[0, 5] == pytest.approx(math.exp(lam * 0.05), rel=1e-12)


def test_passive_phase_random_admissible_state_bound():
    spec = spec_2d(nu="6.5")
    rng = np.random.default_rng(41)
    for _ in range(10):
        c = np.zeros((8, 8))
        c[:, 4:] = rng.standard_normal((8, 4))
        state = state_nd(spec, c)
        passive_span(state, (0.0, 0.07), spec, gamma=4)  # raises on violation


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def test_run_lr_tensor_single_low_mode():
    spec = spec_2d(K_x=8, J_y=8)
    c = np.zeros((8, 8))
    c[0, 0] = 1.0
    res = run_lr(c, 1.0, spec, BoundaryGamma(omega=None), rho=0.5, beta=4)
    assert res.final_rel_norm <= 1e-6
    assert res.total_control_norm < np.inf
    assert all(r <= 1e-8 for r in res.kill_residuals)


def test_run_lr_tensor_random_state_window_norms_decrease():
    spec = spec_2d(K_x=8, J_y=8)
    rng = np.random.default_rng(43)
    c = rng.standard_normal((8, 8))
    res = run_lr(c, 1.0, spec, BoundaryGamma(omega=None), rho=0.5, beta=4)
    assert res.final_rel_norm <= 1e-6
    norms = res.window_norms
    assert all(b <= a * (1 + 1e-9) for a, b in zip(norms[1:], norms[2:]))


def test_run_lr_gramian_interval():
    spec = spec_2d(K_x=8, J_y=8)
    rng = np.random.default_rng(47)
    c = np.zeros((8, 8))
    c[:4, :4] = rng.standard_normal((4, 4))
    res = run_lr(c, 1.0, spec, BoundaryGamma(omega=(0.3, 1.2)), rho=0.5, beta=4)
    assert res.final_rel_norm <= 1e-6
    assert res.observability_fit is not None


def test_run_lr_internal_full_omega_direct():
    spec = spec_2d(K_x=8, J_y=8)
    c = np.zeros((8, 8))
    c[0, 0] = 1.0
    c[2, 3] = -0.4
    point = PointSpec.algebraic([1, 2, -1], root_index=0)
    res = run_lr(c, 1.0, spec, InternalPoint(point=point, omega=None))
    assert res.final_rel_norm <= 1e-6
    assert res.schedule is None  # direct solve, no windowing


def test_run_lr_internal_full_omega_solves_every_slice_the_tensor_rule_keeps():
    # slice 2's free end is about 3.6e-12 of the scale: above the tensor
    # phase's 1e-12 cut, so it is solved (a 1e-10 cut would leave it at 3.4e-12)
    spec = spec_2d(K_x=16, J_y=16)
    c = np.zeros((16, 16))
    c[0, 0] = 1.0
    c[1, 0] = 0.5
    c[2, 3] = -0.4
    c[0, 1] = -0.3
    point = PointSpec.algebraic([1, 2, -1], root_index=0)
    res = run_lr(c, 1.0, spec, InternalPoint(point=point, omega=None))
    assert res.final_rel_norm <= 1e-15
    # one window killing every mode: its kill residual is the final norm
    assert res.kill_residuals == [res.final_rel_norm]


def test_run_lr_internal_below_minimal_time_refused():
    from kscontrol.errors import BelowMinimalTime

    spec = spec_2d(K_x=8, J_y=8)
    c = np.zeros((8, 8))
    c[0, 0] = 1.0
    point = PointSpec.liouville()  # T0_hat ~ 1.01
    with pytest.raises(BelowMinimalTime):
        run_lr(c, 0.5, spec, InternalPoint(point=point, omega=None))


def test_run_lr_internal_gramian_subomega():
    spec = spec_2d(K_x=6, J_y=6)
    c = np.zeros((6, 6))
    c[0, 0] = 1.0
    point = PointSpec.algebraic([1, 2, -1], root_index=0)
    res = run_lr(c, 1.0, spec, InternalPoint(point=point, omega=(0.3, 1.2)), rho=0.5, beta=4)
    assert res.final_rel_norm <= 1e-6


def test_run_lr_total_norm_stable_under_Kx_doubling():
    # doubling K_x enlarges the enforcement set (the control must also kill
    # its own pollution of the new modes), shifting the norm by ~1%; tail
    # insensitivity means this perturbation is small and bounded, not zero
    c_small = np.zeros((8, 8))
    c_small[0, 0] = 1.0
    res8 = run_lr(c_small, 1.0, spec_2d(K_x=8, J_y=8), BoundaryGamma(None), beta=4)
    c_big = np.zeros((16, 8))
    c_big[0, 0] = 1.0
    spec16 = SpectrumSpec(a="pi", nu=0, cross_section=Box(["pi"]), K_x=16, J_y=8)
    res16 = run_lr(c_big, 1.0, spec16, BoundaryGamma(None), beta=4)
    assert np.isfinite(res16.total_control_norm)
    assert res16.total_control_norm == pytest.approx(res8.total_control_norm, rel=0.02)


def test_tensor_and_gramian_agree_on_end_state():
    # same kill target, different syntheses: achieved projections agree
    spec = spec_2d(K_x=5, J_y=5)
    rng = np.random.default_rng(61)
    c = np.zeros((5, 5))
    c[:, :3] = rng.standard_normal((5, 3))
    state = state_nd(spec, c)
    from kscontrol.modal import evolve_controlled

    sig_t = active_phase_tensor(state, (0.0, 0.25), spec, gamma=3)
    sig_g, _ = active_phase_gramian(state, (0.0, 0.25), spec, 3, omega=None)
    end_t = evolve_controlled(state, sig_t, (0.0, 0.25))
    end_g = evolve_controlled(state, sig_g, (0.0, 0.25))
    diff = np.linalg.norm(end_t.coeffs[:, :3] - end_g.coeffs[:, :3])
    assert diff <= 1e-8 * np.linalg.norm(c)

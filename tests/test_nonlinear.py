import math

import numpy as np
import pytest

from kscontrol.errors import NoContraction
from kscontrol.lebeau_robbiano import BoundaryGamma, InternalPoint, run_lr
from kscontrol.modal import ControlStepper, ModalSource, nonlinear_rhs, state_nd
from kscontrol.nonlinear import (
    WeightPair,
    controlled_solve_with_source,
    default_p,
    fit_cost_constant,
    fixed_point,
    nonlinear_simulate,
    source_grid,
)
from kscontrol.pointwise import PointSpec
from kscontrol.signals import ControlSignal, ExpSegment, LegendreSegment
from kscontrol.spectrum import Box, SpectrumSpec


def spec_2d(nu=0, K=8):
    return SpectrumSpec(a="pi", nu=nu, cross_section=Box(["pi"]), K_x=K, J_y=K)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weight_parameter_validation():
    with pytest.raises(ValueError):
        WeightPair(T=1.0, q_w=1.5)  # q >= sqrt(2)
    with pytest.raises(ValueError):
        WeightPair(T=1.0, p=1.0, q_w=1.2)  # p below threshold
    w = WeightPair(T=1.0)
    assert w.p > w.q_w**2 / (2 - w.q_w**2)


def test_weight_default_p_follows_q_w():
    # the default p is default_p(q_w), not the q_w=1.2 value for every q_w
    assert WeightPair(T=1.0, q_w=1.3).p == default_p(1.3)
    assert WeightPair(T=1.0, q_w=1.1).p == default_p(1.1)
    assert WeightPair(T=1.0).p == default_p()


def test_weight_displayed_forms_pointwise():
    w = WeightPair(T=2.0, p=3.0, q_w=1.2, C_cost=0.7)
    for t in (0.0, 0.5, 1.3, 1.9):
        expectF = math.exp(-(1 + 3.0) * 1.2**2 * 0.7 / ((1.2 - 1.0) * (2.0 - t)))
        assert w.rhoF(t) == pytest.approx(expectF, rel=1e-12)
    assert w.rhoF(2.0) == 0.0


def test_weights_nonincreasing():
    w = WeightPair(T=1.0)
    t = np.linspace(0, 1, 50)
    assert np.all(np.diff(w.rhoF(t)) <= 1e-18)


# ---------------------------------------------------------------------------
# controlled solve with source
# ---------------------------------------------------------------------------

def test_zero_source_reduces_to_run_lr():
    spec = spec_2d()
    c = np.zeros((8, 8))
    c[0, 0] = 1.0
    plain = run_lr(c, 1.0, spec, BoundaryGamma(None), beta=4)
    sol = controlled_solve_with_source(c, None, 1.0, spec, BoundaryGamma(None), beta=4)
    assert sol.final_rel_norm == pytest.approx(plain.final_rel_norm, abs=1e-12)
    assert sol.total_control_norm == pytest.approx(plain.total_control_norm, rel=1e-12)


def test_early_pulse_source_still_nulled():
    spec = spec_2d()
    c = np.zeros((8, 8))
    c[0, 0] = 1.0
    w = WeightPair(T=1.0)
    times = source_grid(1.0, w)
    vals = np.zeros((len(times), 8, 8))
    pulse = (times >= 0.05) & (times <= 0.25)
    vals[pulse, 1, 1] = 0.3
    src = ModalSource(times=times, values=vals)
    sol = controlled_solve_with_source(c, src, 1.0, spec, BoundaryGamma(None), beta=4)
    assert sol.final_rel_norm <= 1e-6


def test_superposition_of_initial_data_and_source():
    spec = spec_2d()
    w = WeightPair(T=1.0)
    times = source_grid(1.0, w)
    rng = np.random.default_rng(11)
    c1 = np.zeros((8, 8)); c1[0, 0] = 1.0
    c2 = np.zeros((8, 8)); c2[1, 2] = 0.7
    v1 = np.zeros((len(times), 8, 8)); v1[times <= 0.3, 2, 0] = 0.2
    v2 = np.zeros((len(times), 8, 8)); v2[times <= 0.5, 0, 1] = -0.4
    s1 = ModalSource(times=times, values=v1)
    s2 = ModalSource(times=times, values=v2)
    s12 = ModalSource(times=times, values=2.0 * v1 + 3.0 * v2)

    r1 = controlled_solve_with_source(c1, s1, 1.0, spec, BoundaryGamma(None), beta=4)
    r2 = controlled_solve_with_source(c2, s2, 1.0, spec, BoundaryGamma(None), beta=4)
    r12 = controlled_solve_with_source(
        2.0 * c1 + 3.0 * c2, s12, 1.0, spec, BoundaryGamma(None), beta=4
    )
    # linearity of the end state residual (superposition of runs vs combined run)
    e1 = r1.trace.coeffs[-1]
    e2 = r2.trace.coeffs[-1]
    e12 = r12.trace.coeffs[-1]
    assert np.linalg.norm(e12 - 2.0 * e1 - 3.0 * e2) <= 1e-8


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def test_fixed_point_zero_data():
    spec = spec_2d()
    res = fixed_point(np.zeros((8, 8)), 1.0, spec, BoundaryGamma(None), beta=4, verify=False)
    assert res.converged
    assert res.iterations == 1
    assert all(sig.norm_l2() <= 1e-14 for sig in res.controls)


def test_fixed_point_small_data_converges_and_verifies():
    spec = spec_2d()
    c = np.zeros((8, 8))
    c[0, 0] = 1e-3
    res = fixed_point(c, 1.0, spec, BoundaryGamma(None), beta=4, sim_steps=1000)
    assert res.converged
    assert all(r < 0.9 for r in res.ratios)
    assert all(r < 0.5 for r in res.ratios[:2])
    assert res.nonlinear_final_rel <= 1e-5
    # contraction ratios non-increasing after iteration 2 (5% slack)
    for a, b in zip(res.ratios[1:], res.ratios[2:]):
        assert b <= a * 1.05


def test_fixed_point_nocontraction_at_measured_boundary():
    # measured at nu=0, K=8: scale 4 converges in 17 iterations (ratios ~0.25)
    # and scale 10 in 35 (ratios ~0.5); at scale 40 the first ratios are
    # 3.5, 1.7, 1.45 and the ratio test must fire, not the max_iter cap
    spec = spec_2d()
    c = np.zeros((8, 8))
    c[0, 0] = 40.0
    with pytest.raises(NoContraction, match="exceed 0.9") as exc:
        fixed_point(c, 1.0, spec, BoundaryGamma(None), beta=4, verify=False, max_iter=16)
    assert exc.value.reason == "ratio"


def test_fixed_point_iterate_outside_the_float_range_without_errstate():
    # with numpy left to go on with inf and nan: a later iterate that leaves
    # the float range is a loss of contraction, the first, linear one is not
    spec = SpectrumSpec(a="pi", nu=0, cross_section=Box(["pi"]), K_x=8, J_y=4)
    c = np.zeros((8, 4))
    c[0, 0] = 1e20
    with np.errstate(all="ignore"), pytest.raises(NoContraction, match="float range") as exc:
        fixed_point(c, 1.0, spec, BoundaryGamma(None), beta=4, verify=False)
    assert exc.value.reason == "ratio"
    c[0, 0] = 1e100
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
        fixed_point(c, 1.0, spec, BoundaryGamma(None), beta=4, verify=False)


def test_fixed_point_max_iter_cap_has_its_own_reason():
    # scale 4 converges in 17 iterations, so a cap of 16 stops it first
    spec = spec_2d()
    c = np.zeros((8, 8))
    c[0, 0] = 4.0
    with pytest.raises(NoContraction, match="no convergence in 16 iterations") as exc:
        fixed_point(c, 1.0, spec, BoundaryGamma(None), beta=4, verify=False, max_iter=16)
    assert exc.value.reason == "cap"


def _unstable_case():
    # a mildly unstable low mode: nu=5 gives the rate +6
    spec = SpectrumSpec(a="pi", nu=5, cross_section=Box(["pi"]), K_x=16, J_y=16)
    c = np.zeros((16, 16))
    c[0, 0] = 1e-3
    return spec, c


def _picard_outcome(u0, spec):
    """(stop reason, NoContraction reason) of one unverified Picard run."""
    try:
        res = fixed_point(u0, 1.0, spec, BoundaryGamma(None), verify=False, max_iter=24)
    except NoContraction as exc:
        return None, exc.reason
    assert res.converged
    return res.stop_reason, None


def test_fixed_point_hundredfold_dichotomy_with_unstable_mode(monkeypatch):
    # open-loop verification is skipped here: its error floor (source
    # interpolation plus integrator error) is amplified by e^{Lambda_max
    # (T-s)} ~ e^6.  x1 converges by tol.  x100 stays in the local regime:
    # it contracts at ratios ~0.3 for a dozen iterations, down to the
    # rounding floor, where its ratios scatter around 1 (measured: 4.55 at
    # iteration 18; 1.10 at iteration 16 with the block forcing).  It ends
    # converged at the floor, not as NoContraction.  x1000 leaves the local
    # regime: the ratio test fires at iteration 11, with delta ~ 6.8e6 times
    # the floor estimate.
    import kscontrol.nonlinear as nl

    spec, c = _unstable_case()
    res = fixed_point(c, 1.0, spec, BoundaryGamma(None), verify=False, max_iter=14)
    assert res.stop_reason == "tol"
    assert all(r < 0.5 for r in res.ratios[:3])

    res = fixed_point(100 * c, 1.0, spec, BoundaryGamma(None), verify=False, max_iter=24)
    assert res.converged and res.stop_reason == "floor"
    assert res.ratios[-1] > 0.9 and res.deltas[-1] <= res.delta_floor
    assert all(r < 0.5 for r in res.ratios[3:12])

    calls = []
    original = nl._source_delta

    def recording(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(nl, "_source_delta", recording)
    with pytest.raises(NoContraction, match="exceed 0.9") as exc:
        fixed_point(1000 * c, 1.0, spec, BoundaryGamma(None), verify=False, max_iter=24)
    assert exc.value.reason == "ratio"
    assert len(calls) == 11
    assert all(delta > 1e3 * floor for delta, floor in calls[-3:])


def test_last_bits_of_the_synthesis_change_no_picard_verdict(monkeypatch):
    # the replay's step-anchored Duhamel block regroups the synthesis sums in
    # their last bits (the first end state moves by ~1e-23 relative); every
    # verdict of the unstable case must survive it
    spec, c = _unstable_case()
    scales = (1, 100, 1000)
    before = [_picard_outcome(s * c, spec) for s in scales]
    anchored = []

    def step_anchored(self, t0s, t1s):
        # `evolve_controlled` asks for every piece of a call at once
        anchored.append(len(t0s))
        return np.array([self.step_forcing(a, b) for a, b in zip(t0s, t1s)])

    monkeypatch.setattr(ControlStepper, "forcing", step_anchored)
    spec, _ = _unstable_case()  # a fresh spec: no moment solver carried over
    after = [_picard_outcome(s * c, spec) for s in scales]
    assert sum(anchored) > 0  # the syntheses ran on the step-anchored block
    assert before == after == [("tol", None), ("floor", None), (None, "ratio")]


def test_r_guess_gate():
    spec = spec_2d()
    c = np.zeros((8, 8))
    c[0, 0] = 0.5
    with pytest.raises(NoContraction) as exc:
        fixed_point(c, 1.0, spec, BoundaryGamma(None), r_guess=0.1, verify=False)
    assert exc.value.reason == "radius"


def _c10a_case():
    spec = SpectrumSpec(a="pi", nu=0, cross_section=Box(["pi"]), K_x=16, J_y=16)
    u0 = np.zeros((16, 16))
    u0[0, 0] = 1e-3
    return spec, u0


def test_fixed_point_builds_each_window_family_once(monkeypatch):
    # every Picard iteration repeats the same windows: the spec keeps one
    # moment solver per (slice, window length), so no family is rebuilt
    import kscontrol.moments as moments

    builds = {}
    original = moments.build_family

    def counting(exponents, T, **kw):
        key = (np.asarray(exponents, dtype=float).tobytes(), float(T))
        builds[key] = builds.get(key, 0) + 1
        return original(exponents, T, **kw)

    monkeypatch.setattr(moments, "build_family", counting)
    spec, u0 = _c10a_case()
    res = fixed_point(u0, 1.0, spec, BoundaryGamma(None), beta=4, verify=False)
    assert res.iterations >= 2
    assert builds and all(n == 1 for n in builds.values())


def test_fixed_point_scans_the_interior_point_once(monkeypatch):
    # every Picard iteration gates on the same minimal time: the spec keeps
    # one scan per point, so three iterations call the estimator once
    import kscontrol.pointwise as pw

    calls = []
    original = pw.minimal_time_estimate

    def counting(point, a, *args):
        calls.append(point)
        return original(point, a, *args)

    monkeypatch.setattr(pw, "minimal_time_estimate", counting)
    spec = spec_2d()
    c = np.zeros((8, 8))
    c[0, 0] = 1e-3
    point = PointSpec.algebraic([1, 2, -1], root_index=0)
    with pytest.raises(NoContraction, match="no convergence in 3 iterations"):
        fixed_point(c, 1.0, spec, InternalPoint(point=point, omega=None), max_iter=3,
                    tol=0.0, verify=False)
    assert calls == [point]


def test_fixed_point_identical_on_equal_specs():
    runs = []
    for _ in range(2):
        spec, u0 = _c10a_case()
        runs.append(fixed_point(u0, 1.0, spec, BoundaryGamma(None), beta=4, verify=False))
    a, b = runs
    assert a.deltas == b.deltas and a.ratios == b.ratios
    assert len(a.controls) == len(b.controls)
    for sa, sb in zip(a.controls, b.controls):
        assert np.array_equal(sa.segment.exponents, sb.segment.exponents)
        assert np.array_equal(sa.segment.coeffs, sb.segment.coeffs)


# ---------------------------------------------------------------------------
# nonlinear simulation
# ---------------------------------------------------------------------------

def test_simulate_quadratic_smallness_vs_linear():
    # tiny data, zero control: nonlinear trace within 1e-6 of the linear one
    spec = spec_2d()
    c = np.zeros((8, 8))
    c[0, 0] = 1e-4
    sim = nonlinear_simulate(c, [], 0.5, spec, n_steps=1000)
    lin_final = 1e-4 * math.exp(spec.rate_matrix()[0, 0] * 0.5)
    assert abs(sim["final_norm"] - lin_final) <= 1e-6 * 1e-4


def test_simulate_energy_balance_audit():
    # d/dt ||u||^2 = 2 <u, Lambda u> + 2 <u, F(u)> for the free nonlinear flow
    spec = spec_2d(K=6)
    rng = np.random.default_rng(7)
    c = 0.05 * rng.standard_normal((6, 6))
    # one-sided difference is first order in h; h=1e-6 puts the audit at the
    # few-1e-3 level (stiffest retained rate ~ -5e3 drives the curvature)
    h = 1e-6
    state = state_nd(spec, c)
    from kscontrol.nonlinear import _etd_run

    r1 = _etd_run(c, [], h, spec, 4)
    n1 = r1["final_norm"]
    lhs = (n1**2 - np.sum(c**2)) / h
    rates = spec.rate_matrix()
    rhs = 2.0 * float(np.sum(c * (rates * c))) + 2.0 * float(np.sum(c * nonlinear_rhs(state)))
    assert lhs == pytest.approx(rhs, rel=5e-3)


def test_simulate_step_halving_self_consistency():
    spec = spec_2d()
    c = np.zeros((8, 8))
    c[0, 0] = 1e-3
    res = run_lr(c, 1.0, spec, BoundaryGamma(None), beta=4)
    sim = nonlinear_simulate(c, res.controls, 1.0, spec, n_steps=1000)
    assert sim["final_rel_norm"] <= 1e-5


def test_simulate_refuses_fewer_than_the_minimum_steps():
    spec = spec_2d()
    with pytest.raises(ValueError, match="n_steps=999"):
        nonlinear_simulate(np.zeros((8, 8)), [], 0.5, spec, n_steps=999)


def _reference_replay(u0, controls, T, spec, n_steps):
    """The ETD2 replay written out step by step from `mode_duhamel`.

    Same grid and formula as `nonlinear_simulate`; the control enters per
    step through its covering signal's Duhamel integral at absolute times,
    then the mass and the x gain.
    """
    from kscontrol.modal import x_gain
    from kscontrol.signals import phi1, phi2

    lam = spec.rate_matrix()
    gain = x_gain(spec)
    grid = np.linspace(0.0, T, n_steps + 1)
    ends = [0.0, T] + [t for sig in controls for t in (sig.t_start, sig.t_end)]
    grid = np.unique(np.concatenate([grid, ends]))
    u = np.array(u0, dtype=float)
    norms = [float(np.linalg.norm(u))]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        h = t1 - t0
        lc = u * np.exp(lam * h)
        sig = next((s for s in controls
                    if s.t_start - 1e-12 <= t0 and t1 <= s.t_end + 1e-12), None)
        if sig is not None:
            duh = sig.segment.mode_duhamel(lam.ravel(), t0, t1).reshape(lam.shape + (-1,))
            lc = lc + np.einsum("kjr,rj->kj", duh, sig.mass) * gain[:, None]
        N0 = nonlinear_rhs(state_nd(spec, u))
        pred = lc + h * phi1(lam * h) * N0
        N1 = nonlinear_rhs(state_nd(spec, pred))
        u = pred + h * phi2(lam * h) * (N1 - N0)
        norms.append(float(np.linalg.norm(u)))
    return grid, np.array(norms)


def _two_segment_controls(spec):
    """Two consecutive one-segment signals, an exponential and a Legendre
    one; the end 0.3037 between them lies inside a step of the uniform
    grid of either step count, so the replay cuts the grid there."""
    rng = np.random.default_rng(21)
    J = spec.J_y
    exp_seg = ExpSegment(0.1, 0.3037, np.array([-30.0, -2.0, 5.0]),
                         np.array([0.1, 0.1, 0.3037]), 1e-3 * rng.standard_normal((3, J)))
    leg_seg = LegendreSegment(0.3037, 0.55, 1e-3 * rng.standard_normal((4, J)))
    return [ControlSignal(exp_seg, mass=np.eye(J)), ControlSignal(leg_seg, mass=np.eye(J))]


@pytest.mark.parametrize("case", ["tensor", "gramian", "two-segment"])
def test_replay_matches_reference_loop(case):
    # nonlinear_simulate returns the run at twice the requested step count
    spec = spec_2d()
    u0 = np.zeros((8, 8))
    u0[0, 0], u0[1, 0] = 1e-3, -5e-4
    if case == "tensor":
        controls = run_lr(u0, 1.0, spec, BoundaryGamma(None), beta=4).controls
    elif case == "gramian":
        # the controls of a Picard fixed point on Gramian windows
        res = fixed_point(u0, 1.0, spec, BoundaryGamma((0.3, 1.2)), beta=4, verify=False)
        assert res.converged
        controls = res.controls
    else:
        controls = _two_segment_controls(spec)
    sim = nonlinear_simulate(u0, controls, 1.0, spec, n_steps=1000)
    times, norms = _reference_replay(u0, controls, 1.0, spec, 2000)
    assert np.array_equal(sim["norm_series"][0], times)
    u0n = float(np.linalg.norm(u0))
    assert abs(sim["final_norm"] - norms[-1]) <= 1e-12 * u0n
    assert np.max(np.abs(sim["norm_series"][1] - norms)) <= 1e-12 * u0n


def test_quadratic_smallness_regression_constant():
    # ||F(u)||_{L2} <= C_F ||u||_{H1}^2 with C_F measured once and frozen
    spec = spec_2d(K=6)
    rng = np.random.default_rng(13)
    sym = np.sqrt(
        (np.arange(1, 7)[:, None] * math.pi / spec.a_float) ** 2 + spec.mus[None, :]
    )
    worst = 0.0
    for _ in range(20):
        c = rng.standard_normal((6, 6))
        f = nonlinear_rhs(state_nd(spec, c))
        h1_sq = float(np.sum(sym**2 * c**2))
        worst = max(worst, float(np.linalg.norm(f)) / h1_sq)
    # frozen regression bound for this truncation (measured max ~0.16)
    assert worst <= 0.25


def test_fit_cost_constant_positive():
    spec = spec_2d()
    rep = fit_cost_constant(spec, BoundaryGamma(None), T_grid=(0.5, 1.0), beta=4)
    assert rep["C_hat"] > 0
    assert len(rep["points"]) == 2

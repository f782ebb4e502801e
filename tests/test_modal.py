import functools
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg
from scipy.integrate import quad

from kscontrol import signals
from kscontrol.modal import (
    ControlStepper,
    ModalSource,
    evolve_controlled,
    nonlinear_rhs,
    observation,
    observe,
    rhs_operator,
    state_1d,
    state_nd,
    x_gain,
)
from kscontrol.signals import (
    ControlSignal,
    ExpSegment,
    LegendreSegment,
    gauss_legendre,
    legendre_mode_integrals,
    phi1,
    phi2,
)
from kscontrol.spectrum import Box, External, SpectrumSpec


def spec_1d(nu=0, K_x=8, mu=None):
    cs = External([mu]) if mu is not None else Box(["pi"])
    return SpectrumSpec(a="pi", nu=nu, cross_section=cs, K_x=K_x, J_y=1)


def spec_2d(nu=0, K_x=6, J_y=6):
    return SpectrumSpec(a="pi", nu=nu, cross_section=Box(["pi"]), K_x=K_x, J_y=J_y)


def piecewise_constant(grid, values, **kw):
    """Controls equal to values[i] on [grid[i], grid[i + 1]]: one signal of one
    degree-0 Legendre segment per window."""
    return [ControlSignal(LegendreSegment(t0=t0, t1=t1, coeffs=np.asarray(v, dtype=float)[None]),
                          **kw)
            for t0, t1, v in zip(grid[:-1], grid[1:], values)]


def free(state, dt):
    """The free flow of ``state`` over dt: `evolve_controlled` without a control."""
    return evolve_controlled(state, None, (state.time, state.time + dt))


def evolve_windows(state, signals):
    """`evolve_controlled` through consecutive signals, one window at a time."""
    for sig in signals:
        state = evolve_controlled(state, sig, (sig.t_start, sig.t_end))
    return state


# ---------------------------------------------------------------------------
# phi functions and exponential integrals
# ---------------------------------------------------------------------------

def test_phi_functions():
    assert phi1(0.0) == pytest.approx(1.0)
    assert phi1(-1e-12) == pytest.approx(1.0)
    assert phi1(2.0) == pytest.approx((math.e**2 - 1) / 2)
    assert phi2(0.0) == pytest.approx(0.5)
    assert phi2(1e-6) == pytest.approx(0.5 + 1e-6 / 6, rel=1e-10)
    assert phi2(-3.0) == pytest.approx((math.exp(-3) - 1 + 3) / 9)


def test_legendre_mode_integrals_vs_quadrature():
    from numpy.polynomial.legendre import Legendre

    delta = 0.3
    for lam in (-2000.0, -35.0, -1e-9, 2.5):
        I = legendre_mode_integrals([lam], degree=6, delta=delta)[0]
        for p in range(7):
            P = Legendre.basis(p)
            val, _ = quad(
                lambda s: math.exp(lam * (delta - s)) * P(2 * s / delta - 1.0),
                0.0,
                delta,
                limit=400,
            )
            assert I[p] == pytest.approx(val, rel=1e-9, abs=1e-13)


@functools.lru_cache(maxsize=None)
def _mode_integral_oracle(z: float, degree: int) -> tuple:
    """e^{-z} i_p(z), p = 0..degree, at 40 digits: i_p(z) = sqrt(pi/2z) I_{p+1/2}(z),
    and i_p(-w) = (-1)^p i_p(w)."""
    with mp.workdps(40):
        if z == 0.0:
            return (mp.mpf(1),) + (mp.mpf(0),) * degree
        w = abs(mp.mpf(z))
        scale = mp.exp(-mp.mpf(z)) * mp.sqrt(mp.pi / (2 * w))
        return tuple(scale * mp.besseli(p + mp.mpf(1) / 2, w) * (-1 if z < 0 and p % 2 else 1)
                     for p in range(degree + 1))


@pytest.mark.parametrize("degree", [0, 1, 2, 31, 63])
@pytest.mark.parametrize("delta", [0.3, 2.0, 0.0125])
def test_legendre_mode_integrals_bitwise_match_row_by_row(degree, delta):
    # z = -lam delta / 2: decaying over [1e-8, 1e8], on both sides of the
    # crossover between the two quadrature rules, z = 0, |z| < 1e-6, and
    # growing up to 2|z| = 700
    z = np.concatenate([np.geomspace(1e-8, 1e8, 25), [0.0, 5e-7, -5e-7, -1e-7, 11.9, 12.0,
                                                      12.1, 31.5, 31.6],
                        -np.geomspace(1e-3, 350.0, 7)])
    lam = -2.0 * z / delta
    got = legendre_mode_integrals(lam, degree=degree, delta=delta)
    assert got.shape == (len(lam), degree + 1)
    # normwise (row max) against the 40-digit oracle at the z the kernel sees
    for row, zi in zip(got, -lam * delta / 2.0):
        want = [delta * v for v in _mode_integral_oracle(float(zi), degree)]
        err = max(abs(mp.mpf(g) - v) for g, v in zip(row, want)) / max(abs(v) for v in want)
        assert err <= 5e-14, (zi, float(err))
    # each row has the bits the rate gets alone, and rates that repeat get equal
    # rows: exact duplicates in every branch, and the pi x pi rate matrix at
    # K_x = J_y = 16, whose 256 rates hold 130 distinct values (rate(k, j) = rate(j, k))
    for row, lam_i in zip(got, lam):
        assert legendre_mode_integrals([lam_i], degree=degree, delta=delta).tobytes() == row.tobytes()
    square = spec_2d(K_x=16, J_y=16).rate_matrix().ravel()
    assert len(np.unique(square)) == 130
    repeats = [-0.7, 0.0, 3.0, -0.7, 1e-9, -12.5, 0.0, 3.0, -1e-7, -12.5, 1e-9, -1e-7, -0.7]
    for sub in (repeats, square):
        rows = legendre_mode_integrals(sub, degree=degree, delta=delta)
        alone = {x: legendre_mode_integrals([x], degree=degree, delta=delta)[0].tobytes()
                 for x in sub}
        assert [r.tobytes() for r in rows] == [alone[x] for x in sub]


def test_exp_segment_duhamel_vs_quadrature():
    seg = ExpSegment(
        t0=0.2, t1=0.9,
        exponents=np.array([-5.0, 3.0]),
        refs=np.array([0.2, 0.9]),
        coeffs=np.array([2.0, -0.7]),
    )
    for lam in (-300.0, -1.0, 0.5):
        got = seg.mode_duhamel(np.array([lam]), 0.2, 0.9)[0]
        val, _ = quad(lambda s: math.exp(lam * (0.9 - s)) * seg.value(s), 0.2, 0.9, limit=400)
        assert got == pytest.approx(val, rel=1e-10, abs=1e-14)


def test_legendre_segment_duhamel_vs_quadrature():
    # the whole window and a sub-span take the same restriction path
    seg = LegendreSegment(t0=0.2, t1=0.9, coeffs=np.array([2.0, -0.7, 0.4, 0.25, -0.1]))
    for t0, t1 in ((0.2, 0.9), (0.35, 0.8)):
        for lam in (-300.0, -1.0, 0.5):
            got = seg.mode_duhamel(np.array([lam]), t0, t1)[0]
            val, _ = quad(lambda s: math.exp(lam * (t1 - s)) * seg.value(s), t0, t1, limit=400)
            assert got == pytest.approx(val, rel=1e-10, abs=1e-14), (t0, t1, lam)


def test_exp_segment_l2_vs_quadrature():
    seg = ExpSegment(
        t0=0.0, t1=1.0,
        exponents=np.array([-2.0, -17.0]),
        refs=np.array([0.0, 0.0]),
        coeffs=np.array([1.0, 3.0]),
    )
    val, _ = quad(lambda s: seg.value(s) ** 2, 0.0, 1.0, limit=200)
    assert ControlSignal(seg).norm_l2() ** 2 == pytest.approx(val, rel=1e-12)


# ---------------------------------------------------------------------------
# free flow
# ---------------------------------------------------------------------------

def test_state_norm_below_the_squaring_floor():
    # np.linalg.norm squares the entries and returns 0.0 at this scale
    spec = spec_2d()
    c = np.random.default_rng(9).standard_normal((spec.K_x, spec.J_y))
    tiny = state_nd(spec, 1e-200 * c)
    assert tiny.norm == pytest.approx(1e-200 * state_nd(spec, c).norm, rel=1e-15, abs=0.0)


def test_free_flow_identity_and_reversed_window():
    spec = spec_1d()
    u = state_1d(spec, 1, coeffs=np.arange(1.0, 9.0))
    v = free(u, 0.0)
    assert np.array_equal(u.coeffs, v.coeffs)
    with pytest.raises(ValueError, match=r"window \(0.0, -0.25\) needs t0 <= t1"):
        evolve_controlled(u, None, (0.0, -0.25))
    with pytest.raises(ValueError, match=r"window \(0.0, nan\)"):
        evolve_controlled(u, None, (0.0, math.nan))


def test_single_mode_decay_rate():
    spec = spec_1d()
    c = np.zeros(8)
    c[2] = 1.0
    u = state_1d(spec, 1, coeffs=c)
    dt = 1e-3
    v = free(u, dt)
    rate = math.log(abs(v.coeffs[2])) / dt
    assert rate == pytest.approx(spec.x_rates(1)[2], rel=1e-12)


def test_semigroup_composition():
    spec = spec_2d()
    rng = np.random.default_rng(0)
    u = state_nd(spec, rng.standard_normal((6, 6)) * 1e-2)
    a = free(free(u, 0.013), 0.027)
    b = free(u, 0.040)
    assert np.allclose(a.coeffs, b.coeffs, rtol=1e-12, atol=1e-300)


@given(st.floats(min_value=1e-4, max_value=0.1), st.floats(min_value=1e-4, max_value=0.1))
@settings(max_examples=25, deadline=None)
def test_semigroup_property_hypothesis(dt1, dt2):
    spec = spec_1d(K_x=4)
    u = state_1d(spec, 1, coeffs=np.array([1.0, -0.5, 0.25, 0.1]))
    a = free(free(u, dt1), dt2)
    b = free(u, dt1 + dt2)
    assert np.allclose(a.coeffs, b.coeffs, rtol=1e-12)


# ---------------------------------------------------------------------------
# controlled flow: closed forms
# ---------------------------------------------------------------------------

def test_zero_control_reduces_to_free():
    spec = spec_1d()
    u = state_1d(spec, 1, coeffs=np.ones(8))
    sigs = piecewise_constant(np.linspace(0, 0.5, 11), np.zeros(10))
    v = evolve_windows(u, sigs)
    w = free(u, 0.5)
    assert np.allclose(v.coeffs, w.coeffs, rtol=1e-14)


def test_control_signal_rejects_non_finite_values():
    with pytest.raises(ValueError):
        piecewise_constant(np.array([0.0, 0.5]), np.array([np.nan]))
    seg = ExpSegment(t0=0.0, t1=0.5, exponents=np.array([-1.0, -2.0]),
                     refs=np.zeros(2), coeffs=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        ControlSignal(seg)


def test_control_signal_refuses_t1_not_after_t0():
    def seg(t0, t1):
        return ExpSegment(t0=t0, t1=t1, exponents=np.array([-1.0]), refs=np.zeros(1),
                          coeffs=np.array([1.0]))

    assert ControlSignal(seg(0.5, 0.9)).t_end == 0.9
    for t0, t1 in ((0.9, 0.5), (0.5, 0.5), (math.nan, 0.5)):
        with pytest.raises(ValueError, match="t0 < t1"):
            ControlSignal(seg(t0, t1))


def test_constant_boundary_control_duhamel_closed_form():
    # single retained mode: v_k(T) = e^{lam T} v0 + g c (e^{lam T} - 1)/lam
    spec = spec_1d(K_x=1, mu=1.0)
    lam = spec.x_rates(1)[0]
    g = -math.sqrt(2.0 / math.pi) * 1.0 * math.pi / math.pi  # S_BOUNDARY included
    c = 0.37
    T = 0.8
    u = state_1d(spec, 1, coeffs=np.array([0.9]))
    sigs = piecewise_constant(np.array([0.0, T]), np.array([c]))
    v = evolve_windows(u, sigs)
    expect = math.exp(lam * T) * 0.9 + g * c * (math.exp(lam * T) - 1.0) / lam
    assert v.coeffs[0] == pytest.approx(expect, rel=1e-10)


def test_constant_pointwise_control_duhamel_closed_form():
    spec = spec_1d(K_x=1, mu=1.0)
    lam = spec.x_rates(1)[0]
    x0 = 1.1
    g = math.sqrt(2.0 / math.pi) * math.sin(x0)
    c, T = -0.21, 0.6
    u = state_1d(spec, 1, coeffs=np.array([0.4]))
    sigs = piecewise_constant(np.array([0.0, T]), np.array([c]), x0=x0)
    v = evolve_windows(u, sigs)
    expect = math.exp(lam * T) * 0.4 + g * c * (math.exp(lam * T) - 1.0) / lam
    assert v.coeffs[0] == pytest.approx(expect, rel=1e-10)


def test_pointwise_node_of_sine_untouched():
    # x0 = a/2: sin(k pi/2) = 0 for even k, so even modes never move
    spec = spec_1d(K_x=8, mu=1.0)
    u = state_1d(spec, 1, coeffs=np.zeros(8))
    grid = np.linspace(0.0, 0.5, 41)
    rng = np.random.default_rng(3)
    sigs = piecewise_constant(grid, rng.standard_normal(40), x0=math.pi / 2)
    v = evolve_windows(u, sigs)
    assert np.allclose(v.coeffs[1::2], 0.0, atol=1e-16)
    assert np.any(np.abs(v.coeffs[::2]) > 1e-6)


# ---------------------------------------------------------------------------
# the per-signal stepper
# ---------------------------------------------------------------------------

def _stepper_case(nd: bool, segment):
    """A one-segment boundary control on a 1-D or a cylinder state, with its
    x gain and, on the cylinder, a random row-to-mode mass."""
    rng = np.random.default_rng(3)
    if nd:
        spec = spec_2d()
        state, mass = state_nd(spec), rng.standard_normal((4, spec.J_y))
        sig = ControlSignal(segment, mass=mass)
    else:
        spec = spec_1d()
        state, mass = state_1d(spec, 1), None
        sig = ControlSignal(segment)
    return state, sig, x_gain(spec, count=state.coeffs.shape[0]), mass


def _piece_duhamel(seg, lam, t0, t1):
    """The Duhamel integrals of one segment over one piece [t0, t1], written
    out for that piece alone: the end-anchored exponential block with its
    series branch, or the Legendre restriction to the piece and the mode
    integrals of its length."""
    if isinstance(seg, ExpSegment):
        b, r, lamc = seg.exponents[None, :], seg.refs[None, :], lam[:, None]
        delta = t1 - t0
        g1 = b * (t1 - r)
        g0 = lamc * delta + b * (t0 - r)
        diff = (b - lamc) * delta
        small = np.abs(diff) < 1e-6
        main = (np.exp(g1) - np.exp(g0)) / np.where(small, 1.0, b - lamc)
        series = np.exp(g0) * delta * (1.0 + diff / 2.0 + diff * diff / 6.0)
        return np.where(small, series, main) @ seg.coeffs
    deg = seg.coeffs.shape[0] - 1
    nodes, wts = gauss_legendre(deg + 1)
    s = t0 + (t1 - t0) * (nodes + 1.0) / 2.0
    Vp = npleg.legvander(2.0 * (s - seg.t0) / (seg.t1 - seg.t0) - 1.0, deg)
    q = np.arange(deg + 1)
    R = ((2.0 * q[:, None] + 1.0) / 2.0) * (npleg.legvander(nodes, deg).T @ (wts[:, None] * Vp))
    return legendre_mode_integrals(lam, deg, t1 - t0) @ (R @ seg.coeffs)


def _parent_forcing(state, sig, gain, mass, t0, t1):
    """The per-piece formula: the piece's Duhamel integrals at absolute times,
    then mass, then the gain."""
    lam = state.rates
    duh = _piece_duhamel(sig.segment, lam.ravel(), t0, t1)
    if mass is None:
        return duh.reshape(lam.shape) * (gain if lam.ndim == 1 else gain[:, None])
    return np.einsum("kjr,rj->kj", duh.reshape(lam.shape + (mass.shape[0],)), mass) * gain[:, None]


def _random_steps(rng, t0, t1, n=12):
    """Random steps inside [t0, t1], plus steps touching either end."""
    out = [(t0, t0 + 0.1 * (t1 - t0)), (t1 - 0.07 * (t1 - t0), t1), (t0, t1)]
    for _ in range(n):
        a, b = np.sort(rng.uniform(t0, t1, 2))
        out.append((float(a), float(b)))
    return out


@pytest.mark.parametrize("nd", [False, True], ids=["1d", "nd"])
def test_stepper_exp_segment_matches_per_piece_formula(nd):
    # decaying exponents referenced to the segment start, growing ones to its end
    rng = np.random.default_rng(11)
    t0, t1 = 0.25, 0.8
    exps = np.array([-900.0, -40.0, -3.0, -0.2, 0.0, 0.7, 6.0, 150.0])
    refs = np.where(exps > 0, t1, t0)
    coeffs = rng.standard_normal((8, 4) if nd else 8)
    state, sig, gain, mass = _stepper_case(nd, ExpSegment(t0, t1, exps, refs, coeffs))
    stepper = ControlStepper(state, sig)
    for a, b in _random_steps(rng, t0, t1):
        want = _parent_forcing(state, sig, gain, mass, a, b)
        assert np.array_equal(stepper.forcing(a, b), want)
        got = stepper.step_forcing(a, b)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(stepper.step_forcing(a, b), got)  # the cached block


@pytest.mark.parametrize("nd", [False, True], ids=["1d", "nd"])
def test_stepper_legendre_segment_matches_per_piece_formula(nd):
    rng = np.random.default_rng(12)
    t0, t1 = 0.1, 0.6
    coeffs = rng.standard_normal((6, 4) if nd else 6)
    state, sig, gain, mass = _stepper_case(nd, LegendreSegment(t0, t1, coeffs))
    stepper = ControlStepper(state, sig)
    for a, b in _random_steps(rng, t0, t1):  # the full span and partial spans
        want = _parent_forcing(state, sig, gain, mass, a, b)
        assert np.array_equal(stepper.forcing(a, b), want)
        got = stepper.step_forcing(a, b)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _batch_cases(nd):
    """`_stepper_case` of an exponential segment with decaying, growing and
    near-rate exponents (b within 1e-9 of a rate takes the series branch,
    2e-6 above one takes either branch by the piece's length), then of a
    Legendre segment."""
    rng = np.random.default_rng(13)
    lam = (spec_2d().rate_matrix() if nd else spec_1d().x_rates(1)).ravel()
    t0, t1 = 0.25, 0.8
    exps = np.array([-900.0, -40.0, -0.2, 0.0, 0.7, 150.0, lam[1], lam[4] + 1e-9, lam[-1] - 3e-10,
                     lam[2] + 2e-6])
    rows = (4,) if nd else ()
    for seg in (ExpSegment(t0, t1, exps, np.where(exps > 0, t1, t0),
                           rng.standard_normal((len(exps),) + rows)),
                LegendreSegment(t0, t1, rng.standard_normal((7,) + rows))):
        yield _stepper_case(nd, seg)


@pytest.mark.parametrize("nd", [False, True], ids=["1d", "nd"])
def test_stepper_forcing_batch_matches_the_per_piece_formula(nd, monkeypatch):
    # every piece of one call, the whole window and partial spans alike, has
    # the bits of the per-piece formula, whatever the chunks of pieces are
    rng = np.random.default_rng(15)
    for state, sig, gain, mass in _batch_cases(nd):
        seg = sig.segment
        grid = np.union1d(rng.uniform(seg.t0, seg.t1, 40), [seg.t0, seg.t1])
        spans = np.array(_random_steps(rng, seg.t0, seg.t1))  # overlapping partial spans
        entries = state.rates.size * 10  # (mode, exponential) entries of a piece
        for t0s, t1s in ((grid[:-1], grid[1:]), (spans[:, 0], spans[:, 1])):
            want = np.array([_parent_forcing(state, sig, gain, mass, a, b)
                             for a, b in zip(t0s, t1s)])
            # one piece per chunk, three, the default, all pieces in one chunk
            for elements in (1, 3 * entries, signals.PIECE_BATCH_ELEMENTS, len(t0s) * entries):
                monkeypatch.setattr(signals, "PIECE_BATCH_ELEMENTS", elements)
                assert np.array_equal(ControlStepper(state, sig).forcing(t0s, t1s), want)


@pytest.mark.parametrize("nd", [False, True], ids=["1d", "nd"])
def test_evolve_controlled_matches_the_per_piece_loop(nd):
    # the closed loop over record times, with every forcing taken in one
    # pass, has the bits of a loop that evaluates each piece on its own
    rng = np.random.default_rng(14)
    for state, sig, gain, mass in _batch_cases(nd):
        state = replace(state, coeffs=rng.standard_normal(state.coeffs.shape), time=0.25)
        record = np.linspace(0.25, 0.8, 17)
        end, trace = evolve_controlled(state, sig, (0.25, 0.8), record=record)
        coeffs, walked = state.coeffs, [state.coeffs]
        for a, b in zip(record[:-1], record[1:]):
            coeffs = coeffs * np.exp(state.rates * (b - a))
            coeffs = coeffs + _parent_forcing(state, sig, gain, mass, a, b)
            walked.append(coeffs)
        assert np.array_equal(trace.coeffs, np.array(walked))
        assert np.array_equal(end.coeffs, coeffs)
        # an empty window takes no piece and leaves the state as it is
        assert np.array_equal(evolve_controlled(state, sig, (0.25, 0.25)).coeffs, state.coeffs)


def test_stepper_advance_walks_consecutive_signals():
    # the replay's walk across two consecutive one-segment signals, one stepper
    # each, equals their exact window-by-window evolution
    spec = spec_2d()
    rng = np.random.default_rng(5)
    sigs = [ControlSignal(ExpSegment(0.0, 0.3, np.array([-20.0, 4.0]), np.array([0.0, 0.3]),
                                     rng.standard_normal((2, spec.J_y))), mass=np.eye(spec.J_y)),
            ControlSignal(LegendreSegment(0.3, 0.5, rng.standard_normal((3, spec.J_y))),
                          mass=np.eye(spec.J_y))]
    u = state_nd(spec, rng.standard_normal((6, 6)))
    steppers = [ControlStepper(u, sig) for sig in sigs]
    for stepper, (a, b) in zip(steppers, [(0.27, 0.3), (0.3, 0.33)]):
        step = u.coeffs * np.exp(u.rates * (b - a)) + stepper.step_forcing(a, b)
        assert np.array_equal(stepper.advance(u.coeffs, a, b), step)
    evolved = evolve_windows(u, sigs)
    grid = np.union1d(np.linspace(0.0, 0.5, 8), [0.3])
    walked = u.coeffs
    for a, b in zip(grid[:-1], grid[1:]):
        stepper = steppers[0] if b <= 0.3 else steppers[1]
        walked = stepper.advance(walked, float(a), float(b))
    scale = np.max(np.abs(evolved.coeffs))
    assert np.max(np.abs(walked - evolved.coeffs)) <= 1e-13 * scale


def test_stepper_without_control_is_the_free_flow():
    spec = spec_2d()
    u = state_nd(spec, np.random.default_rng(6).standard_normal((6, 6)), time=0.5)
    stepper = ControlStepper(u, None)
    assert np.array_equal(stepper.advance(u.coeffs, 0.5, 0.75), free(u, 0.25).coeffs)


def test_evolve_controlled_records_within_1e_12():
    spec = spec_1d()
    u = state_1d(spec, 1, coeffs=np.ones(8))
    (sig,) = piecewise_constant(np.array([0.0, 0.5]), np.ones(1))
    src = ModalSource(times=np.linspace(0, 0.5, 6), values=np.zeros((6, 8)))
    # record times are breakpoints too; the source time 0.2 lies within
    # 1e-12 of the record time 0.2 + 5e-13 and is recorded, 0.3 is 1e-9 from
    # 0.3 + 1e-9 and is not
    _, trace = evolve_controlled(u, sig, (0.0, 0.5), source=src,
                                 record=[0.0, 0.2 + 5e-13, 0.3 + 1e-9, 0.5])
    assert trace.times.tolist() == [0.0, 0.2, 0.2 + 5e-13, 0.3 + 1e-9, 0.5]
    assert trace.coeffs.shape == (5, 8)


# ---------------------------------------------------------------------------
# adjoint and observations
# ---------------------------------------------------------------------------

def test_adjoint_single_mode_observation():
    spec = spec_1d(mu=1.0, K_x=4)
    rates = spec.x_rates(1, 4)
    phi_T = np.array([0.0, 1.0, 0.0, 0.0])
    t, T = 0.3, 1.0
    phi = phi_T * np.exp(rates * (T - t))  # the adjoint state at t
    obs = observation(phi, spec)
    expect = math.sqrt(2.0 / math.pi) * (2.0 / math.pi) * 2.0 * 0.0 + \
        math.sqrt(2.0 / math.pi) * (2 * math.pi / math.pi) * math.exp(rates[1] * (T - t))
    assert obs == pytest.approx(expect, rel=1e-12)


def test_adjoint_parseval_norm():
    spec = spec_2d()
    rng = np.random.default_rng(1)
    phi_T = rng.standard_normal((6, 6))
    rates = spec.rate_matrix()
    phi0 = state_nd(spec, phi_T * np.exp(rates * 0.25))  # the adjoint state at 0, T = 0.25
    expect = math.sqrt(float(np.sum(np.exp(2 * rates * 0.25) * phi_T**2)))
    assert phi0.norm == pytest.approx(expect, rel=1e-12)


def test_observe_trace_series():
    spec = spec_1d(mu=1.0, K_x=4)
    u = state_1d(spec, 1, coeffs=np.array([1.0, 0.0, 0.0, 0.0]))
    times = np.linspace(0.0, 0.2, 6)
    _, trace = evolve_controlled(u, None, (0.0, 0.2), record=times)
    series = observe(trace, spec, x0=1.0)
    lam = spec.x_rates(1)[0]
    expect_b = math.sqrt(2 / math.pi) * (math.pi / math.pi) * np.exp(lam * times)
    assert np.allclose(series["boundary"], expect_b, rtol=1e-12)
    expect_p = math.sqrt(2 / math.pi) * math.sin(1.0) * np.exp(lam * times)
    assert np.allclose(series["point"], expect_p, rtol=1e-12)


# ---------------------------------------------------------------------------
# duality calibration: the most load-bearing tests in the repo
# ---------------------------------------------------------------------------

def test_duality_boundary_1d_random():
    # <v(T), phi_T> - <v0, phi(0)> + int q(t) phi_x(t,0) dt = 0
    spec = spec_1d(mu=1.0, K_x=8)
    rates = spec.x_rates(1)
    rng = np.random.default_rng(7)
    T = 0.7
    for _ in range(50):
        v0 = rng.standard_normal(8)
        phi_T = rng.standard_normal(8)
        grid = np.linspace(0.0, T, 33)
        qvals = rng.standard_normal(32)
        sigs = piecewise_constant(grid, qvals)
        u = state_1d(spec, 1, coeffs=v0)
        vT = evolve_windows(u, sigs)
        phi0 = phi_T * np.exp(rates * T)  # the adjoint state at 0
        # int q phi_x(t,0) dt, exact per piecewise-constant sample
        w = math.sqrt(2.0 / math.pi) * np.arange(1, 9) * math.pi / math.pi
        integral = 0.0
        for i in range(32):
            t0, t1 = grid[i], grid[i + 1]
            # int_{t0}^{t1} e^{lam (T - t)} dt, exactly
            piece = (np.exp(rates * (T - t0)) - np.exp(rates * (T - t1))) / rates
            integral += qvals[i] * float(w @ (phi_T * piece))
        lhs = float(vT.coeffs @ phi_T) - float(v0 @ phi0) + integral
        scale = max(1.0, abs(float(vT.coeffs @ phi_T)), abs(float(v0 @ phi0)), abs(integral))
        assert abs(lhs) / scale < 1e-8


def test_duality_pointwise_1d_random():
    # <v(T), phi_T> - <v0, phi(0)> - int h(t) phi(t, x0) dt = 0
    spec = spec_1d(mu=1.0, K_x=8)
    rates = spec.x_rates(1)
    rng = np.random.default_rng(11)
    T, x0 = 0.6, 0.9
    w = math.sqrt(2.0 / math.pi) * np.sin(np.arange(1, 9) * x0)
    for _ in range(50):
        v0 = rng.standard_normal(8)
        phi_T = rng.standard_normal(8)
        grid = np.linspace(0.0, T, 17)
        hvals = rng.standard_normal(16)
        sigs = piecewise_constant(grid, hvals, x0=x0)
        u = state_1d(spec, 1, coeffs=v0)
        vT = evolve_windows(u, sigs)
        phi0 = phi_T * np.exp(rates * T)  # the adjoint state at 0
        integral = 0.0
        for i in range(16):
            t0, t1 = grid[i], grid[i + 1]
            piece = (np.exp(rates * (T - t0)) - np.exp(rates * (T - t1))) / rates
            integral += hvals[i] * float(w @ (phi_T * piece))
        lhs = float(vT.coeffs @ phi_T) - float(v0 @ phi0) - integral
        scale = max(1.0, abs(integral))
        assert abs(lhs) / scale < 1e-8


def test_duality_boundary_nd_random():
    # cylinder version with a y-expanded control supported on omega = Omega_y
    spec = spec_2d(K_x=5, J_y=4)
    rng = np.random.default_rng(13)
    T = 0.4
    rates = spec.rate_matrix()
    mass = np.eye(4)
    wx = math.sqrt(2.0 / math.pi) * np.arange(1, 6) * math.pi / math.pi
    for _ in range(20):
        v0 = rng.standard_normal((5, 4))
        phi_T = rng.standard_normal((5, 4))
        grid = np.linspace(0.0, T, 9)
        qrows = rng.standard_normal((8, 4))
        sigs = piecewise_constant(grid, qrows, mass=mass)
        u = state_nd(spec, v0)
        vT = evolve_windows(u, sigs)
        phi0 = phi_T * np.exp(rates * T)
        integral = 0.0
        for i in range(8):
            t0, t1 = grid[i], grid[i + 1]
            piece = (np.exp(rates * (T - t0)) - np.exp(rates * (T - t1))) / rates
            # int_omega q(t,y) d phi/dx(t,0,y) dy = sum_j q_j(t) B_j(t)
            B = wx @ (phi_T * piece)  # (J,)
            integral += float(qrows[i] @ B)
        lhs = float(np.sum(vT.coeffs * phi_T)) - float(np.sum(v0 * phi0)) + integral
        assert abs(lhs) / max(1.0, abs(integral)) < 1e-8


# ---------------------------------------------------------------------------
# dissipation
# ---------------------------------------------------------------------------

def test_dissipation_bound_random_states():
    # states supported above J decay at least at the e^{lambda_{J+1}^y dt} rate
    spec = spec_2d(nu="6.5", K_x=6, J_y=8)
    from kscontrol.spectrum import K0_index

    K0 = K0_index(spec)
    J = max(K0, 4)
    rng = np.random.default_rng(5)
    lam_y = spec.y_shift(J + 1)
    for _ in range(25):
        c = np.zeros((6, 8))
        c[:, J:] = rng.standard_normal((6, 8 - J))
        u = state_nd(spec, c)
        dt = 0.05
        v = free(u, dt)
        assert v.norm <= math.exp(lam_y * dt) * u.norm * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Parseval
# ---------------------------------------------------------------------------

def test_parseval_consistency_physical_norm():
    spec = spec_2d(K_x=5, J_y=5)
    rng = np.random.default_rng(2)
    u = state_nd(spec, rng.standard_normal((5, 5)))
    # u on a 64 x 64 midpoint grid of (0, pi)^2, from the orthonormal sine rows
    nodes = (np.arange(64) + 0.5) * math.pi / 64
    S = math.sqrt(2.0 / math.pi) * np.sin(np.outer(np.arange(1, 6), nodes))
    vals = S.T @ u.coeffs @ S
    quad_norm = math.sqrt(float(np.sum(vals**2)) * (math.pi / 64) ** 2)
    assert quad_norm == pytest.approx(u.norm, rel=1e-8)


# ---------------------------------------------------------------------------
# nonlinear term
# ---------------------------------------------------------------------------

def test_nonlinear_rhs_zero():
    spec = spec_2d(K_x=4, J_y=4)
    u = state_nd(spec)
    assert np.allclose(nonlinear_rhs(u), 0.0)


def test_nonlinear_rhs_single_mode_vs_oversampled_quadrature():
    spec = spec_2d(K_x=4, J_y=4)
    c = np.zeros((4, 4))
    c[0, 0] = 0.7
    u = state_nd(spec, c)
    got = nonlinear_rhs(u)
    # oracle: heavily oversampled Gauss-Legendre quadrature of -1/2 |grad u|^2
    # against the basis (spectrally exact for these smooth integrands)
    nodes, wts = np.polynomial.legendre.leggauss(80)
    xs = 0.5 * math.pi * (nodes + 1.0)
    w1 = 0.5 * math.pi * wts
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    W = np.outer(w1, w1)
    s = math.sqrt(2.0 / math.pi)
    ux = 0.7 * s * np.cos(X) * s * np.sin(Y)
    uy = 0.7 * s * np.sin(X) * s * np.cos(Y)
    f = -0.5 * (ux**2 + uy**2)
    oracle = np.zeros((4, 4))
    for k in range(1, 5):
        for j in range(1, 5):
            basis = s * np.sin(k * X) * s * np.sin(j * Y)
            oracle[k - 1, j - 1] = float(np.sum(f * basis * W))
    assert np.allclose(got, oracle, atol=1e-8)


def test_nonlinear_rhs_quadratic_homogeneity():
    spec = spec_2d(K_x=4, J_y=4)
    rng = np.random.default_rng(9)
    c = rng.standard_normal((4, 4)) * 0.1
    u1 = state_nd(spec, c)
    u2 = state_nd(spec, 2.0 * c)
    f1 = nonlinear_rhs(u1)
    f2 = nonlinear_rhs(u2)
    assert np.allclose(f2, 4.0 * f1, rtol=1e-10, atol=1e-14)


def test_nonlinear_rhs_3d_single_mode():
    spec = SpectrumSpec(a="pi", nu=0, cross_section=Box(["pi", "pi"]), K_x=3, J_y=4)
    c = np.zeros((3, 4))
    c[0, 0] = 0.5  # tuple (1,1)
    u = state_nd(spec, c)
    got = nonlinear_rhs(u)
    # quadratic homogeneity as a cheap structural check in 3-D
    u2 = state_nd(spec, 2 * c)
    assert np.allclose(nonlinear_rhs(u2), 4 * got, rtol=1e-10)
    assert np.all(np.isfinite(got))


@pytest.mark.parametrize("dims", [["pi"], ["pi", "pi/2"]], ids=["one-axis", "two-axis"])
def test_nonlinear_rhs_cached_operator_matches_fresh_spec(dims):
    # the operator is built once per spec; repeated calls on one spec must
    # equal the first call on a new spec bit for bit
    def make():
        return SpectrumSpec(a="pi", nu=0, cross_section=Box(dims), K_x=5, J_y=6)

    spec = make()
    rng = np.random.default_rng(12)
    for _ in range(3):
        c = 0.1 * rng.standard_normal((5, 6))
        got = nonlinear_rhs(state_nd(spec, c))
        fresh = nonlinear_rhs(state_nd(make(), c))
        assert np.array_equal(got, fresh)


def _rhs_by_matmul(op, U):
    """The quadratic term with `@`: two products per gradient component and
    two for the projection, -1/2 applied to the squared gradient first."""
    proj_x = -2.0 * op.neg_half_proj_x
    ux = op.x_cos_T @ (U @ op.y_sine)
    grad_sq = ux * ux
    for Pd in op.y_derivs:
        uyi = op.x_sin_T @ (U @ Pd)
        grad_sq = grad_sq + uyi * uyi
    return proj_x @ (-0.5 * grad_sq) @ op.proj_y_T


@pytest.mark.parametrize("box, K_x, J_y", [(["pi"], 16, 16), (["pi/2"], 16, 16),
                                           (["pi", "pi"], 16, 8)],
                         ids=["pi-pi", "pi-half-pi", "3d-pi-pi"])
def test_rhs_operator_has_the_bits_of_the_matmul_formula(box, K_x, J_y):
    # the kernel's in-place squares and folded -1/2 are exact rewrites: equal
    # bits on inputs from 1e-8 to 1e3 (the folded -1/2 is not exact on
    # subnormal products, so the scales stay well above them)
    spec = SpectrumSpec(a="pi", nu=0, cross_section=Box(box), K_x=K_x, J_y=J_y)
    op = rhs_operator(spec)
    rng = np.random.default_rng(28)
    inputs = [np.zeros((K_x, J_y))] + [
        10.0 ** rng.uniform(-8.0, 3.0) * rng.standard_normal((K_x, J_y)) for _ in range(200)
    ]
    for U in inputs:
        assert np.array_equal(op(U), _rhs_by_matmul(op, U))


def test_rhs_operator_is_read_only_and_leaves_its_input_alone():
    spec = SpectrumSpec(a="pi", nu=0, cross_section=Box(["pi", "pi/2"]), K_x=5, J_y=6)
    op = rhs_operator(spec)
    for arr in (op.x_cos_T, op.x_sin_T, op.y_sine, *op.y_derivs, op.neg_half_proj_x,
                op.proj_y_T):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
    U = np.random.default_rng(5).standard_normal((5, 6))
    before = U.copy()
    op(U)
    assert np.array_equal(U, before)
    assert U.flags.writeable


def test_rate_matrix_read_only_and_equal_to_fresh_build():
    spec = SpectrumSpec(a="pi", nu="3/2", cross_section=Box(["pi", "pi/2"]), K_x=5, J_y=7)
    rates = spec.rate_matrix()
    assert spec.rate_matrix() is rates
    with pytest.raises(ValueError):
        rates[0, 0] = 1.0
    fresh = SpectrumSpec(a="pi", nu="3/2", cross_section=Box(["pi", "pi/2"]), K_x=5, J_y=7)
    assert np.array_equal(rates, fresh.rate_matrix())
    # reference: one column per cross-section mode, Lambda = -s^2 + nu s, s = kappa_k + mu_j
    kap = (np.arange(1, 6, dtype=float) * math.pi / spec.a_float) ** 2
    ref = np.empty((5, 7))
    for jj in range(7):
        s = kap + float(spec.mus[jj])
        ref[:, jj] = -s * s + spec.nu_float * s
    assert np.array_equal(rates, ref)


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

def test_source_duhamel_single_mode_closed_form():
    # constant source on one mode: u(T) = e^{lam T} u0 + c (e^{lam T}-1)/lam
    spec = spec_1d(K_x=2, mu=1.0)
    lam = spec.x_rates(1, 2)
    src = ModalSource(times=np.array([0.0, 1.0]), values=np.array([[0.3, 0.0], [0.3, 0.0]]))
    u = state_1d(spec, 1, coeffs=np.array([0.1, 0.2]))
    v = evolve_controlled(u, None, (0.0, 1.0), source=src)
    expect0 = math.exp(lam[0]) * 0.1 + 0.3 * (math.exp(lam[0]) - 1.0) / lam[0]
    expect1 = math.exp(lam[1]) * 0.2
    assert v.coeffs[0] == pytest.approx(expect0, rel=1e-12)
    assert v.coeffs[1] == pytest.approx(expect1, rel=1e-12)


def test_source_linear_ramp_vs_quadrature():
    spec = spec_1d(K_x=1, mu=1.0)
    lam = float(spec.x_rates(1, 1)[0])
    src = ModalSource(times=np.array([0.0, 0.5, 1.0]), values=np.array([[0.0], [1.0], [0.5]]))
    u = state_1d(spec, 1, coeffs=np.array([0.0]))
    v = evolve_controlled(u, None, (0.0, 1.0), source=src)

    def f(s):
        return np.interp(s, [0.0, 0.5, 1.0], [0.0, 1.0, 0.5])

    val, _ = quad(lambda s: math.exp(lam * (1.0 - s)) * f(s), 0.0, 1.0, limit=200)
    assert v.coeffs[0] == pytest.approx(val, rel=1e-10)


def test_controlled_evolution_refuses_critical_parameter():
    from kscontrol.boundary_1d import verify_null
    from kscontrol.errors import CriticalParameter

    crit = SpectrumSpec(a="pi", nu=7, cross_section=Box(["pi"]), K_x=8, J_y=4)
    u = state_1d(crit, 1, coeffs=np.ones(8))
    (sigp,) = piecewise_constant(np.array([0.0, 0.5]), np.array([1.0]), x0=1.0)
    with pytest.raises(CriticalParameter):
        verify_null(u.coeffs, sigp, 0.5, crit, 1)
    # free flow at a critical parameter stays available (counterexample needs it)
    free(u, 0.1)


# ---------------------------------------------------------------------------
# ControlSignal.value_at: one basis per call, the per-time arithmetic kept
# ---------------------------------------------------------------------------

def _value_at_per_time(sig, t):
    """The per-time loop value_at replaced: one segment.value call per time."""
    out = None
    for i, ti in enumerate(t):
        v = sig.segment.value(ti)
        if out is None:
            out = np.zeros((len(t),) + np.shape(v))
        out[i] = v
    return out


_ENDS = (0.0, 0.3, 0.7, 1.0)


def _exp_seg(rng, t0, t1, rows):
    b = rng.uniform(-40.0, 10.0, 5)
    refs = np.where(b > 0, t1, t0)  # growing terms referenced to the window end
    shape = (5, rows) if rows else (5,)
    return ExpSegment(t0=t0, t1=t1, exponents=b, refs=refs, coeffs=rng.standard_normal(shape))


def _leg_seg(rng, t0, t1, rows):
    shape = (7, rows) if rows else (7,)
    return LegendreSegment(t0=t0, t1=t1, coeffs=rng.standard_normal(shape))


@pytest.mark.parametrize("rows", [0, 3], ids=["scalar", "rows"])
@pytest.mark.parametrize("make", ["exp", "legendre"])
def test_value_at_matches_per_time_loop_bitwise(rows, make):
    rng = np.random.default_rng(11)
    build = {"exp": _exp_seg, "legendre": _leg_seg}[make]
    sigs = [ControlSignal(build(rng, t0, t1, rows)) for t0, t1 in zip(_ENDS[:-1], _ENDS[1:])]
    # a uniform grid, plus times on the window ends and within 1e-12 of them
    near = [e + d for e in _ENDS for d in (0.0, -9e-13, -1e-13, 1e-13, 9e-13)]
    grid = np.concatenate([np.linspace(0.0, 1.0, 257), [x for x in near if 0 <= x <= 1]])
    for sig in sigs:
        t = grid[(sig.t_start - 1e-12 <= grid) & (grid <= sig.t_end + 1e-12)]
        got = sig.value_at(t)
        ref = _value_at_per_time(sig, t)
        assert got.shape == ref.shape == (len(t),) + ((rows,) if rows else ())
        assert got.tobytes() == ref.tobytes()
    assert np.array_equal(sigs[0].value_at(0.3), sigs[0].segment.value(0.3))


def test_value_at_refuses_times_outside_the_segments():
    sig = ControlSignal(_leg_seg(np.random.default_rng(0), 0.0, 1.0, 0))
    with pytest.raises(ValueError, match="outside analytic segments"):
        sig.value_at(np.array([0.5, 1.0 + 2e-12]))

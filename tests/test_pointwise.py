import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from kscontrol.boundary_1d import synthesize_boundary_control
from kscontrol.errors import BelowMinimalTime, NoWitnessFound, RationalPoint
from kscontrol.modal import evolve_pointwise_controlled, state_1d
from kscontrol.pointwise import (
    DEFAULT_K_MAX,
    DEFAULT_MARGIN,
    MAX_ALGEBRAIC_DEGREE,
    MAX_LIOUVILLE_DEPTH,
    PointSpec,
    minimal_time_estimate,
    negative_certificate,
    synthesize_point_control,
)
from kscontrol.spectrum import MAX_K_MAX, Box, SpectrumSpec


def spec_box_pi(nu=0, K_x=16):
    return SpectrumSpec(a="pi", nu=nu, cross_section=Box(["pi"]), K_x=K_x, J_y=4)


SQRT2_MINUS_1 = PointSpec.algebraic([1, 2, -1], root_index=0)


@pytest.fixture(scope="module")
def est_sqrt2():
    return minimal_time_estimate(SQRT2_MINUS_1, math.pi, k_max=DEFAULT_K_MAX)


@pytest.fixture(scope="module")
def est_liouville():
    return minimal_time_estimate(PointSpec.liouville(), math.pi, k_max=DEFAULT_K_MAX)


# ---------------------------------------------------------------------------
# minimal time estimation
# ---------------------------------------------------------------------------

def test_algebraic_point_value():
    with mp.workdps(60):
        z = SQRT2_MINUS_1.value()
        assert float(z) == pytest.approx(math.sqrt(2) - 1, abs=1e-15)


def test_tiny_algebraic_root_is_positive():
    # roots of 10^40 z^2 + z - 1 lie near +1e-20 and -1e-20, closer than any
    # float-distance tolerance, so the root in (0, 1) is chosen by its mp value
    with mp.workdps(60):
        z = PointSpec.algebraic([10**40, 1, -1]).value()
        assert z > 0
        assert float(z) == pytest.approx(1e-20, rel=1e-12)


def test_rational_point_rejected():
    with pytest.raises(RationalPoint):
        minimal_time_estimate(PointSpec.rational(1, 2), math.pi)


def test_exact_resonance_detected():
    # a real input that is rational: sin vanishes exactly at k = 2
    with pytest.raises(RationalPoint):
        minimal_time_estimate(PointSpec.real("0.5"), math.pi, k_max=10)


@pytest.mark.parametrize("text,q", [("0.1", 10), ("0.7", 10), ("0.123", 1000), ("0.5", 2)])
def test_decimal_real_raises_at_its_denominator(text, q):
    # a decimal is the reduced fraction it spells: the scan raises at k = q,
    # not where accumulated rounding happens to land on an integer
    with pytest.raises(RationalPoint, match=rf"at k={q}$"):
        minimal_time_estimate(PointSpec.real(text), math.pi, k_max=DEFAULT_K_MAX)
    if q > 2:
        rep = minimal_time_estimate(PointSpec.real(text), math.pi, k_max=q - 1)
        assert rep.x0_over_a == float(text)


def test_point_and_scan_sizes_are_bounded():
    # one past each bound is refused before any work, the bound itself is not
    with pytest.raises(ValueError, match="depth"):
        PointSpec.liouville("classic10", depth=MAX_LIOUVILLE_DEPTH + 1)
    with pytest.raises(ValueError, match="degree"):
        PointSpec.algebraic([1] * (MAX_ALGEBRAIC_DEGREE + 1) + [-1])
    with pytest.raises(ValueError, match="k_max"):
        minimal_time_estimate(SQRT2_MINUS_1, math.pi, k_max=MAX_K_MAX + 1)
    PointSpec.liouville("classic10", depth=MAX_LIOUVILLE_DEPTH)
    PointSpec.algebraic([1] * MAX_ALGEBRAIC_DEGREE + [-1])


def test_sqrt2_tail_estimate_small(est_sqrt2):
    # tail running max collapses for algebraic points (limsup-oriented value)
    assert est_sqrt2.T0_tail <= 1e-3
    assert not est_sqrt2.still_growing


def test_sqrt2_scan_oracle_small_k(est_sqrt2):
    # oracle: direct double-precision evaluation for the first few k
    z = math.sqrt(2) - 1
    for k in (1, 2, 3, 7):
        expect = -math.log(abs(math.sin(k * math.pi * z))) / k**4
        assert est_sqrt2.s[k - 1] == pytest.approx(expect, rel=1e-9)


def test_sqrt2_full_gate_modest(est_sqrt2):
    # running max over the whole range is attained at tiny k and stays small
    assert est_sqrt2.T0_hat < 0.05
    assert est_sqrt2.T0_argmax <= 5


def test_classic_liouville_spikes_at_convergents():
    # oracle: exact continued-fraction convergent denominators of the
    # (rational) depth-6 truncation, computed with Fraction arithmetic
    z = sum(Fraction(1, 10 ** math.factorial(n)) for n in range(1, 7))
    x = z - int(z)
    quotients = []
    for _ in range(10):
        x = 1 / x
        a = int(x)
        quotients.append(a)
        if x == a:
            break
        x = x - a
    dens = []
    q_prev, q = 0, 1
    for a in quotients:
        q_prev, q = q, a * q + q_prev
        dens.append(q)
    convergent_dens = [d for d in dens if 1 < d <= 1200]
    assert 9 in convergent_dens and 100 in convergent_dens  # sanity of the oracle

    rep = minimal_time_estimate(
        PointSpec.liouville("classic10", depth=6), math.pi, k_max=1200
    )
    # every convergent denominator in range is located as a spike
    for d in convergent_dens:
        assert d in rep.spikes
    # the deep resonance sits at the denominator 100 (|sin| ~ 3e-4)
    assert rep.neg_log_sin[99] >= 8.0
    # but the quartic normalization crushes them: no minimal time visible
    assert rep.T0_hat == pytest.approx(rep.s[0], rel=1e-12)  # k=1 dominates
    assert max(rep.s[9], rep.s[99]) < 1e-3


def test_quartic_liouville_minimal_time(est_liouville):
    # depth-6 truncation of 1/3 + sum 10^(-36 n!): deep resonance at k=3
    assert est_liouville.T0_argmax == 3
    assert est_liouville.T0_hat >= 0.5
    assert est_liouville.T0_hat == pytest.approx(
        (36 * math.log(10) - math.log(3 * math.pi)) / 81, rel=1e-6
    )


def test_real_point_that_spells_no_fraction_refused():
    # mpmath alone would read these as 0.5; the scan could not read them
    for text in ("1 / 2", "0.5L"):
        with pytest.raises(ValueError), mp.workdps(80):
            PointSpec.real(text).value()


def test_scan_running_max_monotone(est_sqrt2):
    assert np.all(np.diff(est_sqrt2.running_max) >= 0)


def _accumulating_scan(z, k_max):
    """Reference scan: k z accumulated in mp at working precision, one k at a time."""
    out = np.empty(k_max)
    kz = mp.mpf(0)
    for k in range(1, k_max + 1):
        kz += z
        fr = kz - mp.floor(kz)
        d = fr if fr <= mp.mpf("0.5") else 1 - fr
        if d > mp.mpf("1e-8"):
            out[k - 1] = -math.log(math.sin(math.pi * float(d)))
        else:
            out[k - 1] = -float(mp.log(mp.pi * d))
    return out


ORACLE_POINTS = [
    SQRT2_MINUS_1,
    PointSpec.algebraic([1, 0, -3, 1], root_index=0),
    PointSpec.liouville("quartic_anchor3", depth=6),
    PointSpec.liouville("classic10", depth=6),
    PointSpec.real("0.4142135623730950488016887242096980785696718753"),
    PointSpec.real("0.1000001"),  # distance 1e-6 at k = 10, just on the double-sine side
]


@pytest.mark.parametrize("point", ORACLE_POINTS, ids=PointSpec.label)
def test_exact_scan_matches_accumulating_oracle(point):
    k_max = 2000
    rep = minimal_time_estimate(point, math.pi, k_max=k_max)
    with mp.workdps(point.dps + 20):
        expect = _accumulating_scan(point.value(), k_max)
        z = point.value()
        x = (Fraction(point.data[0]) if point.kind == "real"
             else Fraction(*mp.libmp.to_rational(z._mpf_)))
    assert np.array_equal(rep.neg_log_sin.view(np.int64), expect.view(np.int64))
    # the distance to the nearest integer is exact: frac(k x) in Fraction
    for k in range(1, 51):
        fr = k * x - math.floor(k * x)
        d = min(fr, 1 - fr)
        if d > Fraction(1, 10**8):
            assert rep.neg_log_sin[k - 1] == -math.log(math.sin(math.pi * float(d)))
        else:
            with mp.workprec(200):
                ref = -mp.log(mp.pi * mp.mpf(d.numerator) / d.denominator)
            assert rep.neg_log_sin[k - 1] == pytest.approx(float(ref), rel=1e-15)


def test_sqrt2_scan_at_hundred_thousand(est_sqrt2):
    rep = minimal_time_estimate(SQRT2_MINUS_1, math.pi, k_max=100_000)
    assert rep.T0_hat == est_sqrt2.T0_hat
    assert rep.T0_argmax == est_sqrt2.T0_argmax
    assert not rep.still_growing


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_zero_data_zero_control(est_sqrt2):
    spec = spec_box_pi()
    control, rep = synthesize_point_control(
        np.zeros(16), 1.0, SQRT2_MINUS_1, spec, 1, K_trunc=8, estimate=est_sqrt2
    )
    assert rep.control_norm == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("T", [0.1, 1.0])
def test_null_control_algebraic_point(est_sqrt2, T):
    spec = spec_box_pi()
    u0 = np.zeros(16)
    u0[0] = 1.0
    u0[1] = 1.0
    control, rep = synthesize_point_control(
        u0, T, SQRT2_MINUS_1, spec, 1, K_trunc=8, estimate=est_sqrt2
    )
    assert rep.moment_residual_max <= 1e-8
    state = state_1d(spec, 1, coeffs=u0)
    end = evolve_pointwise_controlled(state, control, (0.0, T))
    assert np.linalg.norm(end.coeffs[:8]) / np.linalg.norm(u0) <= 1e-6


def test_point_targets_and_gate_on_the_synthesis_report(est_sqrt2):
    # a = pi, nu = 0, slice j = 1 (mu_1 = 1): lambda_k = -k^4 - 2 k^2
    spec = spec_box_pi()
    u0 = np.linspace(1.0, -0.5, 16)
    T = 0.1
    _, rep = synthesize_point_control(
        u0, T, SQRT2_MINUS_1, spec, 1, K_trunc=8, estimate=est_sqrt2
    )
    k = np.arange(1, 9)
    gain = math.sqrt(2.0 / math.pi) * np.sin(k * math.pi * (math.sqrt(2.0) - 1.0))
    expect = -np.exp((-(k**4) - 2.0 * k**2) * T) * u0[:8] / gain
    np.testing.assert_allclose(rep.targets, expect, rtol=1e-12, atol=0)
    assert rep.T0_hat == est_sqrt2.T0_hat
    assert rep.threshold == (1.0 + DEFAULT_MARGIN) * est_sqrt2.T0_hat
    _, boundary = synthesize_boundary_control(u0, T, spec, 1, K_trunc=8)
    assert boundary.T0_hat is None and boundary.threshold is None


def test_cost_grows_as_T_shrinks(est_sqrt2):
    spec = spec_box_pi()
    u0 = np.zeros(16)
    u0[0] = 1.0
    u0[1] = 1.0
    norms = {}
    for T in (0.1, 1.0):
        _, rep = synthesize_point_control(
            u0, T, SQRT2_MINUS_1, spec, 1, K_trunc=8, estimate=est_sqrt2
        )
        norms[T] = rep.control_norm
    assert norms[0.1] > norms[1.0]


def test_below_minimal_time_refused(est_liouville):
    spec = spec_box_pi()
    u0 = np.zeros(16)
    u0[0] = 1.0
    with pytest.raises(BelowMinimalTime):
        synthesize_point_control(
            u0, est_liouville.T0_hat, PointSpec.liouville(), spec, 1,
            K_trunc=8, estimate=est_liouville,
        )


def test_rational_point_synthesis_refused():
    spec = spec_box_pi()
    with pytest.raises(RationalPoint):
        synthesize_point_control(np.ones(8), 1.0, PointSpec.rational(1, 3), spec, 1)


# ---------------------------------------------------------------------------
# negative certificate
# ---------------------------------------------------------------------------

def test_blowup_witness_liouville(est_liouville):
    spec = spec_box_pi()
    T = est_liouville.T0_hat / 2
    w = negative_certificate(PointSpec.liouville(), spec, 1, T, estimate=est_liouville)
    assert 3 in w.k
    i = list(w.k).index(3)
    assert w.log10_ratio[i] >= 10.0
    assert w.ratio_cap[i] >= 1e10


def test_no_witness_for_algebraic(est_sqrt2):
    spec = spec_box_pi()
    with pytest.raises(NoWitnessFound):
        negative_certificate(SQRT2_MINUS_1, spec, 1, T=0.2, estimate=est_sqrt2)


def test_witness_ratio_monotone_along_spikes(est_liouville):
    # the log-ratio decreases in k within the witness set (deepest resonance
    # first); along the resonant subsequence itself the blow-up grows as T
    # drops, checked by comparing two horizons
    spec = spec_box_pi()
    w1 = negative_certificate(
        PointSpec.liouville(), spec, 1, est_liouville.T0_hat / 2, estimate=est_liouville
    )
    w2 = negative_certificate(
        PointSpec.liouville(), spec, 1, est_liouville.T0_hat / 4, estimate=est_liouville
    )
    i1 = list(w1.k).index(3)
    i2 = list(w2.k).index(3)
    assert w2.log10_ratio[i2] > w1.log10_ratio[i1]

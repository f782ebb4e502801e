import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscontrol.errors import (
    DuplicateRate,
    IndexOutOfRange,
    ThresholdBeyondTruncation,
)
from kscontrol.exact import parse_length, parse_rational
from kscontrol.spectrum import (
    Box,
    External,
    SpectrumSpec,
    bound_check,
    c0_shift,
    counting_function,
    critical_set_check,
    gap_check,
    K0_index,
    n0_index,
    weyl_fit,
    y_eigenvalues_box,
)


def spec_pi_box(nu, K_x=8, J_y=8, dims=("pi",)):
    return SpectrumSpec(a="pi", nu=nu, cross_section=Box(dims), K_x=K_x, J_y=J_y)


# ---------------------------------------------------------------------------
# exact parsing
# ---------------------------------------------------------------------------

def test_parse_length_pi_literals():
    assert float(parse_length("pi")) == pytest.approx(math.pi)
    assert float(parse_length("pi/2")) == pytest.approx(math.pi / 2)
    assert float(parse_length("3*pi")) == pytest.approx(3 * math.pi)
    assert float(parse_length("3/4")) == pytest.approx(0.75)
    assert parse_rational("7/1") == Fraction(7)
    assert parse_rational("6.5") == Fraction(13, 2)


# ---------------------------------------------------------------------------
# x eigenvalues
# ---------------------------------------------------------------------------

def test_x_eigenvalue_direct_substitution():
    # (k=1, a=pi, nu=0, mu_1 = 0 via External override... External needs mu>0,
    # so use the formula with an explicit tiny workaround: mu enters linearly)
    spec = SpectrumSpec(a="pi", nu=0, cross_section=External([1.0]), K_x=4, J_y=1)
    # lambda_k = -k^4 + (nu - 2 mu) k^2; with mu=1, nu=0: -1 - 2 = -3
    assert spec.x_eigenvalue(1, 1) == pytest.approx(-3.0)
    # reconstruct the mu=0 case from linearity in mu: lambda(mu=0) = lambda(mu) + 2 mu k^2
    lam_mu0 = spec.x_eigenvalue(1, 1) + 2.0 * 1.0 * 1.0
    assert lam_mu0 == pytest.approx(-1.0)


def test_x_eigenvalue_k2_nu5_mu1():
    spec = SpectrumSpec(a="pi", nu=5, cross_section=External([1.0]), K_x=4, J_y=1)
    assert spec.x_eigenvalue(2, 1) == pytest.approx(-16.0 + 3.0 * 4.0)


def test_x_eigenvalue_a1_mu_pi_squared():
    spec = SpectrumSpec(a=1, nu=0, cross_section=External([math.pi**2]), K_x=4, J_y=1)
    assert spec.x_eigenvalue(3, 1) == pytest.approx(-99.0 * math.pi**4, rel=1e-13)


def test_x_eigenvalue_index_out_of_range():
    spec = SpectrumSpec(a="pi", nu=0, cross_section=External([1.0]), K_x=4, J_y=1)
    with pytest.raises(IndexOutOfRange):
        spec.x_eigenvalue(1, 2)


def test_mode_rate_tensor_identity():
    # total rate equals -(kappa+mu)^2 + nu (kappa+mu) to 1e-12 relative
    spec = spec_pi_box(nu="6.5", K_x=12, J_y=12)
    for k in (1, 3, 7, 12):
        for j in (1, 2, 5, 12):
            r = spec.mode_rate(k, j)
            s = spec.kappa(k) + spec.mu(j)
            expect = -s * s + spec.nu_float * s
            assert r.total == pytest.approx(expect, rel=1e-12)
            assert r.lambda_x == spec.x_eigenvalue(k, j)


def test_monotone_tail_beyond_k_star():
    # d/dk of the 1-D rate is negative once k^2 > (nu - 2 mu_j) a^2 / (2 pi^2)
    spec = SpectrumSpec(a="pi", nu=40, cross_section=External([1.0]), K_x=24, J_y=1)
    c = (spec.nu_float - 2.0 * spec.mu(1)) * spec.a_float**2 / (2.0 * math.pi**2)
    ks = int(math.floor(math.sqrt(c))) + 1 if c > 0 else 1
    lam = [spec.x_eigenvalue(k, 1) for k in range(1, 25)]
    for k in range(ks, 24):
        assert lam[k] < lam[k - 1]


# ---------------------------------------------------------------------------
# box eigenvalues
# ---------------------------------------------------------------------------

def test_box_1d_spectrum():
    mus, tuples = y_eigenvalues_box(["pi"], 3)
    assert mus == pytest.approx([1.0, 4.0, 9.0])
    assert tuples == [(1,), (2,), (3,)]


def test_box_2d_spectrum_enumeration_oracle():
    # oracle: enumerate m1^2 + m2^2 for m_i <= 3 and sort
    oracle = sorted(m1**2 + m2**2 for m1 in range(1, 4) for m2 in range(1, 4))[:4]
    mus, _ = y_eigenvalues_box(["pi", "pi"], 4)
    assert mus == pytest.approx(oracle)
    assert mus == pytest.approx([2.0, 5.0, 5.0, 8.0])


def test_box_unit_interval_scaling():
    mus, _ = y_eigenvalues_box([1], 2)
    assert mus == pytest.approx([math.pi**2, 4 * math.pi**2])


# ---------------------------------------------------------------------------
# critical set
# ---------------------------------------------------------------------------

def test_critical_exact_pair():
    spec = spec_pi_box(nu=7)
    v = critical_set_check(spec)
    assert v.kind == "critical"
    assert (v.j, v.k, v.l) == (1, 1, 2)


def test_clear_at_6_5():
    spec = spec_pi_box(nu="6.5")
    assert critical_set_check(spec).kind == "clear"


def test_clear_at_zero():
    spec = spec_pi_box(nu=0)
    assert critical_set_check(spec).kind == "clear"


def test_near_verdict_float_nu():
    spec = SpectrumSpec(a="pi", nu=7.0 + 1e-12, cross_section=Box(["pi"]), K_x=8, J_y=8)
    v = critical_set_check(spec)
    assert v.kind == "near"
    assert v.distance < 1e-9


def test_critical_iff_rate_collision():
    # criticality <=> two x-eigenvalues collide for that j
    spec = spec_pi_box(nu=7)
    v = critical_set_check(spec)
    lam_k = spec.x_eigenvalue(v.k, v.j)
    lam_l = spec.x_eigenvalue(v.l, v.j)
    assert lam_k == pytest.approx(lam_l, rel=1e-14)
    # and the common value is k0^2 l0^2 pi^4 / a^4 = 4
    assert lam_k == pytest.approx(4.0)


def test_exhaustive_scan_oracle():
    # oracle: brute-force critical values below nu + 1 for a=pi, mu_j = j^2
    nu = 30.0
    vals = set()
    for j in range(1, 10):
        for k in range(1, 10):
            for l in range(1, 10):
                if k != l:
                    vals.add(2 * j**2 + k**2 + l**2)
    spec = spec_pi_box(nu=nu, J_y=16)
    verdict = critical_set_check(spec)
    assert (verdict.kind == "critical") == (nu in vals)


# Box sides as (scale, pi power): "pi/2" is (1/2, 1), "3/2" is (3/2, 0).
_ORACLE_SIDES = {"pi": (Fraction(1), 1), "pi/2": (Fraction(1, 2), 1), 1: (Fraction(1), 0),
                 "3/2": (Fraction(3, 2), 0)}
_NU_MAX = 40
_NU_GRID = [Fraction(n) for n in range(_NU_MAX + 1)] + [
    Fraction(13, 2), Fraction(29, 3), Fraction(77, 4), Fraction(71, 2)]


def _oracle_mu(dims, tup):
    """Exact (m pi / b)^2 sums as (rational part, pi^2 part)."""
    rat, pi2 = Fraction(0), Fraction(0)
    for m, b in zip(tup, dims):
        scale, pi_power = _ORACLE_SIDES[b]
        if pi_power:
            rat += Fraction(m * m) / scale**2
        else:
            pi2 += Fraction(m * m) / scale**2
    return rat, pi2


def _oracle_critical_values(dims):
    """Rational critical values 2 mu + (k^2 + l^2) <= _NU_MAX for a = pi, by brute force."""
    out = set()
    for tup in itertools.product(range(1, 10), repeat=len(dims)):
        rat, pi2 = _oracle_mu(dims, tup)
        if pi2 != 0:
            continue
        for k in range(1, 10):
            for l in range(k + 1, 10):
                val = 2 * rat + k * k + l * l
                if val <= _NU_MAX:
                    out.add(val)
    return out


@pytest.mark.parametrize(
    "dims,J_y",
    [(("pi", "pi"), 12), (("pi", "pi/2"), 8), (("pi", "pi", "pi"), 24), ((1, "3/2"), 4)],
    ids=["pi,pi", "pi,pi/2", "pi,pi,pi", "1,3/2"],
)
def test_critical_set_on_boxes_matches_exact_oracle(dims, J_y):
    # a = pi, so the x-part pi^2 (k^2 + l^2) / a^2 is the integer k^2 + l^2
    critical = _oracle_critical_values(dims)
    if dims == ("pi", "pi"):
        assert 9 in critical  # 2*2 + 1 + 4 at (1, 1, 2)
    if dims == ("pi", "pi/2"):
        assert 15 in critical  # 2*5 + 1 + 4 at (1, 1, 2)
    for nu in _NU_GRID:
        spec = SpectrumSpec(a="pi", nu=f"{nu.numerator}/{nu.denominator}",
                            cross_section=Box(dims), K_x=4, J_y=J_y)
        # the truncation holds every slice that can reach nu
        assert 2.0 * spec.mus[-1] + 5.0 > _NU_MAX
        v = critical_set_check(spec)
        assert v.kind == ("critical" if nu in critical else "clear"), float(nu)
        if v.kind == "critical":
            rat, pi2 = _oracle_mu(dims, spec.mu_tuples[v.j - 1])
            assert pi2 == 0 and 2 * rat + v.k**2 + v.l**2 == nu


@pytest.mark.parametrize(
    "dims,nu_twin",
    [((math.pi, "pi"), 9), (("pi", math.pi / 2), 15), (("pi", "pi", math.pi), 11)],
    ids=["float-pi,pi", "pi,float-pi/2", "pi,pi,float-pi"],
)
def test_critical_set_float_side_never_critical(dims, nu_twin):
    # an inexact side falls back to the tolerance: the exact twin's collision is Near
    for nu in _NU_GRID:
        spec = SpectrumSpec(a="pi", nu=f"{nu.numerator}/{nu.denominator}",
                            cross_section=Box(dims), K_x=4, J_y=12)
        v = critical_set_check(spec)
        assert v.kind != "critical", float(nu)
        if nu == nu_twin:
            assert v.kind == "near"
            assert (v.j, v.k, v.l) == (1, 1, 2)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_thresholds_nu0():
    spec = SpectrumSpec(a="pi", nu=0, cross_section=External([1, 4, 9]), K_x=4, J_y=3)
    assert n0_index(spec) == 1
    assert K0_index(spec) == 1


def test_thresholds_nu5():
    spec = SpectrumSpec(a="pi", nu=5, cross_section=External([1, 4, 9]), K_x=4, J_y=3)
    assert n0_index(spec) == 2
    assert K0_index(spec) == 3


def test_thresholds_beyond_truncation():
    spec = SpectrumSpec(a="pi", nu=100, cross_section=External([1, 4, 9]), K_x=4, J_y=3)
    with pytest.raises(ThresholdBeyondTruncation):
        n0_index(spec)
    with pytest.raises(ThresholdBeyondTruncation):
        K0_index(spec)


# ---------------------------------------------------------------------------
# counting function
# ---------------------------------------------------------------------------

def test_counting_simple():
    assert counting_function([1, 16, 81], 16) == 2
    assert counting_function([1, 16, 81], 0.5) == 0


def test_counting_k4_plus_2k2_oracle():
    # oracle: enumerate k with k^4 + 2 k^2 <= 1e4
    rates = [k**4 + 2 * k**2 for k in range(1, 40)]
    n_oracle = sum(1 for r in rates if r <= 1e4)
    assert counting_function(rates, 1e4) == n_oracle
    assert n_oracle <= 10
    assert n_oracle < (math.pi / math.pi) * (1e4) ** 0.25


@given(st.floats(min_value=0.1, max_value=1e6))
@settings(max_examples=50, deadline=None)
def test_counting_nondecreasing(r):
    rates = [k**4 for k in range(1, 12)]
    n1 = counting_function(rates, r)
    n2 = counting_function(rates, r * 1.5)
    assert n2 >= n1


def test_counting_counts_exact_boundary():
    # right-continuity on the grid: the rate itself is counted
    rates = [k**4 for k in range(1, 6)]
    assert counting_function(rates, 16.0) == 2


def test_bound_check_stable_regime():
    spec = spec_pi_box(nu=0, K_x=24, J_y=4)
    rep = bound_check(spec, j=1)
    assert rep["stable_regime"]
    assert rep["violations"] == []
    assert rep["smallest_C"] <= rep["a_over_pi"] + 1e-12


# ---------------------------------------------------------------------------
# gaps
# ---------------------------------------------------------------------------

def test_gap_pure_quartic():
    rates = [k**4 for k in range(1, 7)]
    rho, linear = gap_check(rates)
    assert rho == pytest.approx(15.0)
    assert linear == pytest.approx(15.0)


def test_gap_duplicate_on_critical_pair():
    spec = spec_pi_box(nu=7)
    lam = -spec.x_rates(1, 4)
    with pytest.raises(DuplicateRate):
        gap_check(lam)


def test_gap_a1_mu_pi2():
    spec = SpectrumSpec(a=1, nu=0, cross_section=External([math.pi**2]), K_x=6, J_y=1)
    rho, linear = gap_check(-spec.x_rates(1, 6))
    assert rho > 0
    assert linear > 0


def test_c0_shift():
    assert c0_shift(np.array([-4.0, -1.0])) == 0.0
    assert c0_shift(np.array([3.5, -9.0])) == pytest.approx(4.5)
    assert c0_shift(np.array([0.0, -2.0])) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Weyl fit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims,expected", [(("pi",), 2.0), (("pi", "pi"), 1.0)])
def test_weyl_slope_box(dims, expected):
    spec = SpectrumSpec(a="pi", nu=0, cross_section=Box(dims), K_x=2, J_y=220)
    rep = weyl_fit(spec)
    assert abs(rep["slope"] - expected) < 0.15


# ---------------------------------------------------------------------------
# external file loading
# ---------------------------------------------------------------------------

def test_external_file(tmp_path):
    p = tmp_path / "mu.txt"
    p.write_text("# comment\n1.0\n2.5 # inline\n7.25\n")
    from kscontrol.spectrum import load_external_eigenvalues

    ext = load_external_eigenvalues(p)
    assert ext.mus == (1.0, 2.5, 7.25)


def test_external_rejects_decreasing():
    with pytest.raises(ValueError):
        External([2.0, 1.0])
    with pytest.raises(ValueError):
        External([-1.0, 2.0])

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
    assert spec.x_rates(1)[0] == pytest.approx(-3.0)
    # reconstruct the mu=0 case from linearity in mu: lambda(mu=0) = lambda(mu) + 2 mu k^2
    lam_mu0 = spec.x_rates(1)[0] + 2.0 * 1.0 * 1.0
    assert lam_mu0 == pytest.approx(-1.0)


def test_x_eigenvalue_k2_nu5_mu1():
    spec = SpectrumSpec(a="pi", nu=5, cross_section=External([1.0]), K_x=4, J_y=1)
    assert spec.x_rates(1)[1] == pytest.approx(-16.0 + 3.0 * 4.0)


def test_x_eigenvalue_a1_mu_pi_squared():
    spec = SpectrumSpec(a=1, nu=0, cross_section=External([math.pi**2]), K_x=4, J_y=1)
    assert spec.x_rates(1)[2] == pytest.approx(-99.0 * math.pi**4, rel=1e-13)


def test_x_eigenvalue_index_out_of_range():
    spec = SpectrumSpec(a="pi", nu=0, cross_section=External([1.0]), K_x=4, J_y=1)
    with pytest.raises(IndexOutOfRange):
        spec.x_rates(2)


def _kappa(spec, k):
    """Scalar oracle of the x-Laplacian eigenvalue (k pi / a)^2, squared as
    one rounded product (a float's ``** 2`` goes through libm's pow, which
    is off by one ulp at k = 2207 on a = 1)."""
    q = k * math.pi / spec.a_float
    return q * q


def _x_rate(spec, k, j):
    """Scalar oracle of the 1-D rate -kappa^2 + (nu - 2 mu_j) kappa."""
    kap = _kappa(spec, k)
    return -kap * kap + (spec.nu_float - 2.0 * spec.mu(j)) * kap


def test_mode_rate_tensor_identity():
    # the one mode rate, rate_matrix()[k-1, j-1], is -(kappa+mu)^2 + nu (kappa+mu)
    # and the 1-D rate plus the zeroth-order shift, each to a few ulps
    spec = spec_pi_box(nu="6.5", K_x=12, J_y=12)
    rates = spec.rate_matrix()
    for k in (1, 3, 7, 12):
        for j in (1, 2, 5, 12):
            s = _kappa(spec, k) + spec.mu(j)
            assert spec.laplacian()[k - 1, j - 1] == s
            ulp = math.ulp(abs(rates[k - 1, j - 1]))
            assert abs(rates[k - 1, j - 1] - (-s * s + spec.nu_float * s)) <= 4 * ulp
            assert abs(rates[k - 1, j - 1] - (spec.x_rates(j)[k - 1] + spec.y_shift(j))) <= 4 * ulp
            assert spec.x_rates(j)[k - 1] == _x_rate(spec, k, j)


def test_x_rates_match_the_scalar_oracle_bitwise_to_k_1e4():
    # modes.csv's lambda_x and the witness rates read x_rates: every k <= 1e4
    # keeps the bits of the scalar formula on slices of three spectra
    for a, nu, dims in (("pi", "6.5", ("pi",)), (1, 0, ("pi/2",)), ("2*pi", 40, ("pi", 2))):
        spec = SpectrumSpec(a=a, nu=nu, cross_section=Box(dims), K_x=4, J_y=3)
        for j in (1, 2, 3):
            rates = spec.x_rates(j, 10_000).tolist()
            assert rates == [_x_rate(spec, k, j) for k in range(1, 10_001)]


def test_monotone_tail_beyond_k_star():
    # d/dk of the 1-D rate is negative once k^2 > (nu - 2 mu_j) a^2 / (2 pi^2)
    spec = SpectrumSpec(a="pi", nu=40, cross_section=External([1.0]), K_x=24, J_y=1)
    c = (spec.nu_float - 2.0 * spec.mu(1)) * spec.a_float**2 / (2.0 * math.pi**2)
    ks = int(math.floor(math.sqrt(c))) + 1 if c > 0 else 1
    lam = spec.x_rates(1, 24)
    for k in range(ks, 24):
        assert lam[k] < lam[k - 1]


# ---------------------------------------------------------------------------
# box eigenvalues
# ---------------------------------------------------------------------------

def test_box_1d_spectrum():
    mus, tuples = Box(["pi"]).eigenpairs(3)
    assert mus == pytest.approx([1.0, 4.0, 9.0])
    assert tuples == [(1,), (2,), (3,)]


def test_box_2d_spectrum_enumeration_oracle():
    # oracle: enumerate m1^2 + m2^2 for m_i <= 3 and sort
    oracle = sorted(m1**2 + m2**2 for m1 in range(1, 4) for m2 in range(1, 4))[:4]
    mus, _ = Box(["pi", "pi"]).eigenpairs(4)
    assert mus == pytest.approx(oracle)
    assert mus == pytest.approx([2.0, 5.0, 5.0, 8.0])


def test_box_unit_interval_scaling():
    mus, _ = Box([1]).eigenpairs(2)
    assert mus == pytest.approx([math.pi**2, 4 * math.pi**2])


def test_tuple_tensor_is_the_outer_product_per_tuple_bit_for_bit():
    spec = SpectrumSpec(a="pi", nu=0, cross_section=Box(["pi", "pi/2", 1.5]), K_x=4, J_y=10)
    rng = np.random.default_rng(5)
    axes = spec.box_axes("test")
    rows = [rng.standard_normal((count, 3 + i)) for i, (_, count) in enumerate(axes)]
    oracle = []
    for tup in spec.mu_tuples:
        row = rows[0][tup[0] - 1]
        for rows_i, m_i in zip(rows[1:], tup[1:]):
            row = np.multiply.outer(row, rows_i[m_i - 1])
        oracle.append(row.ravel())
    assert np.array_equal(spec.tuple_tensor(rows), np.array(oracle))


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
    lam_k, lam_l = spec.x_rates(v.j, v.l)[[v.k - 1, v.l - 1]]
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


# Exact lengths as (literal, scale, pi power).
_EXACT_LENGTHS = [("pi", Fraction(1), 1), ("pi/2", Fraction(1, 2), 1),
                  ("3/2*pi", Fraction(3, 2), 1), ("1", Fraction(1), 0),
                  ("3/2", Fraction(3, 2), 0), ("2", Fraction(2), 0)]


def _pi_over_squared(scale, pi_power):
    """(pi / L)^2 as (rational part, pi^2 part)."""
    return (1 / scale**2, Fraction(0)) if pi_power else (Fraction(0), 1 / scale**2)


def _pair_loop_critical(spec, sides, a, nu):
    """The first (j, k, l) in scan order with 2 mu_j + (pi/a)^2 (k^2 + l^2) = nu
    exactly, by trying every pair of every slice; None when there is none."""
    c_rat, c_pi2 = _pi_over_squared(*a)
    for j, tup in enumerate(spec.mu_tuples, start=1):
        v_rat, v_pi2 = -nu, Fraction(0)
        for m, side in zip(tup, sides):
            r, p = _pi_over_squared(*side)
            v_rat, v_pi2 = v_rat + 2 * m * m * r, v_pi2 + 2 * m * m * p
        # every solution has k^2 + l^2 <= n_max
        n_max = (nu - 2 * spec.mu(j)) * spec.a_float**2 / math.pi**2 + 2
        l_hi = math.isqrt(max(int(n_max), 0)) + 1
        for k in range(1, l_hi + 1):
            for l in range(k + 1, l_hi + 1):
                n = k * k + l * l
                if v_rat + c_rat * n == 0 and v_pi2 + c_pi2 * n == 0:
                    return j, k, l
    return None


def _seeded_exact_inputs(count, seed):
    """(sides, a, nu) with exact lengths from _EXACT_LENGTHS; about half aim nu
    at a critical value 2 mu_j + (pi/a)^2 (k^2 + l^2)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_dims = int(rng.integers(1, 3))
        sides = [_EXACT_LENGTHS[i] for i in rng.integers(0, len(_EXACT_LENGTHS), n_dims)]
        a = _EXACT_LENGTHS[int(rng.integers(0, len(_EXACT_LENGTHS)))]
        spec = SpectrumSpec(a=a[0], nu=0, cross_section=Box([s[0] for s in sides]),
                            K_x=4, J_y=6)
        tup = spec.mu_tuples[int(rng.integers(0, 6))]
        k, l = sorted(rng.choice(np.arange(1, 7), 2, replace=False).tolist())
        c_rat, c_pi2 = _pi_over_squared(a[1], a[2])
        v = [sum(2 * m * m * _pi_over_squared(s[1], s[2])[i] for m, s in zip(tup, sides))
             for i in (0, 1)]
        aim = (v[0] + c_rat * (k * k + l * l), v[1] + c_pi2 * (k * k + l * l))
        if rng.random() < 0.5 and aim[1] == 0:
            yield sides, a, aim[0]
        else:
            yield sides, a, Fraction(int(rng.integers(0, 400)), int(rng.integers(1, 5)))


def test_critical_set_matches_pair_loop_on_seeded_exact_inputs():
    pi, half_pi = _EXACT_LENGTHS[0], _EXACT_LENGTHS[1]
    # n = k^2 + l^2 with two pairs, where the scan order picks the first:
    # 65 = 1 + 64 = 16 + 49 and 85 = 4 + 81 = 36 + 49
    two_pairs = [([pi], pi, Fraction(2 + 65)), ([pi, half_pi], half_pi, Fraction(10 + 4 * 85))]
    hits = {"critical": 0, "rational a": 0, "rational side": 0}
    for sides, a, nu in two_pairs + list(_seeded_exact_inputs(40, seed=19)):
        spec = SpectrumSpec(a=a[0], nu=f"{nu.numerator}/{nu.denominator}",
                            cross_section=Box([s[0] for s in sides]), K_x=4, J_y=6)
        want = _pair_loop_critical(spec, [s[1:] for s in sides], a[1:], nu)
        got = critical_set_check(spec)
        assert (got.kind == "critical") == (want is not None), (sides, a, nu)
        if want is not None:
            assert (got.j, got.k, got.l) == want
        hits["critical"] += want is not None
        hits["rational a"] += a[2] == 0
        hits["rational side"] += any(s[2] == 0 for s in sides)
    assert all(count >= 5 for count in hits.values()), hits


def test_critical_set_at_the_nu_bound_matches_pair_loop():
    # nu = 10^6 on a pi box: 2 mu_j + k^2 + l^2 = 10^6 first at j = 4, by a
    # plain integer pair loop over the slices before it
    spec = spec_pi_box(nu=10**6, K_x=8, J_y=4)
    v = critical_set_check(spec)
    assert (v.kind, v.j, v.k, v.l) == ("critical", 4, 452, 892)
    for j in range(1, 5):
        n = 10**6 - 2 * j * j
        first = next(((k, l) for k in range(1, 708) for l in range(k + 1, 1001)
                      if k * k + l * l == n), None)
        assert (first is None) == (j < 4), j
    assert first == (452, 892)


def _pair_loop_near(spec):
    """The float side of the scan one pair at a time: (kind, j, k, l, distance)
    of the first nearest candidate within tol, slices in order, and how many
    pairs lie at exactly that distance."""
    nu, a2, pi2 = spec.nu_float, spec.a_float**2, math.pi**2
    tol = spec.crit_tol * max(1.0, abs(nu))
    best, ties = ("clear", 0, 0, 0, math.inf), 0
    for j in range(1, len(spec.mus) + 1):
        mu = spec.mu(j)
        rem = nu + tol - 2.0 * mu
        if rem < 5.0 * pi2 / a2:
            break
        k_hi = int(math.floor(math.sqrt(rem * a2 / pi2))) + 1
        for k in range(1, k_hi + 1):
            for l in range(k + 1, k_hi + 1):
                dist = abs(nu - (2.0 * mu + pi2 * (k * k + l * l) / a2))
                if dist <= tol and dist < best[4]:
                    best, ties = ("near", j, k, l, dist), 0
                ties += dist == best[4]
    return best, ties


_FLOAT_LENGTHS = [math.pi, math.pi / 2, 1.0, 1.5, 2.0, 3.0 * math.pi / 2]


def test_critical_set_float_side_matches_pair_loop():
    # float lengths and nu, so only the tolerance decides; nu sits within
    # 10 tol of a candidate, and whole candidates (a = pi on pi boxes) repeat
    # across pairs (65 = 1 + 64 = 16 + 49) and across slices ((1, 2), (2, 1))
    rng = np.random.default_rng(29)
    cases = [(math.pi, [math.pi, math.pi], 4.0 + 65.0 + 1e-13, 1e-9),
             (math.pi, [math.pi, math.pi], 10.0 + 5.0, 1e-9),
             (math.pi, [math.pi], 7.0 - 3e-10, 1e-9)]
    for _ in range(120):
        a = _FLOAT_LENGTHS[int(rng.integers(0, len(_FLOAT_LENGTHS)))]
        sides = [_FLOAT_LENGTHS[i] for i in rng.integers(0, len(_FLOAT_LENGTHS), rng.integers(1, 3))]
        spec = SpectrumSpec(a=a, nu=0.0, cross_section=Box(sides), K_x=4, J_y=6)
        j, k, l = int(rng.integers(1, 7)), *sorted(rng.choice(np.arange(1, 9), 2, replace=False))
        tol = float(10.0 ** rng.integers(-9, -2))
        aim = 2.0 * spec.mu(j) + math.pi**2 * (k * k + l * l) / a**2
        cases.append((a, sides, aim + float(rng.uniform(-10.0, 10.0)) * tol * max(1.0, aim), tol))
    hits = ties = 0
    for a, sides, nu, tol in cases:
        spec = SpectrumSpec(a=a, nu=nu, cross_section=Box(sides), K_x=4, J_y=6, crit_tol=tol)
        want, n_ties = _pair_loop_near(spec)
        v = critical_set_check(spec)
        assert (v.kind, v.j, v.k, v.l, v.distance) == want, (a, sides, nu, tol)
        hits += want[0] == "near"
        ties += n_ties > 1
    assert hits >= 20 and ties >= 3, (hits, ties)


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


def _gap_oracle(rates):
    """O(n^2) oracle: the smallest |L_i - L_m| over all pairs, and over consecutive indices."""
    arr = [float(x) for x in rates]
    rho = min(abs(x - y) for i, x in enumerate(arr) for y in arr[i + 1:])
    return rho, min(abs(y - x) for x, y in zip(arr, arr[1:]))


@pytest.mark.parametrize("seed", range(12))
def test_gap_check_matches_the_pairwise_oracle_bitwise(seed):
    # unsorted families: random reals over many scales, and shuffled 1-D spectra
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    if seed % 2:
        rates = rng.standard_normal(n) * 10.0 ** float(rng.integers(-3, 8))
    else:
        spec = SpectrumSpec(a="pi", nu=float(rng.uniform(0, 30)), cross_section=Box(["pi"]),
                            K_x=n, J_y=4)
        rates = rng.permutation(-spec.x_rates(int(rng.integers(1, 5))))
    assert gap_check(rates) == _gap_oracle(rates)


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

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kscontrol.biorthogonal import (
    EXTENDED_PRECISION_COND,
    FAIL_COND,
    K_BIO_MAX,
    RESIDUAL_TOL,
    build_family,
    cost_fit,
    gram_matrix,
)
from kscontrol.errors import DuplicateRate, IllConditioned


def ks_exponents(K, mu=1.0, nu=0.0, a=math.pi):
    """Positive rate family k^4 pi^4/a^4 + (2 mu - nu) k^2 pi^2/a^2."""
    ks = np.arange(1, K + 1, dtype=float)
    kap = (ks * math.pi / a) ** 2
    return kap**2 + (2 * mu - nu) * kap


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------

def test_gram_single_exponent_long_horizon():
    G = gram_matrix([1.0], T=50.0)
    assert abs(G[0, 0] - 0.5) < 1e-20


def test_gram_closed_form_offdiag():
    G = gram_matrix([1.0, 2.0], T=1.0)
    assert G[0, 1] == pytest.approx((1 - math.exp(-3)) / 3, rel=1e-15)
    assert G[0, 1] == G[1, 0]


def test_gram_spd_and_condition_vs_high_precision():
    lam = [1.0, 16.0, 81.0]
    G = gram_matrix(lam, T=1.0)
    eig = np.linalg.eigvalsh(G)
    assert np.all(eig > 0)
    cond = float(np.linalg.cond(G))
    # oracle: rebuild G and its condition number at 50 digits
    with mp.workdps(50):
        Gm = mp.matrix(3, 3)
        for i in range(3):
            for k in range(3):
                s = lam[i] + lam[k]
                Gm[i, k] = (1 - mp.e ** (-s * 1.0)) / s
        sv = mp.svd_r(Gm, compute_uv=False)
        cond_mp = float(sv[0] / sv[2])
    assert cond == pytest.approx(cond_mp, rel=1e-6)


def test_gram_rejects_duplicates():
    with pytest.raises(DuplicateRate):
        gram_matrix([1.0, 1.0 + 1e-15], T=1.0)


def test_gram_rejects_nonpositive():
    with pytest.raises(ValueError):
        gram_matrix([-1.0, 2.0], T=1.0)


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------

def test_single_exponential_normalization():
    lam, T = 1.5, 0.8
    fam = build_family([lam], T)
    expect = 2 * lam / (1 - math.exp(-2 * lam * T))
    assert fam.coeffs[0, 0] == pytest.approx(expect, rel=1e-14)


def test_residual_quartic_family():
    fam = build_family([1.0, 16.0, 81.0, 256.0], T=1.0)
    assert fam.residual_max <= 1e-10


def test_biorthogonality_against_quadrature_oracle():
    # K <= 4: adaptive quadrature reproduces delta_{k,m} to 1e-8
    lam = np.array([1.0, 16.0, 81.0, 256.0])
    T = 0.7
    fam = build_family(lam, T)
    for k in range(4):
        for m in range(4):
            val, err = quad(
                lambda t: math.exp(-lam[k] * t) * fam.evaluate(m, t), 0.0, T, limit=200
            )
            assert abs(val - (1.0 if k == m else 0.0)) < 1e-8


def test_norm_single_exponent():
    fam = build_family([1.0], T=50.0)
    assert fam.norm(0) == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_norm_against_quadrature():
    lam = [2.0, 9.0]
    T = 1.2
    fam = build_family(lam, T)
    for m in range(2):
        val, _ = quad(lambda t: fam.evaluate(m, t) ** 2, 0.0, T, limit=200)
        assert math.sqrt(val) == pytest.approx(fam.norm(m), abs=1e-8)


def test_norm_invariant_under_reordering():
    lam = np.array([1.0, 16.0, 81.0])
    T = 0.9
    fam = build_family(lam, T)
    perm = [2, 0, 1]
    fam_p = build_family(lam[perm], T)
    for m_new, m_old in enumerate(perm):
        assert fam_p.norm(m_new) == pytest.approx(fam.norm(m_old), rel=1e-10)


def test_norms_grow_with_mode_and_quartic_fit():
    # KS family (a=pi, nu=0, mu=0 limit): rates k^4; log norm vs Lambda^(1/4)
    # slope > 0.  Growth in k holds on the interior of the truncated family;
    # the top two members escape the constraints of (absent) higher neighbors
    # and their norms genuinely dip (confirmed against 60-digit arithmetic).
    lam = np.array([float(k**4) for k in range(1, 11)])
    T = 0.5
    fam = build_family(lam, T)
    norms = np.array([fam.norm(m) for m in range(10)])
    assert np.all(np.diff(norms[:-2]) > 0)
    slope = np.polyfit(lam**0.25, np.log(norms), 1)[0]
    assert slope > 0


def test_minimality_appending_exponent_never_decreases_norms():
    lam = [1.0, 16.0, 81.0]
    T = 0.6
    small = build_family(lam, T)
    big = build_family(lam + [256.0], T)
    for m in range(3):
        assert big.norm(m) >= small.norm(m) - 1e-12


def test_scale_covariance():
    lam = np.array([1.0, 16.0, 81.0])
    T = 0.8
    s = 2.0
    fam = build_family(lam, T)
    fam_s = build_family(s * lam, T / s)
    G = gram_matrix(lam, T)
    G_s = gram_matrix(s * lam, T / s)
    assert np.allclose(G_s, G / s, rtol=1e-14)
    for m in range(3):
        assert fam_s.norm(m) ** 2 == pytest.approx(
            s * fam.norm(m) ** 2, rel=1e-10
        )


@given(st.integers(min_value=2, max_value=8))
@settings(max_examples=20, deadline=None)
def test_residual_bounded_for_quartic_families(K):
    lam = np.array([float(k**4) for k in range(1, K + 1)])
    fam = build_family(lam, T=0.5)
    assert fam.residual_max <= 1e-8


def test_k_bio_max_enforced():
    with pytest.raises(ValueError):
        build_family(np.arange(1.0, 27.0) ** 4, T=1.0)


def test_json_roundtrip():
    fam = build_family([1.0, 16.0], T=1.0)
    d = json.loads(fam.to_json())
    assert np.array_equal(np.asarray(d["coeffs"]), fam.coeffs)
    assert np.array_equal(np.asarray(d["exponents"]), fam.exponents)
    assert d["T"] == fam.horizon
    assert d["residual_max"] == fam.residual_max
    assert d["gram_condition"] == fam.gram_condition


# ---------------------------------------------------------------------------
# cost fit diagnostics
# ---------------------------------------------------------------------------

def test_cost_fit_reports_and_monotonicity():
    lam = np.array([float(k**4) for k in range(1, 9)])
    rep = cost_fit(lam, T_grid=[0.1, 0.2, 0.5, 1.0])
    assert "fit_rms_residual" in rep and np.isfinite(rep["fit_rms_residual"])
    table = rep["table"]
    # for fixed T, ||q_k|| nondecreasing in k beyond k=2 on the interior
    # (the top two members of a truncated family dip; see the growth test)
    for T in (0.1, 0.2, 0.5, 1.0):
        norms = [n for (t, l, n) in table if t == T][:-2]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(norms[1:], norms[2:]))
    # halving T never decreases the max norm
    max_by_T = {T: max(n for (t, l, n) in table if t == T) for T in (0.1, 0.2, 0.5, 1.0)}
    assert max_by_T[0.1] >= max_by_T[0.2] >= max_by_T[0.5] >= max_by_T[1.0]


def test_residual_within_double_precision_scope_K12():
    # the double-precision residual contract is scoped to K <= 12
    lam = np.array([float(k**4) for k in range(1, 13)])
    for T in (0.5, 1.0):
        fam = build_family(lam, T)
        assert fam.residual_max <= 1e-8


# ---------------------------------------------------------------------------
# the extended rung against the mpmath rung it replaced
# ---------------------------------------------------------------------------

def mpmath_family(lam, T):
    """The precision ladder with its former extended rung: a 60-digit mpmath
    Gram built from n^2 exponentials, inverted by mp.matrix LU.  Returns
    (coeffs, residual_max, cond) or raises IllConditioned."""
    lam = np.asarray(lam, dtype=float)
    n = len(lam)
    G = gram_matrix(lam, T)
    cond = float(np.linalg.cond(G))
    d = np.sqrt(np.diag(G))
    Gs = G / d[:, None] / d[None, :]
    C = (np.linalg.solve(Gs, np.eye(n)) / d[:, None] / d[None, :]).T
    dC = np.linalg.solve(Gs, (np.eye(n) - G @ C.T) / d[:, None]) / d[None, :]
    C = C + dC.T
    residual = float(np.max(np.abs(G @ C.T - np.eye(n))))
    if residual > RESIDUAL_TOL or cond > EXTENDED_PRECISION_COND:
        with mp.workdps(60):
            lam_mp = [mp.mpf(x) for x in lam]
            G_mp = mp.matrix(n, n)
            for i in range(n):
                for k in range(n):
                    s = lam_mp[i] + lam_mp[k]
                    G_mp[i, k] = (1 - mp.e ** (-s * mp.mpf(T))) / s
            C_mp = (G_mp**-1).T
            C = np.array([[float(C_mp[i, k]) for k in range(n)] for i in range(n)])
            prod = G_mp * mp.matrix(C.tolist()).T
            residual = max(abs(float(prod[i, k]) - (1.0 if i == k else 0.0))
                           for i in range(n) for k in range(n))
    if cond > FAIL_COND and residual > RESIDUAL_TOL:
        raise IllConditioned(f"Gram condition {cond:.3e}, residual {residual:.3e}")
    return C, residual, cond


def _quartic_families(count, seed=0):
    """Seeded families k^4 - nu k^2 + mu, k = 1..n, all rates positive and distinct."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, K_BIO_MAX + 1))
        nu = float(rng.uniform(0.0, 3.0))
        mu = nu + float(rng.uniform(0.0, 2.0))
        k = np.arange(1, n + 1, dtype=float)
        yield k**4 - nu * k**2 + mu, float(rng.uniform(0.1, 2.0))


def test_extended_rung_reproduces_mpmath_bits():
    # Any inverse accurate far beyond 53 bits rounds to the same doubles, so
    # the decimal rung must give the mpmath rung's coefficients and certified
    # residual bit for bit, and raise exactly where it raised.
    sides = {"double": 0, "extended": 0, "ill": 0}
    for lam, T in _quartic_families(100):
        try:
            C, residual, cond = mpmath_family(lam, T)
        except IllConditioned:
            with pytest.raises(IllConditioned):
                build_family(lam, T)
            sides["ill"] += 1
            continue
        fam = build_family(lam, T)
        assert fam.coeffs.tobytes() == C.tobytes(), (len(lam), T)
        assert fam.residual_max == residual, (len(lam), T)
        # the memory layout too: a transposed copy holds the same values but
        # routes later products through other BLAS paths
        assert fam.coeffs.strides == C.strides
        sides["extended" if cond > EXTENDED_PRECISION_COND else "double"] += 1
    assert sides["double"] >= 10 and sides["extended"] >= 10 and sides["ill"] >= 1, sides


def test_past_fail_cond_raises_on_both_rungs():
    lam, T = np.arange(1.0, K_BIO_MAX + 1) ** 4, 0.1
    assert float(np.linalg.cond(gram_matrix(lam, T))) > FAIL_COND
    with pytest.raises(IllConditioned):
        mpmath_family(lam, T)
    with pytest.raises(IllConditioned):
        build_family(lam, T)

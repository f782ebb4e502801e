"""Eigendata for the fourth-order operator on (0,a) x Omega_y.

All other modules pull their rates from here.  Conventions:

* x-eigenfunctions are L2-orthonormal, ``psi_k(x) = sqrt(2/a) sin(k pi x / a)``,
  and likewise for box cross-sections in y.  (The common sqrt(2) convention is
  orthonormal only on unit intervals; duality identities in the tests close
  exactly because of this choice.)
* ``spec.x_rates(j)``, entry k - 1, is ``-k^4 pi^4/a^4 + (nu - 2 mu_j) k^2 pi^2/a^2``:
  the rate of the 1-D problem whose second-order coefficient is shifted by the
  j-th cross-section eigenvalue.
* ``spec.laplacian()``, entry (k - 1, j - 1), is ``kappa_k + mu_j`` with
  ``kappa_k = k^2 pi^2 / a^2``: the Dirichlet Laplacian's eigenvalue of mode
  (k, j), which the nonlinear term's dual norm divides by.
* ``spec.rate_matrix()``, entry (k - 1, j - 1), is
  ``-(kappa_k+mu_j)^2 + nu (kappa_k+mu_j)``, computed from ``laplacian()``: the
  full cylinder rate of mode (k, j), the 1-D rate plus the zeroth-order shift
  ``-(mu_j^2 - nu mu_j)`` in exact arithmetic.  It is the one float rate of a
  cylinder mode: every evolution and synthesis on the cylinder reads it.

The critical set is ``{2 mu_j + pi^2 (k^2+l^2)/a^2 : k != l}``; membership is
decided exactly in Q + Q*pi^2 whenever the inputs allow it, otherwise within
``crit_tol``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DuplicateRate,
    IndexOutOfRange,
    ThresholdBeyondTruncation,
)
from .exact import ExactLength, ExactScalar, parse_length, parse_rational

DEFAULT_K_X = 32
DEFAULT_J_Y = 64
#: largest K_x or J_y a config may ask for (the largest in tests and demos is 256)
MAX_MODES = 4096
#: largest K_x * J_y: a spectrum run writes one modes.csv row per (k, j) mode
#: (the largest in tests, demos and the benchmark is 16 x 128)
MAX_MODE_COUNT = 2**20
#: largest index cube `Box.eigenpairs` enumerates; (pi, 2 pi, pi/3) at J_y = 30 needs 5.9e6
MAX_BOX_TUPLES = 10**7
#: largest k_max, sim_steps and simulate trace rows (n_samples K_x J_y, or n_samples K_x on a
#: slice); the largest in tests, demos and the benchmark are 10**5, 1000 and 65 x 64
MAX_K_MAX = 2**20
MAX_SIM_STEPS = 10**5
MAX_TRACE_ROWS = 2**24
#: largest nu a^2 / pi^2: `critical_set_check` scans of that order of (k, l) pairs per slice
#: it visits (0.5 s at nu = 1e6 on a pi box, J_y = 4); the largest in tests, demos and the
#: benchmark is 9
MAX_NU_SCALE = 10**6
#: largest |rate| and T |rate| a config may ask for: a run's products of rates and times
#: stay floats
MAX_RATE = 1e300
DEFAULT_CRIT_TOL = 1e-9
#: two rates closer than this times the family's largest coincide
DUPLICATE_REL_TOL = 1e-12
#: points of the log grid of r on which `bound_check` counts N(r)
BOUND_GRID_POINTS = 48


# ---------------------------------------------------------------------------
# cross sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Rectangular cross-section with Dirichlet Laplacian spectrum.

    ``dims`` are side lengths as given (length literals or numbers);
    ``lengths`` are their floats and ``exact`` their exact forms (None for an
    inexact side).  Eigenvalues are sums (m_i pi / b_i)^2 over integer
    tuples m_i >= 1, enumerated with multiplicity by `eigenpairs`.
    """

    dims: tuple = ()
    lengths: tuple = field(init=False, repr=False, compare=False, default=())
    exact: tuple = field(init=False, repr=False, compare=False, default=())

    def __init__(self, dims: Sequence):
        object.__setattr__(self, "dims", tuple(dims))
        if not self.dims:
            raise ValueError("Box needs at least one dimension")
        exact = tuple(parse_length(b) for b in self.dims)
        lengths = tuple(_finite(e if e is not None else b, "box side")
                        for e, b in zip(exact, self.dims))
        if any(b <= 0 for b in lengths):
            raise ValueError("box dimensions must be positive")
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "lengths", lengths)

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    def eigenpairs(self, count: int):
        """First ``count`` Dirichlet eigenvalues, with their index tuples.

        Returns ``(mus, tuples)`` sorted ascending, ties kept with
        multiplicity and broken by the index tuple for determinism.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        bvals = self.lengths
        # Any tuple with some m_i > cap has mu > (cap*pi/max_b)^2 >= the count-th
        # value along the shortest axis, so the cap below is exhaustive.  The
        # clamp keeps an astronomical side ratio finite for the size check.
        cap = max(2, math.ceil(min(count * max(bvals) / min(bvals), MAX_BOX_TUPLES)) + 1)
        if cap ** len(bvals) > MAX_BOX_TUPLES:
            raise ValueError(f"box {list(self.dims)} needs more than {MAX_BOX_TUPLES:.0e} index "
                             f"tuples for {count} eigenvalues; use closer sides or a smaller J_y")
        cube = itertools.product(range(1, cap + 1), repeat=len(bvals))
        keyed = ((sum((m * math.pi / b) ** 2 for m, b in zip(tup, bvals)), tup) for tup in cube)
        kept = heapq.nsmallest(count, keyed)
        return [mu for mu, _ in kept], [tup for _, tup in kept]


@dataclass(frozen=True)
class External:
    """User-supplied cross-section eigenvalues, ascending, positive and finite;
    no eigenfunctions, so no index tuples."""

    mus: tuple = ()
    n_dims = 1  # with no geometry, counted as a 1-D cross-section

    def __init__(self, mus: Sequence[float]):
        vals = tuple(_finite(m, "cross-section eigenvalue") for m in mus)
        if not vals:
            raise ValueError("External needs at least one eigenvalue")
        if vals[0] <= 0:
            raise ValueError("cross-section eigenvalues must be positive")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("cross-section eigenvalues must be nondecreasing")
        object.__setattr__(self, "mus", vals)

    def eigenpairs(self, count: int):
        """The first ``count`` eigenvalues and no index tuples: ``(mus, None)``."""
        if len(self.mus) < count:
            raise ValueError(f"External list has {len(self.mus)} eigenvalues, "
                             f"J_y={count} requested")
        return self.mus[:count], None


def _finite(value, what: str) -> float:
    """``float(value)``; ValueError naming ``what`` unless it is finite."""
    try:
        if math.isfinite(out := float(value)):
            return out
    except OverflowError:
        pass
    raise ValueError(f"{what} {value!r} is not a finite number")


def load_external_eigenvalues(path) -> External:
    """Read one positive decimal per line; ``#`` starts a comment."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [raw.split("#", 1)[0].strip() for raw in fh]
    return External([float(line) for line in lines if line])


# ---------------------------------------------------------------------------
# the spectrum specification
# ---------------------------------------------------------------------------

@dataclass
class SpectrumSpec:
    """Domain geometry, damping parameter, and truncation orders.

    Owns all eigendata: cross-section eigenvalues (floats, with their index
    tuples ``mu_tuples`` on boxes), the x-truncation ``K_x`` and y-truncation
    ``J_y``, and the critical-set proximity tolerance.  Only a `Box` knows
    its eigenfunctions; other modules read them through `box_axes` (the
    gate), `tuple_tensor` and `tuple_products`, never the tuples or sides.

    A spec is not mutated after construction.  It carries its own cache of
    objects derived from it alone (the rate matrix, the critical verdict,
    the quadratic-term operator, the per-slice moment solvers; see
    `cached`), so they are built once per spec and live as long as it does.
    Build a new spec to change any field.
    """

    a: object
    nu: object
    cross_section: object
    K_x: int = DEFAULT_K_X
    J_y: int = DEFAULT_J_Y
    crit_tol: float = DEFAULT_CRIT_TOL

    a_float: float = field(init=False)
    nu_float: float = field(init=False)
    mus: np.ndarray = field(init=False)
    mu_tuples: Optional[list] = field(init=False, default=None)

    _a_exact: Optional[ExactLength] = field(init=False, default=None)
    _nu_exact: Optional[Fraction] = field(init=False, default=None)
    _derived: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.K_x < 1 or self.J_y < 1:
            raise ValueError("truncation orders must be >= 1")
        if self.K_x * self.J_y > MAX_MODE_COUNT:
            raise ValueError(f"K_x * J_y = {self.K_x * self.J_y} exceeds "
                             f"{MAX_MODE_COUNT} modes (spectrum.MAX_MODE_COUNT)")
        if self.crit_tol <= 0:
            raise ValueError("crit_tol must be positive")
        self._a_exact = parse_length(self.a)
        self.a_float = float(self._a_exact) if self._a_exact is not None else float(self.a)
        if self.a_float <= 0:
            raise ValueError("a must be positive")
        if isinstance(self.nu, float):
            self.nu_float = self.nu
            self._nu_exact = None
        else:
            self._nu_exact = parse_rational(self.nu)
            self.nu_float = float(self._nu_exact)

        if not isinstance(self.cross_section, (Box, External)):
            raise TypeError("cross_section must be Box or External")
        mus, self.mu_tuples = self.cross_section.eigenpairs(self.J_y)
        self.mus = np.asarray(mus)

    def cached(self, key, build):
        """``build()``, computed on the first call with ``key`` and kept by this spec.

        ``build`` must depend on this spec and ``key`` alone, and callers
        must not mutate what it returns.  A ``build`` that raises stores
        nothing, so the next call raises again.
        """
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    # -- basic geometry -----------------------------------------------------

    @property
    def n_cross_dims(self) -> int:
        """Dimension of Omega_y (N - 1)."""
        return self.cross_section.n_dims

    # -- eigenfunctions (Box cross-sections only) -------------------------------

    def box_axes(self, what: str) -> list:
        """(side length, highest sine index of a retained mode) per box axis.

        The one gate of what needs eigenfunctions (omega regions and the
        nonlinear term): ValueError "``what`` needs a Box cross-section" on
        any other cross-section.
        """
        if not isinstance(self.cross_section, Box):
            raise ValueError(f"{what} needs a Box cross-section")
        return list(zip(self.cross_section.lengths, np.max(self.mu_tuples, axis=0).tolist()))

    def tuple_tensor(self, axis_rows) -> np.ndarray:
        """(J_y, prod n_i) matrix: row j is the outer product over box axes
        of ``axis_rows[i][m_i - 1]`` (n_i entries), where (m_1, m_2, ...) is
        the index tuple of mode j.  Box cross-sections only."""
        index = np.asarray(self.mu_tuples) - 1
        out = np.ones((self.J_y, 1))
        for rows, idx in zip(axis_rows, index.T):
            out = (out[:, :, None] * np.asarray(rows)[idx][:, None, :]).reshape(self.J_y, -1)
        return out

    def tuple_products(self, tables, rows: int) -> np.ndarray:
        """(rows, J_y) matrix: entry (l, j) is the product over box axes, in
        axis order, of ``tables[i][m_i - 1, m'_i - 1]``, where m and m' are
        the index tuples of modes l and j.  Box cross-sections only."""
        index = np.asarray(self.mu_tuples) - 1
        out = 1.0
        for table, idx in zip(tables, index.T):
            out = out * np.asarray(table)[np.ix_(idx[:rows], idx)]
        return out

    def mu(self, j: int) -> float:
        """j-th cross-section eigenvalue, 1-based."""
        if j < 1 or j > len(self.mus):
            raise IndexOutOfRange(f"j={j} outside eigenvalue list of length {len(self.mus)}")
        return float(self.mus[j - 1])

    # -- rates ----------------------------------------------------------------

    def y_shift(self, j: int) -> float:
        """Zeroth-order rate -(mu_j^2 - nu mu_j) of the j-th slice."""
        mu = self.mu(j)
        return -(mu * mu - self.nu_float * mu)

    def x_rates(self, j: int, count: Optional[int] = None) -> np.ndarray:
        """Vector of 1-D rates -k^4 pi^4/a^4 + (nu - 2 mu_j) k^2 pi^2/a^2 for
        slice j (no zeroth-order shift), k = 1..count (default K_x)."""
        n = count if count is not None else self.K_x
        ks = np.arange(1, n + 1, dtype=float)
        kap = (ks * math.pi / self.a_float) ** 2
        return -kap * kap + (self.nu_float - 2.0 * self.mu(j)) * kap

    def laplacian(self) -> np.ndarray:
        """(K_x, J_y) matrix of kappa_k + mu_j, kappa_k = (k pi / a)^2: the
        Dirichlet Laplacian's eigenvalue of mode (k, j), read-only."""
        return self.cached("laplacian", self._build_laplacian)

    def _build_laplacian(self) -> np.ndarray:
        ks = np.arange(1, self.K_x + 1, dtype=float)
        kap = (ks * math.pi / self.a_float) ** 2
        s = kap[:, None] + self.mus[None, :]
        s.flags.writeable = False
        return s

    def rate_matrix(self) -> np.ndarray:
        """(K_x, J_y) matrix of tensor rates Lambda_{k,j}, read-only."""
        return self.cached("rate_matrix", self._build_rate_matrix)

    def _build_rate_matrix(self) -> np.ndarray:
        s = self.laplacian()
        total = -s * s + self.nu_float * s
        total.flags.writeable = False
        return total


# ---------------------------------------------------------------------------
# critical set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalVerdict:
    """Outcome of the critical-set scan.

    ``kind`` is one of ``clear``, ``critical``, ``near``.  For the latter two,
    (j, k, l) identify the colliding candidate and ``distance`` the float gap
    |nu - (2 mu_j + pi^2 (k^2+l^2)/a^2)|.
    """

    kind: str
    j: int = 0
    k: int = 0
    l: int = 0
    distance: float = math.inf

    @property
    def is_clear(self) -> bool:
        return self.kind == "clear"

    @property
    def blocks_synthesis(self) -> bool:
        return self.kind in ("critical", "near")


def critical_set_check(spec: SpectrumSpec, search_bound: Optional[int] = None) -> CriticalVerdict:
    """Exhaustive scan of critical values <= nu + tol.

    Exact (rational) inputs give an exact Critical/Clear decision; floats are
    classified Near when within ``crit_tol`` (relative to max(1, |nu|)).
    The exact mu_j of a box is built from its index tuple, only for the
    slices the scan visits, and the exact decision is made once per slice
    (`_exact_pair`).
    """
    nu = spec.nu_float
    tol = spec.crit_tol * max(1.0, abs(nu))
    a2 = spec.a_float**2
    pi2 = math.pi**2
    box_dims = spec.cross_section.exact if isinstance(spec.cross_section, Box) else (None,)
    exact_ok = (spec._nu_exact is not None and spec._a_exact is not None
                and all(b is not None for b in box_dims))

    best = CriticalVerdict("clear")
    j_cap = search_bound if search_bound is not None else spec.J_y
    j_cap = min(j_cap, len(spec.mus))
    # smallest x-part is pi^2 (1+4)/a^2, so only small j can produce candidates
    for j in range(1, j_cap + 1):
        mu = spec.mu(j)
        rem = nu + tol - 2.0 * mu
        if rem < 5.0 * pi2 / a2:
            # mus are nondecreasing: no larger j can contribute either
            break
        k_hi = int(math.floor(math.sqrt(rem * a2 / pi2))) + 1
        if exact_ok:
            mu_exact = ExactScalar()
            for m, b in zip(spec.mu_tuples[j - 1], box_dims):
                mu_exact = mu_exact + b.pi_over_length_squared().scale(Fraction(m * m))
            two_mu_minus_nu = mu_exact.scale(Fraction(2)) - ExactScalar.rational(spec._nu_exact)
            pair = _exact_pair(two_mu_minus_nu, spec._a_exact.pi_over_length_squared(), k_hi)
            if pair is not None:
                return CriticalVerdict("critical", j, *pair, 0.0)
        # every pair k < l in scan order (k outer), 0-based; the first nearest
        # pair within tol, and only a strictly nearer one in a later slice
        ks, ls = np.triu_indices(k_hi, 1)
        dist = np.abs(nu - (2.0 * mu + pi2 * ((ks + 1) ** 2 + (ls + 1) ** 2) / a2))
        i = int(np.argmin(dist))
        if dist[i] <= tol and dist[i] < best.distance:
            best = CriticalVerdict("near", j, int(ks[i]) + 1, int(ls[i]) + 1, float(dist[i]))
    return best


def _exact_pair(v: ExactScalar, c: ExactScalar, k_hi: int) -> Optional[tuple]:
    """The first (k, l), 1 <= k < l <= k_hi in scan order, with v + c (k^2 + l^2) = 0.

    c = (pi/a)^2 has exactly one nonzero part, so the other part of v must
    vanish and n = -v/c must be an integer; then k^2 + l^2 = n is solved by
    taking integer square roots, smallest k first.
    """
    if c.rat:
        other, n = v.pi2, -v.rat / c.rat
    else:
        other, n = v.rat, -v.pi2 / c.pi2
    if other or n.denominator != 1:
        return None
    n = n.numerator
    k = 1
    while 2 * k * k < n:
        l = math.isqrt(n - k * k)
        if l * l == n - k * k and l <= k_hi:
            return k, l
        k += 1
    return None


def require_clear(spec: SpectrumSpec):
    """Raise CriticalParameter unless the verdict is Clear.

    The verdict at the default search bound is computed once per spec.
    """
    from .errors import CriticalParameter

    verdict = spec.cached("critical_verdict", lambda: critical_set_check(spec))
    if verdict.blocks_synthesis:
        raise CriticalParameter(
            f"nu={spec.nu_float} is {verdict.kind} at (j={verdict.j}, k={verdict.k}, "
            f"l={verdict.l}), distance {verdict.distance:.3e}"
        )
    return verdict


# ---------------------------------------------------------------------------
# index thresholds
# ---------------------------------------------------------------------------

def n0_index(spec: SpectrumSpec) -> int:
    """min{j : 2 mu_j - nu > 0}."""
    for j in range(1, len(spec.mus) + 1):
        if 2.0 * spec.mu(j) - spec.nu_float > 0:
            return j
    raise ThresholdBeyondTruncation(
        f"no j <= {len(spec.mus)} with 2 mu_j > nu = {spec.nu_float}"
    )


def K0_index(spec: SpectrumSpec) -> int:
    """min{j : mu_j > nu}, a cross-section index j (the lowest cutoff of the
    frequency-splitting schedule lies above it)."""
    for j in range(1, len(spec.mus) + 1):
        if spec.mu(j) > spec.nu_float:
            return j
    raise ThresholdBeyondTruncation(
        f"no j <= {len(spec.mus)} with mu_j > nu = {spec.nu_float}"
    )


def c0_shift(rates: np.ndarray) -> float:
    """Positivity shift for a truncated family of decay rates.

    Returns ``max(0, max(rates)) + 1`` so that ``c0 - rate > 0`` for every
    listed rate; zero when the family is already uniformly stable.
    """
    m = float(np.max(rates))
    if m < 0.0:
        return 0.0
    return max(0.0, m) + 1.0


# ---------------------------------------------------------------------------
# counting function and gaps
# ---------------------------------------------------------------------------

def counting_function(rates: Sequence[float], r: float) -> int:
    """N(r) = #{Lambda in the family : Lambda <= r} for positive rates."""
    arr = np.asarray(rates, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("counting_function expects positive rates (apply the c0 shift first)")
    return int(np.count_nonzero(arr <= r))


def bound_check(spec: SpectrumSpec, j: int):
    """Check N(r) < (a/pi) r^(1/4) on a log grid of r and fit the constant.

    Returns a dict with the grid, counts, the smallest admissible constant
    ``C = max N(r)/r^(1/4)``, and any grid violation of the (a/pi) bound in
    the regime where the family is uniformly stable (j >= n0).
    """
    lam = -spec.x_rates(j)
    shift = c0_shift(-lam)
    rates = lam + shift
    r_lo = max(float(rates.min()) * 0.5, 1e-6)
    r_hi = float(rates.max()) * 2.0
    grid = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), BOUND_GRID_POINTS))
    counts = np.array([counting_function(rates, r) for r in grid])
    ratio = counts / grid**0.25
    a_over_pi = spec.a_float / math.pi
    try:
        stable_regime = j >= n0_index(spec)
    except ThresholdBeyondTruncation:
        stable_regime = False
    violations = []
    if stable_regime and shift == 0.0:
        bad = np.nonzero(counts >= a_over_pi * grid**0.25)[0]
        violations = [float(grid[i]) for i in bad]
    return {
        "r_grid": grid,
        "counts": counts,
        "smallest_C": float(ratio.max()),
        "a_over_pi": a_over_pi,
        "stable_regime": bool(stable_regime),
        "c0": shift,
        "violations": violations,
    }


def gap_check(rates: Sequence[float]):
    """Minimal pairwise gap of a rate family, plus the linear-gap constant.

    Returns ``(rho_hat, linear_gap)`` where ``linear_gap`` is the minimum of
    |Lambda_{k+1} - Lambda_k| over consecutive indices (the slope constant of
    the |Lambda_k - Lambda_l| >= rho |k - l| hypothesis).  Raises
    DuplicateRate when two rates coincide within DUPLICATE_REL_TOL relative:
    the parameter is then effectively critical.  The one duplicate-rate test
    (`biorthogonal.gram_matrix` calls it too).  Sorted, the closest pair is
    adjacent, and rounding is monotone, so ``rho_hat`` is the pairwise
    minimum bit for bit.
    """
    arr = np.asarray(rates, dtype=float)
    if len(arr) < 2:
        return math.inf, math.inf
    scale = float(np.max(np.abs(arr))) or 1.0
    order = np.argsort(arr)
    gaps = np.diff(arr[order])
    i = int(np.argmin(gaps))
    if gaps[i] <= DUPLICATE_REL_TOL * scale:
        lo, hi = sorted((int(order[i]), int(order[i + 1])))
        raise DuplicateRate(
            f"rates {lo + 1} and {hi + 1} coincide ({arr[lo]:.6e} vs {arr[hi]:.6e})"
        )
    linear = float(np.min(np.abs(np.diff(arr))))
    return float(gaps[i]), linear


def weyl_fit(spec: SpectrumSpec):
    """Least-squares slope of log mu_j vs log j over the upper half range.

    For box cross-sections the slope approaches 2/(N-1).
    """
    J = len(spec.mus)
    lo = max(1, J // 2)
    js = np.arange(lo, J + 1, dtype=float)
    mus = spec.mus[lo - 1 : J]
    slope, intercept, _ = line_fit(np.log(js), np.log(mus))
    return {"slope": float(slope), "intercept": float(intercept), "expected": 2.0 / spec.n_cross_dims}


def line_fit(xs, ys):
    """Least-squares line ys ~ slope xs + intercept on A = [xs, 1]:
    ``(slope, intercept, rms residual)``.  The one fit of the cost and
    decay diagnostics."""
    A = np.vstack([xs, np.ones_like(xs)]).T
    y = np.asarray(ys, dtype=float)
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(sol[0]), float(sol[1]), float(np.sqrt(np.mean((A @ sol - y) ** 2)))

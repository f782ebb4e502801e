"""Local null control of the nonlinear equation by the source-term method.

The quadratic term enters as a source: with F(u) the modal projection of
-1/2 |grad u|^2, the controlled-linear-with-source solver steers
u' = Lambda u + control + f to rest, and the Picard iteration
f^(n+1) = F(u^(n)) closes the loop.  At a fixed point the pair (u, q)
satisfies the nonlinear equation, which an independent exponential
time-differencing simulation then verifies.

Weights: rho_0(t) = exp(-p C / ((q-1)(T-t))) on the state/control and
rho_F(t) = exp(-(1+p) q^2 C / ((q-1)(T-t))) on the source, with
1 < q < sqrt(2) and p > q^2/(2-q^2) so that rho_0^2 = o(rho_F): quadratic
images of weighted-bounded states stay weighted-bounded.  C is the control
cost constant; it is not derivable from theory alone here, so the module
takes the empirical value fitted from frequency-splitting runs
(`fit_cost_constant`).  The Picard map itself does not depend on the
weights; rho_F weights the source increment that measures contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NoContraction, StepUnconverged
from .lebeau_robbiano import DEFAULT_RHO, BoundaryGamma, LRRunResult, run_lr
from .modal import ControlStepper, ModalSource, Trace, nonlinear_rhs, rhs_operator, state_nd
from .spectrum import SpectrumSpec, require_clear

WEIGHT_FLOOR = 1e-280
#: weights below this are dominated by the truncation's kill residual, so
#: the source increment is measured only where rho_F >= EVAL_FLOOR (its
#: last nodes set the rounding floor of `fixed_point`'s stop rule)
EVAL_FLOOR = 1e-30
DEFAULT_Q = 1.2
DEFAULT_C_COST = 0.5
DEFAULT_MAX_ITER = 12
DEFAULT_SIM_STEPS = 1000
#: fewest ETD steps a replay may take; nonlinear_simulate refuses fewer
MIN_SIM_STEPS = 1000
P_MARGIN = 0.2  # default p: this fraction above the threshold q^2/(2-q^2)
SOURCE_BULK_NODES, SOURCE_TAIL_NODES = 96, 24  # uniform, then graded toward T


def default_p(q_w: float = DEFAULT_Q) -> float:
    """p a fixed fraction (P_MARGIN) above the threshold q^2/(2-q^2)."""
    return (1.0 + P_MARGIN) * q_w**2 / (2.0 - q_w**2)


@dataclass
class WeightPair:
    """Vanishing weights on [0, T]; ``p=None`` takes `default_p` of ``q_w``.

    Each ValueError message starts with the name of the field it rejects."""

    T: float
    p: Optional[float] = None
    q_w: float = DEFAULT_Q
    C_cost: float = DEFAULT_C_COST

    def __post_init__(self):
        if not 1.0 < self.q_w < math.sqrt(2.0):
            raise ValueError(f"q_w={self.q_w} outside (1, sqrt(2))")
        if self.p is None:
            self.p = default_p(self.q_w)
        threshold = self.q_w**2 / (2.0 - self.q_w**2)
        if not self.p > threshold:
            raise ValueError(f"p={self.p} must exceed q^2/(2-q^2) = {threshold:.4g}")
        if not self.C_cost > 0:
            raise ValueError("C_cost must be positive")

    def rhoF(self, t):
        return self._weight(t, (1.0 + self.p) * self.q_w**2 * self.C_cost / (self.q_w - 1.0))

    def _weight(self, t, coef):
        tt = np.asarray(t, dtype=float)
        out = np.zeros_like(tt)
        inside = tt < self.T
        arg = np.where(inside, coef / np.maximum(self.T - tt, 1e-300), np.inf)
        out = np.where(inside & (arg < 700.0), np.exp(-np.minimum(arg, 700.0)), 0.0)
        return out if np.ndim(t) else float(out)

    def safe_horizon(self) -> float:
        """Largest t for which rho_F stays above the representable floor."""
        coef = (1.0 + self.p) * self.q_w**2 * self.C_cost / (self.q_w - 1.0)
        return self.T - coef / (-math.log(WEIGHT_FLOOR))


def fit_cost_constant(spec: SpectrumSpec, geometry=None, T_grid=(0.25, 0.5, 1.0),
                      rho: float = DEFAULT_RHO, beta: Optional[int] = None) -> dict:
    """Fit log total control norm ~ C / T over frequency-splitting runs.

    Worst case over the first few basis modes; the slope is the empirical
    control cost constant used in the weights.
    """
    geometry = geometry if geometry is not None else BoundaryGamma(None)
    xs, ys = [], []
    for T in T_grid:
        worst = 0.0
        for (k, j) in [(1, 1), (2, 1), (1, 2)]:
            c = np.zeros((spec.K_x, spec.J_y))
            c[k - 1, j - 1] = 1.0
            res = run_lr(c, float(T), spec, geometry, rho=rho, beta=beta)
            worst = max(worst, res.total_control_norm)
        xs.append(1.0 / T)
        ys.append(math.log(max(worst, 1e-300)))
    A = np.vstack([xs, np.ones_like(xs)]).T
    sol, *_ = np.linalg.lstsq(A, np.array(ys), rcond=None)
    return {"C_hat": float(max(sol[0], 1e-3)), "intercept": float(sol[1]),
            "points": list(zip(xs, ys))}


# ---------------------------------------------------------------------------
# controlled solve with source
# ---------------------------------------------------------------------------

def source_grid(T: float, weights: WeightPair) -> np.ndarray:
    """Time grid for source traces: uniform bulk plus a grid graded toward T.

    The graded part stops at the weight-floor horizon (beyond it both the
    source and the weights are numerically dead) and the endpoint T closes
    the grid for the integrator.
    """
    t_safe = weights.safe_horizon()
    bulk_end = min(0.8 * T, t_safe)
    bulk = np.linspace(0.0, bulk_end, SOURCE_BULK_NODES, endpoint=False)
    tail = []
    gap = T - bulk_end
    for _ in range(SOURCE_TAIL_NODES):
        gap *= 0.75
        tt = T - gap
        if tt >= t_safe:
            break
        tail.append(tt)
    pts = np.concatenate([bulk, np.array(tail), [t_safe, T]])
    return np.unique(np.round(pts, 12))


@dataclass
class SourceSolveResult:
    lr: LRRunResult
    trace: Trace
    control_norm_series: tuple
    final_rel_norm: float


def controlled_solve_with_source(
    u0: np.ndarray,
    source: Optional[ModalSource],
    T: float,
    spec: SpectrumSpec,
    geometry=None,
    rho: float = DEFAULT_RHO,
    beta: Optional[int] = None,
    grid: Optional[np.ndarray] = None,
    weights: Optional[WeightPair] = None,
) -> SourceSolveResult:
    """Null-controlled solve with the source integrated exactly per window.

    Reduces to a plain frequency-splitting run for zero source.  The window
    syntheses target the free-plus-source end state, so the source is
    annihilated along with the state, window by window.
    """
    require_clear(spec)
    geometry = geometry if geometry is not None else BoundaryGamma(None)
    weights = weights if weights is not None else WeightPair(T=T)
    rec = grid if grid is not None else source_grid(T, weights)
    res = run_lr(u0, T, spec, geometry, rho=rho, beta=beta, source=source, record=rec)
    trace = res.trace
    ct = trace.times
    cv = _control_norm_series(res, ct)
    u0n = float(np.linalg.norm(u0))
    return SourceSolveResult(
        lr=res,
        trace=trace,
        control_norm_series=(ct, cv),
        final_rel_norm=res.final_norm / max(u0n, 1e-300),
    )


def _control_norm_series(res: LRRunResult, times: np.ndarray) -> np.ndarray:
    """||q(t)||_{L2(control region)} sampled along the run's controls."""
    out = np.zeros_like(times)
    for sig in res.controls:
        inside = (times >= sig.t_start - 1e-12) & (times <= sig.t_end + 1e-12)
        if not np.any(inside):
            continue
        sq = sig._row_square(sig.value_at(times[inside]))
        out[inside] = np.sqrt(np.maximum(sq, 0.0))
    return out


# ---------------------------------------------------------------------------
# the fixed point
# ---------------------------------------------------------------------------

@dataclass
class FixedPointResult:
    converged: bool
    iterations: int
    deltas: list
    ratios: list
    controls: list = field(repr=False, default_factory=list)
    linear_final_rel: float = math.nan
    nonlinear_final_rel: float = math.nan
    nonlinear_norm_series: tuple = field(repr=False, default=None)
    weights: WeightPair = None
    #: "tol" (delta < tol * delta_0) or "floor" (stalled at the rounding floor)
    stop_reason: str = "tol"
    #: the rounding-floor estimate of the last iteration (see `_source_delta`)
    delta_floor: float = math.nan


def fixed_point(
    u0: np.ndarray,
    T: float,
    spec: SpectrumSpec,
    geometry=None,
    tol: float = 1e-9,
    max_iter: int = DEFAULT_MAX_ITER,
    rho: float = DEFAULT_RHO,
    beta: Optional[int] = None,
    weights: Optional[WeightPair] = None,
    r_guess: Optional[float] = None,
    verify: bool = True,
    sim_steps: int = DEFAULT_SIM_STEPS,
) -> FixedPointResult:
    """Picard iteration f -> F(u(f)) with weighted-norm stopping.

    ``tol`` is relative: the iteration stops (``stop_reason`` ``"tol"``) once
    the weighted source increment delta = ||(f^(n+1) - f^(n))/rho_F|| falls
    below tol times the first increment (absolute weighted norms are scaled
    by 1/rho_F and hence astronomically large by design).  At the rounding
    floor F_hat of `_source_delta` the ratios scatter around 1 whatever the
    data, so a ratio above 0.9 taken at delta <= F_hat ends the run as
    converged (``"floor"``), and only ratios taken above F_hat count for the
    ratio test.  Besides the up-front ``r_guess`` gate (reason
    ``"radius"``), NoContraction is raised in two ways.  The ratio test fires
    after three consecutive ratios above 0.9 (reason ``"ratio"``): the data
    is outside the local regime.  Exhausting ``max_iter`` also raises
    NoContraction (reason ``"cap"``), even when every ratio is well below
    0.9; that alone does not show a loss of contraction, only a cap too low
    for the observed rate.  On convergence the control is replayed through
    the independent nonlinear simulator.
    """
    require_clear(spec)
    geometry = geometry if geometry is not None else BoundaryGamma(None)
    weights = weights if weights is not None else WeightPair(T=T)
    u0 = np.asarray(u0, dtype=float)
    if r_guess is not None and float(np.linalg.norm(u0)) > r_guess:
        raise NoContraction(
            f"||u0|| = {np.linalg.norm(u0):.3e} exceeds the locality radius {r_guess:.3e}",
            "radius",
        )
    grid = source_grid(T, weights)
    source = None
    prev_f = None
    prev_delta = None
    delta0 = None
    deltas, ratios, bad_streak = [], [], 0
    solve = stop = None
    for n in range(max_iter):
        solve = controlled_solve_with_source(
            u0, source, T, spec, geometry, rho=rho, beta=beta, grid=grid, weights=weights
        )
        f_vals = np.array([nonlinear_rhs(state_nd(spec, c)) for c in solve.trace.coeffs])
        new_source = ModalSource(times=solve.trace.times.copy(), values=f_vals)
        delta, floor = _source_delta(new_source, prev_f, weights, spec)
        deltas.append(delta)
        if delta0 is None:
            delta0 = delta
        if prev_delta is not None and prev_delta > 0:
            ratio = delta / prev_delta
            ratios.append(ratio)
            if delta > floor:
                bad_streak = bad_streak + 1 if ratio > 0.9 else 0
                if bad_streak >= 3:
                    raise NoContraction(
                        f"contraction ratios {ratios[-3:]} exceed 0.9 three times: "
                        "initial data outside the local regime",
                        "ratio",
                    )
            elif ratio > 0.9:
                stop = "floor"
        if delta0 == 0.0 or delta < tol * delta0:
            stop = "tol"
        if stop is not None:
            break
        prev_f = new_source
        prev_delta = delta
        source = new_source
    else:
        raise NoContraction(f"no convergence in {max_iter} iterations (deltas {deltas[-3:]})",
                            "cap")

    nonlinear_rel = math.nan
    norm_series = None
    if verify:
        sim = nonlinear_simulate(u0, solve.lr.controls, T, spec, n_steps=sim_steps)
        nonlinear_rel = sim["final_rel_norm"]
        norm_series = sim["norm_series"]
    return FixedPointResult(
        converged=True,
        iterations=len(deltas),
        deltas=deltas,
        ratios=ratios,
        controls=solve.lr.controls,
        linear_final_rel=solve.final_rel_norm,
        nonlinear_final_rel=nonlinear_rel,
        nonlinear_norm_series=norm_series,
        weights=weights,
        stop_reason=stop,
        delta_floor=floor,
    )


def _source_delta(new: ModalSource, old: Optional[ModalSource], weights: WeightPair,
                  spec: SpectrumSpec) -> tuple:
    """(delta, F_hat): ||(f_new - f_old)/rho_F|| on the window where the weight
    is meaningful, and the rounding floor that delta cannot go below.

    Beyond rho_F < EVAL_FLOOR the trajectory sits at the truncation's kill
    residual and the ratio would measure floor noise, not contraction.  On
    the last nodes before that cut, 1/rho_F amplifies the rounding of the
    state: with F(t) = ||f_new(t)/(kappa + mu)|| the dual norm of the new
    iterate, F_hat = eps sqrt(K_x J_y) ||e^{Lambda+ t} sqrt(F(t) max F)/rho_F||
    over the same nodes, Lambda+ = max(0, largest rate).
    """
    t = new.times
    rhoF = weights.rhoF(t)
    mask = rhoF >= EVAL_FLOOR
    if not np.any(mask):
        return 0.0, 0.0
    t, rhoF, vals = t[mask], rhoF[mask], new.values[mask]
    diff = vals if old is None else vals - np.array([old.value_at(ti) for ti in t])
    kap = (np.arange(1, spec.K_x + 1, dtype=float) * math.pi / spec.a_float) ** 2
    s = kap[:, None] + spec.mus[None, :]  # kappa_k + mu_j: the Dirichlet symbol

    def weighted(dual):
        return math.sqrt(float(np.trapezoid((dual / rhoF) ** 2, t)))

    def dual_norm(v):
        return np.sqrt(np.sum((v / s[None, :, :]) ** 2, axis=(1, 2)))

    F = dual_norm(vals)
    growth = np.exp(max(0.0, float(spec.rate_matrix().max())) * t)
    eps = float(np.finfo(float).eps)
    floor = eps * math.sqrt(s.size) * weighted(growth * np.sqrt(F * F.max()))
    return weighted(dual_norm(diff)), floor


def estimate_radius(T: float, spec: SpectrumSpec, geometry=None, scale0: float = 1e-3,
                    n_bisect: int = 6, **kw) -> float:
    """Bisect the largest initial-data scale at which the iteration contracts.

    The probe direction is the lowest tensor mode; existence of a positive
    radius is a theorem, its value is not, hence this runtime search.  A
    probe fails when the ratio test (or an ``r_guess`` in ``kw``) stops the
    iteration.  A probe that hits the ``max_iter`` cap has not decided
    either way, so it re-raises NoContraction (reason ``"cap"``) asking for
    a larger ``max_iter``.
    """
    base = np.zeros((spec.K_x, spec.J_y))
    base[0, 0] = 1.0

    def contracts(s):
        try:
            fixed_point(s * base, T, spec, geometry, verify=False, **kw)
            return True
        except NoContraction as exc:
            if exc.reason == "cap":
                raise NoContraction(
                    f"scale {s:.6g} reached the max_iter cap before the ratio test decided; "
                    f"raise max_iter ({exc})", "cap") from exc
            return False

    lo, hi = 0.0, None
    s = scale0
    for _ in range(40):
        if not contracts(s):
            hi = s
            break
        lo, s = s, s * 4.0
    if hi is None:
        return lo
    for _ in range(n_bisect):
        mid = math.sqrt(lo * hi) if lo > 0 else hi / 4.0
        if contracts(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# independent nonlinear simulation
# ---------------------------------------------------------------------------

def nonlinear_simulate(
    u0: np.ndarray,
    controls: Sequence,
    T: float,
    spec: SpectrumSpec,
    n_steps: int = DEFAULT_SIM_STEPS,
) -> dict:
    """Exponential time differencing for the full nonlinear closed loop.

    Linear flow and control enter exactly per step; the quadratic term is
    explicit second-order (ETD2 predictor/corrector with phi2 weighting, Cox
    & Matthews, JCP 2002).  The replay walks its grid once, with one
    `ControlStepper` per control signal, and one without a control for the
    steps no signal covers.  e^{lam h}, the Legendre mode
    integrals and each exponential segment's step-anchored Duhamel block
    (gain, mass and coefficients folded in) are built once per distinct step
    length h, of which the grid has few.  The step count (at least
    ``MIN_SIM_STEPS``) is doubled once and the end states compared;
    divergence beyond 1e-6 relative, or a state that leaves the finite
    range, raises StepUnconverged.
    """
    if n_steps < MIN_SIM_STEPS:
        raise ValueError(f"n_steps={n_steps} is below the replay minimum {MIN_SIM_STEPS}")
    run = _etd_run(u0, controls, T, spec, n_steps)
    run2 = _etd_run(u0, controls, T, spec, 2 * n_steps)
    # the end state may sit at the integrator's error floor, so halving
    # convergence is measured against the problem scale ||u0||
    scale = max(float(np.linalg.norm(u0)), run["final_norm"], run2["final_norm"], 1e-300)
    if abs(run["final_norm"] - run2["final_norm"]) > 1e-6 * scale:
        raise StepUnconverged(
            f"final norms {run['final_norm']:.6e} vs {run2['final_norm']:.6e} under halving"
        )
    return run2


def _etd_run(u0, controls, T, spec, n_steps):
    from .signals import phi1, phi2

    state = state_nd(spec, np.asarray(u0, dtype=float))
    lam = state.rates
    rhs = rhs_operator(spec)
    boundaries = {0.0, T}
    for sig in controls:
        boundaries.add(sig.t_start)
        boundaries.add(sig.t_end)
    base = np.linspace(0.0, T, n_steps + 1)
    grid = np.unique(np.concatenate([base, np.array(sorted(boundaries))]))
    grid = grid[(grid >= 0) & (grid <= T + 1e-15)]
    starts, ends = grid[:-1], grid[1:]
    # index of the first signal covering each step, -1 where none does
    cover = np.full(len(starts), -1)
    for k in reversed(range(len(controls))):
        sig = controls[k]
        cover[(sig.t_start - 1e-12 <= starts) & (ends <= sig.t_end + 1e-12)] = k

    steps = {}  # step length h -> (h phi1(lam h), h phi2(lam h))
    u = state.coeffs
    norms = [float(np.linalg.norm(u))]
    stepper, current = None, None
    for t0, t1, k in zip(starts.tolist(), ends.tolist(), cover.tolist()):
        h = t1 - t0
        if h not in steps:
            steps[h] = (h * phi1(lam * h), h * phi2(lam * h))
        hp1, hp2 = steps[h]
        if k != current:
            # the walk is monotone, so a signal's steps are consecutive
            stepper = ControlStepper(state, controls[k] if k >= 0 else None)
            current = k
        lc = stepper.advance(u, t0, t1)
        N0 = rhs(u)
        pred = lc + hp1 * N0
        u = pred + hp2 * (rhs(pred) - N0)
        norm = float(np.linalg.norm(u))
        if not math.isfinite(norm):
            raise StepUnconverged(f"replay state not finite at t={t1:.6g} ({n_steps} steps)")
        norms.append(norm)
    u0n = max(float(np.linalg.norm(u0)), 1e-300)
    return {
        "final_norm": norms[-1],
        "final_rel_norm": norms[-1] / u0n,
        "final_coeffs": u,
        "norm_series": (grid, np.array(norms)),
    }

"""Scenario orchestration and persistence.

Each run writes ``output_dir/run-<stamp>-<hash8>/`` containing manifest.json
(inputs, versions, verdicts, norms, residuals), task CSV artifacts, and a
timings.json sidecar.  Timings are the one non-deterministic output and live
outside the manifest so that identical config+seed reruns produce
byte-identical artifacts (the determinism contract); everything else is
reproducible from the manifest inputs alone.

Exit codes follow the exception taxonomy: 0 success, 2 configuration, 3
critical parameter, 4 below minimal time, 5 ill-conditioned, 6 no
contraction, 1 anything else.  Partial outputs are flushed before an error
exit.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
import time

import numpy as np

from . import __version__
from .config import Scenario
from .errors import KSControlError, NoContraction
from .lebeau_robbiano import run_lr
from .modal import evolve_controlled, observe, state_1d, state_nd
from .serialize import write_control_csv, write_csv, write_json, write_observation_csv, write_trace_csv
from .spectrum import K0_index, c0_shift, critical_set_check, n0_index, weyl_fit
from .errors import ThresholdBeyondTruncation


def _config_hash(scenario: Scenario) -> str:
    blob = json.dumps({"raw": scenario.raw, "seed": scenario.seed}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:8]


def run_scenario(scenario: Scenario, out_dir=None, seed=None):
    """Execute one scenario; returns (manifest, run_dir).

    Raises toolkit errors after flushing whatever artifacts exist; the CLI
    maps them to exit codes.
    """
    seed = scenario.seed if seed is None else int(seed)
    base = out_dir if out_dir is not None else scenario.output_dir
    stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%d%H%M%S")
    run_dir = os.path.join(base, f"run-{stamp}-{_config_hash(scenario)}")
    os.makedirs(run_dir, exist_ok=True)

    manifest = {
        "task": scenario.task,
        "seed": seed,
        "config": scenario.raw,
        "versions": {"kscontrol": __version__, "numpy": np.__version__},
        "threads_env": os.environ.get("KSCTL_THREADS"),
    }
    if scenario.task.startswith("control") or scenario.task == "nonlinear":
        manifest["truncation_note"] = (
            "null claims refer to the retained (K_x, J_y) modes; modal initial "
            "data has zero truncation tail, and synthesis reports carry the "
            "free-decay tail of any modes above the enforcement order"
        )
    t0 = time.perf_counter()
    try:
        _HANDLERS[scenario.task](scenario, seed, run_dir, manifest)
        manifest["status"] = "ok"
    except KSControlError as exc:
        manifest["status"] = "error"
        manifest["error"] = {"type": type(exc).__name__, "message": str(exc),
                             "exit_code": exc.exit_code}
        if isinstance(exc, NoContraction):  # the ratio test, the max_iter cap or r_guess
            manifest["error"]["reason"] = exc.reason
        raise
    finally:
        write_json(os.path.join(run_dir, "manifest.json"), manifest)
        write_json(os.path.join(run_dir, "timings.json"), {"total_s": time.perf_counter() - t0})
    return manifest, run_dir


# ---------------------------------------------------------------------------
# task handlers
# ---------------------------------------------------------------------------

def _task_spectrum(sc: Scenario, seed, run_dir, manifest):
    spec = sc.spec
    write_csv(os.path.join(run_dir, "cross_section.csv"), ["j", "mu", "lambda_y"],
              [(j, spec.mu(j), spec.y_shift(j)) for j in range(1, spec.J_y + 1)])
    rows = []
    for j in range(1, spec.J_y + 1):
        for k in range(1, spec.K_x + 1):
            r = spec.mode_rate(k, j)
            rows.append((k, j, r.lambda_x, r.lambda_y_shift, r.total))
    write_csv(os.path.join(run_dir, "modes.csv"),
              ["k", "j", "lambda_x", "lambda_y_shift", "total"], rows)
    manifest["verdict"] = _verdict(spec)
    for name, fn in (("n0", n0_index), ("K0", K0_index)):
        try:
            manifest[name] = fn(spec)
        except ThresholdBeyondTruncation:
            manifest[name] = None
    if spec.mu_tuples is not None and spec.J_y >= 16:
        manifest["weyl_fit"] = weyl_fit(spec)


def _verdict(spec, search_bound=None) -> dict:
    v = critical_set_check(spec, search_bound)
    return {"kind": v.kind, "j": v.j, "k": v.k, "l": v.l, "distance": v.distance}


def _task_critical_set(sc: Scenario, seed, run_dir, manifest):
    manifest["verdict"] = _verdict(sc.spec, sc.params["search_bound"])


def _task_biortho(sc: Scenario, seed, run_dir, manifest):
    from .biorthogonal import build_family

    j, K, T = sc.params["j"], sc.params["K"], sc.params["T"]
    lam = -sc.spec.x_rates(j, K)
    shift = c0_shift(-lam)
    fam = build_family(lam + shift, T)
    with open(os.path.join(run_dir, "family.json"), "w", encoding="utf-8") as fh:
        fh.write(fam.to_json())
    write_csv(os.path.join(run_dir, "norms.csv"), ["k", "exponent", "norm"],
              [(k + 1, fam.exponents[k], fam.norm(k)) for k in range(K)])
    manifest["residual_max"] = fam.residual_max
    manifest["gram_condition"] = fam.gram_condition
    manifest["c0"] = shift


def _task_control_1d(sc: Scenario, seed, run_dir, manifest):
    from .boundary_1d import synthesize_boundary_control, verify_null

    p = sc.params
    spec = sc.spec
    j, T, K_trunc, u0 = p["j"], p["T"], p["K_trunc"], p["u0_modes"]
    control, rep = synthesize_boundary_control(u0, T, spec, j, K_trunc=K_trunc)
    write_control_csv(os.path.join(run_dir, "control.csv"), control)
    out = verify_null(u0, control, T, spec, j, K_trunc=K_trunc)
    state = state_1d(spec, j, coeffs=u0)
    times = np.linspace(0.0, T, 129)
    _, trace = evolve_controlled(state, control, (0.0, T), record=times)
    write_trace_csv(os.path.join(run_dir, "trace.csv"), trace)
    manifest["report"] = {
        "control_norm": rep.control_norm,
        "moment_residual_max": rep.moment_residual_max,
        "tail_free_decay": rep.tail_free_decay,
        "gram_condition": rep.gram_condition,
        "c0": rep.c0,
        "final_rel_enforced": out.rel_final_enforced,
        "final_rel_all": out.rel_final_all,
    }


def _task_minimal_time(sc: Scenario, seed, run_dir, manifest):
    from .pointwise import minimal_time_estimate

    p = sc.params
    est = minimal_time_estimate(p["point"], sc.spec.a_float, p["k_max"])
    write_csv(os.path.join(run_dir, "sequence.csv"),
              ["k", "neg_log_sin", "s", "running_max"],
              list(zip(est.k, est.neg_log_sin, est.s, est.running_max)))
    manifest["T0_hat"] = est.T0_hat
    manifest["T0_argmax"] = est.T0_argmax
    manifest["T0_tail"] = est.T0_tail
    manifest["still_growing"] = est.still_growing
    manifest["spikes"] = est.spikes[:128]
    manifest["x0_over_a"] = est.x0_over_a


def _task_control_point(sc: Scenario, seed, run_dir, manifest):
    from .errors import BelowMinimalTime
    from .modal import evolve_pointwise_controlled
    from .pointwise import minimal_time_estimate, negative_certificate, synthesize_point_control

    p = sc.params
    spec = sc.spec
    j, T, K_trunc, u0 = p["j"], p["T"], p["K_trunc"], p["u0_modes"]
    est = minimal_time_estimate(p["point"], spec.a_float)
    manifest["T0_hat"] = est.T0_hat
    try:
        control, rep = synthesize_point_control(
            u0, T, p["point"], spec, j, K_trunc=K_trunc, margin=p["margin"], estimate=est,
        )
    except BelowMinimalTime:
        try:
            w = negative_certificate(p["point"], spec, j, T, estimate=est)
            write_json(os.path.join(run_dir, "witness.json"),
                       {"k": w.k, "log10_ratio": w.log10_ratio, "T": w.T, "T0_hat": w.T0_hat})
        except KSControlError:
            pass
        raise
    write_control_csv(os.path.join(run_dir, "control.csv"), control)
    state = state_1d(spec, j, coeffs=u0)
    end, trace = evolve_pointwise_controlled(
        state, control, (0.0, T), record=np.linspace(0.0, T, 129)
    )
    write_trace_csv(os.path.join(run_dir, "trace.csv"), trace)
    manifest["report"] = {
        "control_norm": rep.control_norm,
        "moment_residual_max": rep.moment_residual_max,
        "threshold": rep.threshold,
        "final_rel_enforced": float(np.linalg.norm(end.coeffs[:K_trunc]))
        / max(float(np.linalg.norm(u0)), 1e-300),
    }


def _task_control_nd(sc: Scenario, seed, run_dir, manifest):
    p = sc.params
    T = p["T"]
    res = run_lr(p["u0_modes"], T, sc.spec, p["geometry"], rho=p["rho"], beta=p["beta"],
                 record=np.linspace(0.0, T, 65))
    if res.trace is not None:
        write_trace_csv(os.path.join(run_dir, "trace.csv"), res.trace)
    for i, sig in enumerate(res.controls):
        write_control_csv(os.path.join(run_dir, f"control_{i:02d}.csv"), sig, n_samples=256)
    manifest["schedule"] = (
        None if res.schedule is None else {
            "rho": res.schedule.rho, "beta": res.schedule.beta,
            "alpha": res.schedule.alpha, "coast_start": res.schedule.coast_start,
            "windows": [
                {"index": w.index, "a_k": w.a_k, "T_k": w.T_k, "gamma": w.gamma}
                for w in res.schedule.windows
            ],
        }
    )
    manifest["window_norms"] = res.window_norms
    manifest["window_control_norms"] = res.window_control_norms
    manifest["total_control_norm"] = res.total_control_norm
    manifest["final_rel_norm"] = res.final_rel_norm
    manifest["kill_residuals"] = res.kill_residuals
    manifest["decay_fit_slope"] = res.decay_fit_slope
    if res.observability_fit is not None:
        manifest["observability_fit"] = res.observability_fit
    if res.gramian_reports:
        manifest["gramian"] = [
            {"gamma": r.gamma, "min_eig": r.min_eig, "max_eig": r.max_eig,
             "lstsq_residual": r.lstsq_residual}
            for r in res.gramian_reports
        ]


def _task_nonlinear(sc: Scenario, seed, run_dir, manifest):
    from .nonlinear import fixed_point

    p = sc.params
    weights = p["weights"]
    res = fixed_point(
        p["u0_modes"], p["T"], sc.spec, p["geometry"],
        tol=p["tol"], max_iter=p["max_iter"], rho=p["rho"], beta=p["beta"], weights=weights,
        r_guess=p["r_guess"], sim_steps=p["sim_steps"],
    )
    write_csv(os.path.join(run_dir, "iterations.csv"), ["n", "delta_F", "ratio"],
              [(i + 1, d, res.ratios[i - 1] if 1 <= i <= len(res.ratios) else float("nan"))
               for i, d in enumerate(res.deltas)])
    write_json(os.path.join(run_dir, "verification.json"), {
        "iterations": res.iterations,
        "ratios": res.ratios,
        "stop_reason": res.stop_reason,
        "delta_floor": res.delta_floor,
        "linear_final_rel": res.linear_final_rel,
        "nonlinear_final_rel": res.nonlinear_final_rel,
        "weights": {"p": weights.p, "q_w": weights.q_w, "C_cost": weights.C_cost},
    })
    manifest["iterations"] = res.iterations
    manifest["stop_reason"] = res.stop_reason
    manifest["delta_floor"] = res.delta_floor
    manifest["nonlinear_final_rel"] = res.nonlinear_final_rel
    manifest["linear_final_rel"] = res.linear_final_rel


def _task_simulate(sc: Scenario, seed, run_dir, manifest):
    p = sc.params
    spec = sc.spec
    T, n, j, u0 = p["T"], p["n_samples"], p["j"], p["u0_modes"]
    if u0 is None:  # random data on the lowest random_modes modes of each axis
        u0 = np.zeros(spec.K_x if j is not None else (spec.K_x, spec.J_y))
        box = tuple(min(p["random_modes"], size) for size in u0.shape)
        u0[tuple(slice(b) for b in box)] = np.random.default_rng(seed).standard_normal(box)
    state = state_1d(spec, j, coeffs=u0) if j is not None else state_nd(spec, u0)
    _, trace = evolve_controlled(state, None, (0.0, T), record=np.linspace(0, T, n))
    if j is not None:  # a 1-D slice simulation also observes the midpoint
        series = observe(trace, spec, x0=spec.a_float / 2.0)
        write_observation_csv(os.path.join(run_dir, "observations.csv"), series)
    rates = spec.x_rates(j) if j is not None else spec.rate_matrix()
    write_trace_csv(os.path.join(run_dir, "trace.csv"), trace)
    norms = trace.norms()
    mask = u0 != 0
    manifest["free_decay"] = {
        "initial_norm": float(norms[0]),
        "final_norm": float(norms[-1]),
        "slowest_active_rate": float(np.max(rates[mask])) if np.any(mask) else None,
    }


_HANDLERS = {
    "spectrum": _task_spectrum,
    "critical-set": _task_critical_set,
    "biortho": _task_biortho,
    "control-1d": _task_control_1d,
    "control-point": _task_control_point,
    "minimal-time": _task_minimal_time,
    "control-nd": _task_control_nd,
    "nonlinear": _task_nonlinear,
    "simulate": _task_simulate,
}

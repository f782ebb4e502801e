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
exit.  A float overflow, division by zero or invalid value in a run raises
NotFinite (exit 1) instead of going on with inf or nan.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import math
import os
import time
from dataclasses import fields

import numpy as np

from . import __version__
from .biorthogonal import build_family
from .boundary_1d import synthesize_boundary_control, verify_null
from .config import Scenario
from .errors import BelowMinimalTime, KSControlError, NoContraction, NotFinite
from .errors import ThresholdBeyondTruncation
from .lebeau_robbiano import run_lr
from .modal import evolve_controlled, observe, state_1d, state_nd
from .nonlinear import fixed_point
from .pointwise import minimal_time_estimate, minimal_time_gate, negative_certificate
from .pointwise import synthesize_point_control
from .serialize import write_control_csv, write_csv, write_json, write_observation_csv, write_trace_csv
from .spectrum import Box, K0_index, c0_shift, critical_set_check, n0_index, weyl_fit


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
    }
    if scenario.task.startswith("control") or scenario.task == "nonlinear":
        manifest["truncation_note"] = (
            "null claims refer to the retained (K_x, J_y) modes; modal initial "
            "data has zero truncation tail, and synthesis reports carry the "
            "free-decay tail of any modes above the enforcement order"
        )
    t0 = time.perf_counter()
    try:
        try:  # numpy raises where it would warn and go on with inf or nan
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                _HANDLERS[scenario.task](scenario, seed, run_dir, manifest)
        except (FloatingPointError, OverflowError) as exc:
            raise NotFinite(f"{type(exc).__name__}: {exc}") from exc
        manifest["status"] = "ok"
    except KSControlError as exc:
        manifest["status"] = "error"
        manifest["error"] = {"type": type(exc).__name__, "message": str(exc),
                             "exit_code": exc.exit_code}
        if isinstance(exc, NoContraction):  # the ratio test or the max_iter cap
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
    js = range(1, spec.J_y + 1)
    y_shifts = [spec.y_shift(j) for j in js]
    write_csv(os.path.join(run_dir, "cross_section.csv"), ["j", "mu", "lambda_y"],
              [js, [spec.mu(j) for j in js], y_shifts])
    # one row per mode, k fastest: the columns of the (J_y, K_x) tables, raveled
    write_csv(os.path.join(run_dir, "modes.csv"),
              ["k", "j", "lambda_x", "lambda_y_shift", "total"],
              [np.tile(np.arange(1, spec.K_x + 1), spec.J_y),
               np.repeat(np.arange(1, spec.J_y + 1), spec.K_x),
               np.concatenate([spec.x_rates(j) for j in js]),
               np.repeat(y_shifts, spec.K_x),
               spec.rate_matrix().T.ravel()])
    manifest["verdict"] = _verdict(spec)
    for name, fn in (("n0", n0_index), ("K0", K0_index)):
        try:
            manifest[name] = fn(spec)
        except ThresholdBeyondTruncation:
            manifest[name] = None
    if isinstance(spec.cross_section, Box) and spec.J_y >= 16:
        manifest["weyl_fit"] = weyl_fit(spec)


def _verdict(spec) -> dict:
    v = critical_set_check(spec)
    return {"kind": v.kind, "j": v.j, "k": v.k, "l": v.l, "distance": v.distance}


def _task_critical_set(sc: Scenario, seed, run_dir, manifest):
    manifest["verdict"] = _verdict(sc.spec)


def _task_biortho(sc: Scenario, seed, run_dir, manifest):
    j, K, T = sc.params["j"], sc.params["K"], sc.params["T"]
    lam = -sc.spec.x_rates(j, K)
    shift = c0_shift(-lam)
    fam = build_family(lam + shift, T)
    write_json(os.path.join(run_dir, "family.json"),
               {"exponents": fam.exponents, "T": fam.horizon, "coeffs": fam.coeffs,
                "residual_max": fam.residual_max, "gram_condition": fam.gram_condition})
    write_csv(os.path.join(run_dir, "norms.csv"), ["k", "exponent", "norm"],
              [range(1, K + 1), fam.exponents[:K], [fam.norm(k) for k in range(K)]])
    manifest["residual_max"] = fam.residual_max
    manifest["gram_condition"] = fam.gram_condition
    manifest["c0"] = shift


def _task_control_1d(sc: Scenario, seed, run_dir, manifest):
    p = sc.params
    control, rep = synthesize_boundary_control(p["u0_modes"], p["T"], sc.spec, p["j"],
                                               K_trunc=p["K_trunc"])
    manifest["report"] = _closed_loop_1d(sc, run_dir, control, rep)


def _closed_loop_1d(sc: Scenario, run_dir, control, rep) -> dict:
    """Both 1-D tasks' tail: control.csv, the verdict of `verify_null`, the closed
    loop at 129 times as trace.csv, and the report (every SynthesisReport field,
    and the verdict's ``final_rel_enforced`` and ``final_rel_all``)."""
    p, spec = sc.params, sc.spec
    j, T, u0 = p["j"], p["T"], p["u0_modes"]
    write_control_csv(os.path.join(run_dir, "control.csv"), control)
    out = verify_null(u0, control, T, spec, j, K_trunc=rep.K_trunc)
    _, trace = evolve_controlled(state_1d(spec, j, coeffs=u0), control, (0.0, T),
                                 record=np.linspace(0.0, T, 129))
    write_trace_csv(os.path.join(run_dir, "trace.csv"), trace)
    report = {f.name: getattr(rep, f.name) for f in fields(rep)}
    report.update(final_rel_enforced=out.rel_final_enforced, final_rel_all=out.rel_final_all)
    return report


def _task_minimal_time(sc: Scenario, seed, run_dir, manifest):
    p = sc.params
    est = minimal_time_estimate(p["point"], sc.spec.a_float, p["k_max"])
    write_csv(os.path.join(run_dir, "sequence.csv"),
              ["k", "neg_log_sin", "s", "running_max"],
              [est.k, est.neg_log_sin, est.s, est.running_max])
    manifest["T0_hat"] = est.T0_hat
    manifest["T0_argmax"] = est.T0_argmax
    manifest["T0_tail"] = est.T0_tail
    manifest["still_growing"] = est.still_growing
    manifest["spikes"] = est.spikes[:128]
    manifest["x0_over_a"] = est.x0_over_a


def _task_control_point(sc: Scenario, seed, run_dir, manifest):
    p, spec = sc.params, sc.spec
    j, T = p["j"], p["T"]
    manifest["T0_hat"] = minimal_time_gate(p["point"], spec).T0_hat
    try:
        control, rep = synthesize_point_control(p["u0_modes"], T, p["point"], spec, j,
                                                K_trunc=p["K_trunc"])
    except BelowMinimalTime:
        try:
            w = negative_certificate(p["point"], spec, j, T)
            write_json(os.path.join(run_dir, "witness.json"),
                       {"k": w.k, "log10_ratio": w.log10_ratio, "T": w.T, "T0_hat": w.T0_hat})
        except KSControlError:
            pass
        raise
    manifest["report"] = _closed_loop_1d(sc, run_dir, control, rep)


def _task_control_nd(sc: Scenario, seed, run_dir, manifest):
    p = sc.params
    T = p["T"]
    res = run_lr(p["u0_modes"], T, sc.spec, p["geometry"], rho=p["rho"], beta=p["beta"],
                 record=np.linspace(0.0, T, 65))
    if res.trace is not None:
        write_trace_csv(os.path.join(run_dir, "trace.csv"), res.trace)
    _write_controls(run_dir, res.controls)
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
             "lstsq_residual": r.lstsq_residual, "rank": r.rank}
            for r in res.gramian_reports
        ]


def _write_controls(run_dir, controls):
    """Both cylinder tasks' controls, signal i as control_{i:02d}.csv: 257 times
    of its window, one row per (time, y-mode)."""
    for i, sig in enumerate(controls):
        write_control_csv(os.path.join(run_dir, f"control_{i:02d}.csv"), sig, n_samples=256)


def _task_nonlinear(sc: Scenario, seed, run_dir, manifest):
    p = sc.params
    weights = p["weights"]
    res = fixed_point(
        p["u0_modes"], p["T"], sc.spec, p["geometry"],
        tol=p["tol"], max_iter=p["max_iter"], rho=p["rho"], beta=p["beta"], weights=weights,
        sim_steps=p["sim_steps"],
    )
    _write_controls(run_dir, res.controls)
    n = len(res.deltas)  # row i + 1 carries ratios[i - 1]: NaN on row 1 and past the ratios
    ratios = ([math.nan] + list(res.ratios) + [math.nan] * n)[:n]
    write_csv(os.path.join(run_dir, "iterations.csv"), ["n", "delta_F", "ratio"],
              [range(1, n + 1), res.deltas, ratios])
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

"""Seeded scenario lists for the three benchmark workloads, and their checks.

Every scenario is a plain ``ksctl`` config dict built from the benchmark
seed; the program sees only these dicts.  Each scenario carries the exit
code it must end with and the name of the check that judges its run
directory (see ``check_run``).  The pass thresholds come from acceptance
tests already in the suite: c10a for ``nonlinear``, c07 for
``control-nd``, c08 for the Liouville minimal time.
"""

from __future__ import annotations

import json
import math
import os
import random


def _domain(nu, K_x, J_y, box=("pi",)):
    return {"a": "pi", "nu": nu, "cross_section": {"box": list(box)}, "K_x": K_x, "J_y": J_y}


def _modes_1d(rng, count):
    return {str(k): round(rng.gauss(0.0, 1.0), 6) for k in range(1, count + 1)}


def _modes_nd(rng, k_hi, j_hi, norm=None):
    vals = {f"{k},{j}": rng.gauss(0.0, 1.0) for k in range(1, k_hi + 1) for j in range(1, j_hi + 1)}
    scale = 1.0 if norm is None else norm / math.sqrt(sum(v * v for v in vals.values()))
    return {key: round(v * scale, 9 if norm is not None else 6) for key, v in vals.items()}


def _scenario(name, config, check, exit_code=0):
    return {"name": name, "config": config, "check": check, "exit": exit_code}


def nonlinear_tensor(rng, seed):
    """The nonlinear demo: Picard fixed point plus the ETD closed-loop replay."""
    cfg = {
        "task": "nonlinear",
        "seed": seed,
        "domain": _domain(0, 16, 16),
        "nonlinear": {
            "T": 1.0,
            "beta": 4,
            "u0_modes": _modes_nd(rng, 2, 2, norm=1e-3),
            "sim_steps": 1000,
        },
    }
    return [_scenario("nonlinear", cfg, "nonlinear")]


def _horizons(rng, n):
    """n horizons in [0.5, 2], one from each n-th of the interval, in random order.

    Stratifying keeps the batch's total cost nearly the same from seed to
    seed, while every scenario still draws its own horizon.
    """
    width = 1.5 / n
    out = [round(0.5 + (i + rng.random()) * width, 6) for i in range(n)]
    rng.shuffle(out)
    return out


def linear_batch(rng, seed):
    """Three rounds of small linear syntheses, each with its own horizon."""
    while True:
        kinds = [_horizons(rng, 3) for _ in range(3)]
        if len({T for Ts in kinds for T in Ts}) == 9:  # no two families alike
            break
    out = []
    for r in range(3):
        j = rng.choice((1, 2))
        out.append(_scenario(f"control-1d-{r}", {
            "task": "control-1d",
            "seed": seed,
            "domain": _domain("6.5", 16, 4),
            "control_1d": {"j": j, "T": kinds[0][r], "K_trunc": 8,
                           "u0_modes": _modes_1d(rng, 3)},
        }, "control-1d"))
        for Ts, label, omega in ((kinds[1], "tensor", None), (kinds[2], "gramian", [0.3, 1.2])):
            out.append(_scenario(f"control-nd-{label}-{r}", {
                "task": "control-nd",
                "seed": seed,
                "domain": _domain(0, 16, 16),
                "control_nd": {"T": Ts[r], "beta": 4,
                               "geometry": {"boundary": {"omega": omega}},
                               "u0_modes": _modes_nd(rng, 3, 3)},
            }, "control-nd"))
    return out


def spectral_scan(rng, seed):
    """Exact spectra, the critical-set scan, the Diophantine scan and the error exits."""
    out = []
    for label, box, J_y in (("pi2-128", ("pi", "pi"), 128),
                            ("pi2half-64", ("pi", "pi/2"), 64),
                            ("pi3-32", ("pi", "pi", "pi"), 32)):
        out.append(_scenario(f"spectrum-{label}", {
            "task": "spectrum", "seed": seed, "domain": _domain("7/2", 16, J_y, box=box),
        }, "spectrum"))
    out.append(_scenario("critical-set", {
        "task": "critical-set", "seed": seed, "domain": _domain("9", 16, 16, box=("pi", "pi")),
    }, "critical-set"))
    liouville = {"liouville": "quartic_anchor3", "depth": 6}
    out.append(_scenario("minimal-time", {
        "task": "minimal-time", "seed": seed, "domain": _domain(0, 8, 4),
        "minimal_time": {"point": liouville, "k_max": 10_000},
    }, "minimal-time"))
    out.append(_scenario("control-point-algebraic", {
        "task": "control-point", "seed": seed, "domain": _domain(0, 16, 8),
        "control_point": {"j": 1, "T": 1.0, "K_trunc": 8, "u0_modes": _modes_1d(rng, 2),
                          "point": {"algebraic": [1, 2, -1], "root_index": 0}},
    }, "control-point"))
    out.append(_scenario("control-point-below-T0", {
        "task": "control-point", "seed": seed, "domain": _domain(0, 16, 8),
        "control_point": {"j": 1, "T": 0.4, "K_trunc": 8, "u0_modes": _modes_1d(rng, 2),
                          "point": liouville},
    }, "error", exit_code=4))
    out.append(_scenario("control-1d-critical", {
        "task": "control-1d", "seed": seed, "domain": _domain("7", 16, 4),
        "control_1d": {"j": 1, "T": 1.0, "K_trunc": 8, "u0_modes": _modes_1d(rng, 3)},
    }, "error", exit_code=3))
    return out


_BUILDERS = {
    "nonlinear-tensor": nonlinear_tensor,
    "linear-batch": linear_batch,
    "spectral-scan": spectral_scan,
}
WORKLOADS = tuple(_BUILDERS)


# Layers each workload must reach: a traced run fails when one of these
# records no calls, which is how an alias the tracer missed shows up.
_COMMON = ("config.parse_config_dict", "runner.run_scenario", "spectrum.SpectrumSpec",
           "spectrum.critical_set_check", "serialize.write")
LAYERS_EXERCISED = {
    "nonlinear-tensor": _COMMON + (
        "spectrum.SpectrumSpec.rate_matrix", "biorthogonal.build_family",
        "moments.MomentSolver", "moments.MomentSolver.solve", "modal.evolve_controlled",
        "modal.nonlinear_rhs", "modal.state_nd", "signals.ControlSignal.value_at",
        "signals.ExpSegment.mode_duhamel", "lebeau_robbiano.run_lr",
        "lebeau_robbiano.active_phase_tensor", "nonlinear.fixed_point",
        "nonlinear.controlled_solve_with_source", "nonlinear.nonlinear_simulate",
    ),
    "linear-batch": _COMMON + (
        "spectrum.SpectrumSpec.rate_matrix", "biorthogonal.build_family",
        "moments.MomentSolver", "moments.MomentSolver.solve", "modal.evolve_controlled",
        "modal.state_nd", "signals.ControlSignal.value_at", "signals.ExpSegment.mode_duhamel",
        "signals.LegendreSegment.mode_duhamel", "boundary_1d.synthesize_boundary_control",
        "boundary_1d.verify_null", "lebeau_robbiano.run_lr",
        "lebeau_robbiano.active_phase_tensor", "lebeau_robbiano.active_phase_gramian",
    ),
    "spectral-scan": _COMMON + (
        "biorthogonal.build_family", "moments.MomentSolver", "moments.MomentSolver.solve",
        "modal.evolve_controlled", "pointwise.minimal_time_estimate",
        "pointwise.synthesize_point_control",
    ),
}


def scenarios(workload: str, seed: int) -> list:
    """The workload's scenario list; the same seed always gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), seed)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _load(run_dir, name):
    with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _check_nonlinear(run_dir, m):
    ver = _load(run_dir, "verification.json")
    if not all(r < 0.9 for r in ver["ratios"]):
        return f"contraction ratios {ver['ratios']} not all < 0.9"
    if not m["nonlinear_final_rel"] <= 1e-5:
        return f"nonlinear_final_rel {m['nonlinear_final_rel']} > 1e-5"
    return None


def _check_control_nd(run_dir, m):
    if not m["final_rel_norm"] <= 1e-6:
        return f"final_rel_norm {m['final_rel_norm']} > 1e-6"
    return None


def _check_control_1d(run_dir, m):
    rep = m["report"]
    if not rep["final_rel_enforced"] <= 1e-8:
        return f"final_rel_enforced {rep['final_rel_enforced']} > 1e-8"
    if not rep["moment_residual_max"] <= 1e-8:
        return f"moment_residual_max {rep['moment_residual_max']} > 1e-8"
    return None


def _check_control_point(run_dir, m):
    if not m["report"]["final_rel_enforced"] <= 1e-6:
        return f"final_rel_enforced {m['report']['final_rel_enforced']} > 1e-6"
    return None


def _check_minimal_time(run_dir, m):
    if not m["T0_hat"] >= 0.5:
        return f"T0_hat {m['T0_hat']} < 0.5"
    return None


def _check_critical_set(run_dir, m):
    v = m["verdict"]
    if (v["kind"], v["j"], v["k"], v["l"]) != ("critical", 1, 1, 2):
        return f"verdict {v} is not critical at (1,1,2)"
    return None


def _check_spectrum(run_dir, m):
    if m["verdict"]["kind"] != "clear":
        return f"verdict {m['verdict']['kind']} at nu=7/2, expected clear"
    K_x, J_y = m["config"]["domain"]["K_x"], m["config"]["domain"]["J_y"]
    with open(os.path.join(run_dir, "modes.csv"), encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != K_x * J_y:
        return f"modes.csv has {rows} rows, expected {K_x * J_y}"
    return None


def _check_error(run_dir, m):
    if m.get("status") != "error":
        return f"status {m.get('status')!r}, expected error"
    if m["error"]["exit_code"] == 4 and not os.path.exists(os.path.join(run_dir, "witness.json")):
        return "exit 4 without witness.json"
    return None


_CHECKS = {
    "nonlinear": _check_nonlinear,
    "control-nd": _check_control_nd,
    "control-1d": _check_control_1d,
    "control-point": _check_control_point,
    "minimal-time": _check_minimal_time,
    "critical-set": _check_critical_set,
    "spectrum": _check_spectrum,
    "error": _check_error,
}


def find_run_dir(out_dir):
    runs = [d for d in os.listdir(out_dir) if d.startswith("run-")] if os.path.isdir(out_dir) else []
    return os.path.join(out_dir, runs[0]) if len(runs) == 1 else None


def check_run(scenario: dict, exit_code: int, out_dir: str):
    """None when the scenario's run passes, else a one-line reason."""
    if exit_code != scenario["exit"]:
        return f"exit code {exit_code}, expected {scenario['exit']}"
    run_dir = find_run_dir(out_dir)
    if run_dir is None:
        return "no single run directory written"
    if not os.path.exists(os.path.join(run_dir, "manifest.json")):
        return "no manifest.json"
    try:
        return _CHECKS[scenario["check"]](run_dir, _load(run_dir, "manifest.json"))
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"

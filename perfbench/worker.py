"""One benchmark process: imports kscontrol from ./src and runs one workload.

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace 0|1 \
        --work DIR [--spans FILE]

``probe`` prints the seconds it took to import ``kscontrol.config`` and
``kscontrol.runner`` in this fresh process, as measured and at reference
speed (see speed.py).  ``run`` repeats the workload's scenario list in
process (``config.parse_config_dict`` then ``runner.run_scenario``) until
``--seconds`` are used, checks every run directory, compares each
repetition's artifacts with the first one's, and prints one JSON object as
its last line.  Untraced runs also time a fresh
``probe`` process after each repetition.  With ``--trace 1`` untraced and
traced repetitions alternate, and the traced ones give the per-layer figures.
Every repetition time is a [seconds, seconds at reference speed] pair.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from speed import SpeedSampler

SRC = os.path.join(os.getcwd(), "src")
PROBE_PERIOD_S = 0.01
MIN_REPS = 3
MIN_PROBES = 5
# Figures of a traced repetition that must repeat exactly.
COUNT_SUFFIXES = (".calls", ".errors", ".extended_calls", ".distinct_ratio",
                  ".picard_iterations", ".etd_steps", ".bytes")


def import_program():
    """Import kscontrol from ./src; returns (seconds, seconds at reference speed)."""
    sys.path.insert(0, SRC)
    with SpeedSampler(PROBE_PERIOD_S) as sp:
        t0 = time.perf_counter()
        import kscontrol.config  # noqa: F401
        import kscontrol.runner  # noqa: F401
        elapsed = time.perf_counter() - t0
    if not os.path.abspath(kscontrol.config.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"kscontrol was imported from {kscontrol.config.__file__}, not ./src")
    return elapsed, sp.normalise(elapsed)


def run_rep(configs, rep_dir):
    """Parse, solve, verify and write every scenario.

    Returns (seconds, seconds at reference speed, exit codes).
    """
    from kscontrol import config, runner
    from kscontrol.errors import KSControlError

    codes = []
    with SpeedSampler() as sp:
        t0 = time.perf_counter()
        for i, cfg in enumerate(configs):
            try:
                runner.run_scenario(config.parse_config_dict(cfg),
                                    out_dir=os.path.join(rep_dir, f"{i:02d}"))
                codes.append(0)
            except KSControlError as exc:
                codes.append(exc.exit_code)
            except Exception as exc:  # a traceback is a failure, not the end of the run
                codes.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
    return elapsed, sp.normalise(elapsed), codes


def artifact_hashes(out_dir):
    from kscontrol.serialize import hash_dir
    from workloads import find_run_dir

    run_dir = find_run_dir(out_dir)
    if run_dir is None:
        return None
    hashes = hash_dir(run_dir)
    hashes.pop("timings.json", None)  # the one output allowed to vary between reruns
    return hashes


def artifact_bytes(rep_dir):
    total = 0
    for root, _, files in os.walk(rep_dir):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files if f != "timings.json")
    return total


class Judge:
    """Checks each scenario run and its byte-identity with the first repetition."""

    def __init__(self, scens):
        self.scens = scens
        self.reference = None
        self.attempted = 0
        self.failures = []

    def __call__(self, rep, codes, rep_dir):
        from workloads import check_run

        hashes = []
        for i, (sc, code) in enumerate(zip(self.scens, codes)):
            out_dir = os.path.join(rep_dir, f"{i:02d}")
            self.attempted += 1
            reason = check_run(sc, code, out_dir)
            hashes.append(artifact_hashes(out_dir))
            if reason is None and self.reference is not None and hashes[i] != self.reference[i]:
                reason = "artifacts differ from the first repetition's"
            if reason is not None:
                self.failures.append(f"rep {rep} {sc['name']}: {reason}")
        if self.reference is None:
            self.reference = hashes


def probe_setup():
    """Import time of kscontrol in a fresh process (the set-up every ksctl call pays).

    Returns (seconds, seconds at reference speed).
    """
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "probe"],
                          stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return res["import_s"], res["import_ref_s"]


def measure(scens, seconds, work, judge):
    """Repeat the scenario list for ``seconds``; a set-up probe follows each repetition.

    Spreading the probes over the run, rather than taking them back to back,
    keeps a few slow seconds of the machine from deciding the set-up median.
    """
    configs = json.dumps([sc["config"] for sc in scens])
    walls, setup = [], []
    start = time.perf_counter()
    while True:
        rep_dir = os.path.join(work, f"rep{len(walls)}")
        wall, wall_ref, codes = run_rep(json.loads(configs), rep_dir)
        judge(len(walls), codes, rep_dir)
        shutil.rmtree(rep_dir, ignore_errors=True)
        walls.append((wall, wall_ref))
        setup.append(probe_setup())
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_REPS and elapsed + statistics.median(w for w, _ in walls) > seconds:
            break
    while len(setup) < MIN_PROBES:
        setup.append(probe_setup())
    return walls, setup


def measure_traced(workload, scens, seconds, work, judge, spans_path):
    """Alternate untraced and traced repetitions; returns per-layer metrics and problems."""
    import tracing
    from workloads import LAYERS_EXERCISED

    configs = json.dumps([sc["config"] for sc in scens])
    plain, traced, layers, problems = [], [], [], []
    start = time.perf_counter()
    while True:
        rep = 2 * len(plain)
        rep_dir = os.path.join(work, f"rep{rep}")
        wall, wall_ref, codes = run_rep(json.loads(configs), rep_dir)
        judge(rep, codes, rep_dir)
        shutil.rmtree(rep_dir, ignore_errors=True)
        plain.append((wall, wall_ref))

        rep_dir = os.path.join(work, f"rep{rep + 1}")
        rec = tracing.Recorder()
        patches = tracing.install(rec)
        try:
            wall, wall_ref, codes = run_rep(json.loads(configs), rep_dir)
        finally:
            stray = tracing.stray_aliases(rec)
            tracing.uninstall(patches)
        if stray:
            problems.append(f"aliases left unwrapped: {stray}")
        judge(rep + 1, codes, rep_dir)
        m = rec.metrics()
        m["serialize.bytes"] = artifact_bytes(rep_dir)
        shutil.rmtree(rep_dir, ignore_errors=True)
        traced.append((wall, wall_ref))
        layers.append(m)
        pair = plain[-1][0] + traced[-1][0]
        if time.perf_counter() - start + pair > seconds:
            break

    first = layers[0]
    for m in layers[1:]:
        changed = [k for k in first if k.endswith(COUNT_SUFFIXES) and m[k] != first[k]]
        if changed:
            problems.append(f"counts differ between traced repetitions: {changed}")
    for name in LAYERS_EXERCISED[workload]:
        if first[f"{name}.calls"] == 0:
            problems.append(f"{name} recorded no calls")
    out = {}
    for key, value in first.items():
        out[key] = value if key.endswith(COUNT_SUFFIXES) else statistics.median(m[key] for m in layers)
    out["tracing_overhead_frac"] = (statistics.median(r for _, r in traced)
                                    / statistics.median(r for _, r in plain) - 1.0)
    if spans_path:
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rec.spans}, fh)
    return out, plain, traced, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    if args.mode == "probe":
        import_s, import_ref_s = import_program()
        print(json.dumps({"import_s": import_s, "import_ref_s": import_ref_s}))
        return 0
    import_program()

    import mpmath
    import numpy
    from workloads import scenarios

    scens = scenarios(args.workload, args.seed)
    judge = Judge(scens)
    result = {}
    if args.trace:
        layers, plain, traced, problems = measure_traced(
            args.workload, scens, args.seconds, args.work, judge, args.spans)
        result.update(layers=layers, wall_s=plain, traced_wall_s=traced, problems=problems)
    else:
        walls, setup = measure(scens, args.seconds, args.work, judge)
        result.update(wall_s=walls, setup_s=setup, problems=[])
    result.update(
        attempted=judge.attempted,
        failures=judge.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": platform.python_version(), "numpy": numpy.__version__,
                  "mpmath": mpmath.__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the time to a verified null control.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a kscontrol checkout; the program is imported from
./src.  Workloads: nonlinear-tensor, linear-batch, spectral-scan (see
perfbench/README.md).  The same seed always gives the same scenario configs.

With ``--trace 0`` the end-to-end metrics are measured with the program
untouched:

* ``setup_s``: median over fresh processes, one after each repetition, of
  the time to import ``kscontrol.config`` and ``kscontrol.runner``;
* ``wall_s``: median over repetitions of the time to parse, solve, verify
  and write the artifacts of the workload's whole scenario list;
* ``peak_rss_mb``: peak resident set of the process that ran the workload;
* ``verified_frac``: scenario runs whose output passed its check, over runs
  attempted (``failed_frac`` = 1 - ``verified_frac`` is printed beside it).

Both times are rescaled to reference CPU speed by a sampler that times a
fixed kernel while the program runs (speed.py; README.md says why).  Every
sample, as measured and rescaled, is printed on the ``perfbench`` line.

With ``--trace 1`` a separate run times each layer's public functions from
outside the program and reports the per-layer metrics.

Every workload runs in its own process with the BLAS pool fixed at one
thread.  Artifacts go to ``.perfbench/tmp`` and are removed; the spans of the
last traced repetition are written to ``.perfbench/spans``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
BLAS_THREADS = "1"
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
from tracing import UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _child(args, env, timeout):
    """Run a worker to completion; on timeout, kill it with any probe it started."""
    proc = subprocess.Popen([sys.executable, WORKER, *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "kscontrol", "__init__.py")):
        print("perfbench: ./src/kscontrol not found; run from the root of a kscontrol checkout",
              file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    work = os.path.join(".perfbench", "tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    spans = os.path.join(".perfbench", "spans", f"{args.workload}-seed{args.seed}.json")
    try:
        # The first import in a fresh checkout also compiles bytecode: not timed.
        _child(["probe"], env, DEADLINE_S)
        res = _child(["run", "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--work", work, "--spans", spans if args.trace else ""],
                     env, DEADLINE_S - (time.perf_counter() - t_start))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = res["attempted"]
    failed = len(res["failures"])
    correct = failed == 0 and not res["problems"]
    if args.trace:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r for _, r in res["setup_s"]), "unit": "s"},
            "wall_s": {"value": statistics.median(r for _, r in res["wall_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "verified_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_frac": failed / attempted,
        "measured_wall_s_median": statistics.median(w for w, _ in res["wall_s"]),
        "wall_s_samples": res["wall_s"], "traced_wall_s_samples": res.get("traced_wall_s"),
        "setup_s_samples": res.get("setup_s"),
        "load": {"blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(), **res["versions"]},
        "spans": spans if args.trace else None,
        "failures": res["failures"][:20], "problems": res["problems"],
    }
    print("perfbench " + json.dumps(info))
    for line in res["failures"][:20] + res["problems"]:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

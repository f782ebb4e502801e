"""Compare the artifacts of two kscontrol source trees, run by run.

    python tools/artifact_diff.py BASE_TREE HEAD_TREE [--seeds 1 2]

Runs ``ksctl`` from each tree's ``src`` on the same inputs: every
``demos/configs/*.json`` of HEAD_TREE, and the scenario list of each
benchmark workload at each seed, read from HEAD_TREE's
``perfbench/workloads.py``.  Both trees get the same config file, each with
its own ``--out``, one process per run and the BLAS pool at one thread
unless OPENBLAS_NUM_THREADS is set.  For each run it prints both exit codes
and the artifacts whose bytes differ; ``timings.json`` is left out, being
the one artifact a rerun may change.  Exits 0 when every run has equal exit
codes and equal artifacts, else 1.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

IGNORED = {"timings.json"}


def _inputs(head, seeds):
    """(label, config) for every demo config and benchmark scenario."""
    for path in sorted(glob.glob(os.path.join(head, "demos", "configs", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            yield f"demo/{os.path.basename(path)}", json.load(fh)
    spec = importlib.util.spec_from_file_location(
        "_workloads", os.path.join(head, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for sc in workloads.scenarios(workload, seed):
                yield f"{workload}/seed{seed}/{sc['name']}", sc["config"]


def _run(tree, cfg_path, task, out):
    """Exit code of one ksctl run, and {file name: sha256} of its run directory."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    proc = subprocess.run([sys.executable, "-m", "kscontrol.cli", task, "--config", cfg_path,
                           "--out", out], env=env, capture_output=True, text=True)
    runs = sorted(glob.glob(os.path.join(out, "run-*")))
    digests = {}
    for run_dir in runs[-1:]:
        for name in sorted(os.listdir(run_dir)):
            if name not in IGNORED:
                with open(os.path.join(run_dir, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return proc.returncode, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="source tree of the base commit")
    parser.add_argument("head", help="source tree of the change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                        help="benchmark seeds (default: 1 2)")
    args = parser.parse_args(argv)
    runs = differing = 0
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        for i, (label, cfg) in enumerate(_inputs(args.head, args.seeds)):
            cfg_path = os.path.join(tmp, f"{i:03d}.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            (rc_a, a), (rc_b, b) = (_run(tree, cfg_path, cfg["task"], os.path.join(tmp, f"{i:03d}-{side}"))
                                    for side, tree in (("base", args.base), ("head", args.head)))
            changed = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
            same = rc_a == rc_b and not changed
            runs, differing = runs + 1, differing + (not same)
            what = "differ: " + ", ".join(changed) if changed else f"{len(a)} artifacts identical"
            print(f"{'same' if same else 'DIFF'} {label:<48} exit {rc_a} {rc_b}  {what}", flush=True)
    print(f"artifact_diff: {runs} runs, {differing} differing (timings.json ignored)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

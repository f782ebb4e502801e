"""Run seeded mutations of the demo configs through ksctl, one process each.

    python tools/fuzz_configs.py [--seeds 1 2] [--cases 100] [--tree TREE]

Each case is a ``demos/configs/*.json`` of TREE, shrunk to at most
``K_x`` = 8 and ``J_y`` = 4 modes, with one or two of its fields replaced by
a value from ``POOL``; ``FIXED_CASES`` (inputs that once ended in a
traceback) run first.  ``ksctl`` runs from TREE's ``src`` with numpy
RuntimeWarnings as errors, as in CI.  A case fails when it ends in a Python
traceback, with an exit code outside 0-6, with a run directory that holds no
``manifest.json``, or with an exit code other than the one its manifest
records.  Each failing case is printed with its config and the last line of
its stderr; the exit status is 1 if any case failed, else 0.
"""

from __future__ import annotations

import argparse
import copy
import glob
import json
import os
import random
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Replacement values: wrong types, signs, zero, the float extremes, an integer
#: past int64, and small valid-looking ones.  No value makes a legitimately
#: large run (a J_y of 4096 is a valid nonlinear run of over 40 s).
POOL = [None, 0, -1, 0.5, 2, 1e-300, -1e-300, 1e300, -1e300, 2**70, "x", "pi", "-1",
        [], [0, 1], {}, {"x": 1}, True]

REMOVE = object()  # a FIXED_CASES value that deletes its field

#: Inputs that ended in a traceback or a silent inf: (label, demo config,
#: {dotted path: value}).  A dotted path may name a field the config lacks.
FIXED_CASES = [
    ("control_1d-T-1e-300", "control_1d.json", {"control_1d.T": 1e-300}),
    ("nonlinear-T-1e-300", "nonlinear.json", {"nonlinear.T": 1e-300}),
    ("control_1d-a-1e60-nu-0", "control_1d.json", {"domain.a": 1e60, "domain.nu": 0}),
    ("control_point-T-2^70", "control_point.json", {"control_point.T": 2**70}),
    ("simulate-T-2^70", "simulate.json",
     {"domain.nu": 0, "domain.J_y": 8, "simulate.T": 2**70}),
    ("control_1d-T-300", "control_1d.json", {"control_1d.T": 300}),
    ("simulate-T-1e300", "simulate.json", {"simulate.T": 1e300}),
    ("spectrum-a-1e200", "simulate.json",
     {"task": "spectrum", "simulate": REMOVE, "domain.a": 1e200, "domain.nu": 0}),
    ("minimal_time-a-1e100", "minimal_time.json", {"domain.a": 1e100}),
]


def demo_configs(tree=HERE) -> dict:
    """{file name: config} of every demo config, shrunk to K_x <= 8, J_y <= 4."""
    out = {}
    for path in sorted(glob.glob(os.path.join(tree, "demos", "configs", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        dom = cfg["domain"]
        dom["K_x"], dom["J_y"] = min(dom.get("K_x", 8), 8), min(dom.get("J_y", 4), 4)
        out[os.path.basename(path)] = cfg
    return out


def _paths(node, prefix=""):
    """Dotted path of every value held in a dict, at any depth."""
    for key, val in node.items():
        path = f"{prefix}{key}"
        yield path
        if isinstance(val, dict):
            yield from _paths(val, path + ".")


def _apply(cfg, sets) -> dict:
    """A copy of ``cfg`` with each dotted path set, or deleted by REMOVE."""
    cfg = copy.deepcopy(cfg)
    for path, value in sets.items():
        *parents, leaf = path.split(".")
        node = cfg
        for key in parents:
            node = node[key]
        if value is REMOVE:
            node.pop(leaf, None)
        else:
            node[leaf] = value
    return cfg


def fixed_cases(tree=HERE) -> list:
    """(label, task, config) of every FIXED_CASES entry."""
    demos = demo_configs(tree)
    out = []
    for label, name, sets in FIXED_CASES:
        cfg = _apply(demos[name], sets)
        out.append((label, cfg["task"], cfg))
    return out


def mutations(seed: int, count: int, tree=HERE, names=None) -> list:
    """(label, task, config) of ``count`` seeded mutations: a demo config, one
    of ``names`` (default: every one, sorted), with one or two fields, neither
    inside the other, replaced from POOL.  The task is the demo's, whatever
    the mutation did to the config's own."""
    rng = random.Random(seed)
    demos = demo_configs(tree)
    names = sorted(demos) if names is None else list(names)
    out = []
    for i in range(count):
        name = rng.choice(names)
        paths = sorted(_paths(demos[name]))
        chosen = rng.sample(paths, rng.choice((1, 2)))
        if len(chosen) == 2 and (chosen[0].startswith(chosen[1] + ".")
                                 or chosen[1].startswith(chosen[0] + ".")):
            chosen = chosen[:1]
        sets = {path: rng.choice(POOL) for path in chosen}
        label = f"seed{seed}/{i:03d} {name} " + " ".join(f"{p}={v!r}" for p, v in sets.items())
        out.append((label, demos[name]["task"], _apply(demos[name], sets)))
    return out


def failure(rc, stderr, out_dir):
    """Why a case that exited with ``rc``, writing ``stderr``, fails, or None."""
    if "Traceback" in stderr:
        return "traceback"
    if rc not in range(7):
        return f"exit code {rc}"
    runs = glob.glob(os.path.join(out_dir, "run-*"))
    if not runs:
        return None if rc == 2 else f"exit {rc} without a run directory"
    manifest_path = os.path.join(runs[0], "manifest.json")
    if not os.path.exists(manifest_path):
        return "run directory without manifest.json"
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    want = manifest["error"]["exit_code"] if manifest.get("status") == "error" else 0
    return None if rc == want else f"exit {rc}, manifest records {want}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1],
                        help="mutation seeds (default: 1)")
    parser.add_argument("--cases", type=int, default=100, help="mutations per seed (default: 100)")
    parser.add_argument("--tree", default=HERE, help="source tree to run (default: this one)")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(args.tree), "src"),
               PYTHONWARNINGS="error::RuntimeWarning")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    cases = fixed_cases(args.tree)
    for seed in args.seeds:
        cases += mutations(seed, args.cases, args.tree)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="fuzz-configs-") as tmp:
        for i, (label, task, cfg) in enumerate(cases):
            cfg_path, out_dir = os.path.join(tmp, f"{i:04d}.json"), os.path.join(tmp, f"{i:04d}")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            try:
                proc = subprocess.run([sys.executable, "-m", "kscontrol.cli", task, "--config",
                                       cfg_path, "--out", out_dir], env=env, capture_output=True,
                                      text=True, timeout=300)
                why, last = failure(proc.returncode, proc.stderr, out_dir), proc.stderr
            except subprocess.TimeoutExpired:
                why, last = "no exit within 300 s", ""
            if why is not None:
                failed += 1
                tail = (last.strip().splitlines() or [""])[-1]
                print(f"FAIL {label}: {why}\n    {tail}\n    {json.dumps(cfg)}", flush=True)
    print(f"fuzz_configs: {len(cases)} cases, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare the artifacts of two kscontrol source trees, run by run.

    python tools/artifact_diff.py BASE_TREE HEAD_TREE [--seeds 1 2] [--verdicts]

Runs ``ksctl`` from each tree's ``src`` on the same inputs: every
``demos/configs/*.json`` of HEAD_TREE, and the scenario list of each
benchmark workload at each seed, read from HEAD_TREE's
``perfbench/workloads.py``.  Both trees get the same config file, each with
its own ``--out``, one process per run and the BLAS pool at one thread
unless OPENBLAS_NUM_THREADS is set.  For each run it prints both exit codes
and the artifacts whose bytes differ, a file that only one run wrote marked
``added`` or ``removed``; ``timings.json`` is left out, being the one
artifact a rerun may change.  When ``manifest.json`` differs, it
also prints each changed scalar leaf (``path: base -> head``) and, for each
changed list of numbers, its largest relative change; for each differing
CSV, how many of its numeric fields changed and the largest relative
change.  A change in a list or a CSV is measured against the largest base
magnitude of that list or file (`_relative`), so a field that is 0.0 at the
base reads finite; only a list or file that is all zero at the base reads
inf.  Exits 0 when every run has equal exit codes and equal artifacts,
else 1.

With ``--verdicts``, a change that moves artifacts on purpose is checked
for equal verdicts instead: it exits 0 when every run has equal exit codes
and each closed-loop residual and scanned minimal time of its manifest
(`VERDICT_KEYS`) moves by at most `VERDICT_ATOL`, still listing every
artifact that differs.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile

IGNORED = {"timings.json"}
# the closed-loop residuals, relative to the initial norm, that judge a run,
# the moment residual that a 1-D synthesis certifies, and the scanned minimal
# time that the minimal-time gate and the benchmark's minimal-time check read
VERDICT_KEYS = ("final_rel_norm", "linear_final_rel", "nonlinear_final_rel",
                "report.final_rel_enforced", "report.moment_residual_max", "T0_hat")
VERDICT_ATOL = 1e-12


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
    """Exit code of one ksctl run, {file name: sha256} of its run directory,
    its parsed manifest (None without one) and {file name: text} of its CSVs."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    proc = subprocess.run([sys.executable, "-m", "kscontrol.cli", task, "--config", cfg_path,
                           "--out", out], env=env, capture_output=True, text=True)
    runs = sorted(glob.glob(os.path.join(out, "run-*")))
    digests, manifest, csvs = {}, None, {}
    for run_dir in runs[-1:]:
        for name in sorted(os.listdir(run_dir)):
            if name not in IGNORED:
                with open(os.path.join(run_dir, name), "rb") as fh:
                    data = fh.read()
                digests[name] = hashlib.sha256(data).hexdigest()
                if name == "manifest.json":
                    manifest = json.loads(data)
                elif name.endswith(".csv"):
                    csvs[name] = data.decode()
    return proc.returncode, digests, manifest, csvs


def _marked(name, base, head):
    """``name``, marked ``(added)`` or ``(removed)`` when only the head or only
    the base run wrote it; ``base`` and ``head`` hold the names each wrote."""
    return name + (" (added)" if name not in base else " (removed)" if name not in head else "")


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _leaves(node, path=""):
    """{path: value} of a JSON tree; a list of numbers is one leaf."""
    if isinstance(node, dict):
        items = ((f"{path}.{key}" if path else str(key), val) for key, val in node.items())
    elif isinstance(node, list) and not (node and all(map(_is_number, node))):
        items = ((f"{path}[{i}]", val) for i, val in enumerate(node))
    else:
        return {path: node}
    out = {}
    for sub, val in items:
        out.update(_leaves(val, sub))
    return out


def _relative(change, scale):
    """``change / scale``: inf when the scale is 0 and something changed."""
    return change / scale if scale else (math.inf if change else 0.0)


def _manifest_changes(base, head):
    """One line per leaf of the manifest that differs between the two runs."""
    a, b = _leaves(base), _leaves(head)
    lines = []
    for path in sorted(a.keys() | b.keys()):
        va, vb = a.get(path, "(absent)"), b.get(path, "(absent)")
        if repr(va) == repr(vb):  # repr, so that NaN equals NaN
            continue
        if (isinstance(va, list) and isinstance(vb, list) and len(va) == len(vb)
                and all(map(_is_number, va + vb))):
            rel = _relative(max(abs(y - x) for x, y in zip(va, vb) if repr(x) != repr(y)),
                            max(map(abs, va)))
            lines.append(f"{path}: list of {len(va)}, largest relative change {rel:.3g}")
        else:
            lines.append(f"{path}: {va!r} \u2192 {vb!r}")
    return lines


def _csv_change(base, head):
    """How many numeric fields of two CSV texts differ, and the largest
    change relative to the file's largest base magnitude; the first
    difference that is not a number instead."""
    lines_a, lines_b = base.splitlines(), head.splitlines()
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} \u2192 {len(lines_b)} lines"
    fields = changed = 0
    change = scale = 0.0
    for line_a, line_b in zip(lines_a, lines_b):
        row_a, row_b = line_a.split(","), line_b.split(",")
        fields += len(row_a)
        if len(row_a) != len(row_b):
            return f"line {line_a!r} \u2192 {line_b!r}"
        for x, y in zip(row_a, row_b):
            try:
                x_num = float(x)
            except ValueError:  # a header or label
                x_num = None
            else:
                scale = max(scale, abs(x_num))
            if x == y:
                continue
            try:
                y_num = float(y)
            except ValueError:
                y_num = None
            if x_num is None or y_num is None:
                return f"field {x!r} \u2192 {y!r}"
            changed += 1
            change = max(change, abs(y_num - x_num))
    return (f"{changed} of {fields} fields changed, largest relative change "
            f"{_relative(change, scale):.3g}")


def _verdict_moves(base, head):
    """One line per `VERDICT_KEYS` entry of the two manifests that is present
    in only one, or moves by more than `VERDICT_ATOL`."""
    a, b = _leaves(base or {}), _leaves(head or {})
    lines = []
    for key in VERDICT_KEYS:
        va, vb = a.get(key), b.get(key)
        if va is None and vb is None:
            continue
        if not (_is_number(va) and _is_number(vb) and abs(vb - va) <= VERDICT_ATOL):
            lines.append(f"verdict {key}: {va!r} \u2192 {vb!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="source tree of the base commit")
    parser.add_argument("head", help="source tree of the change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                        help="benchmark seeds (default: 1 2)")
    parser.add_argument("--verdicts", action="store_true",
                        help=f"pass on equal exit codes, and closed-loop residuals and "
                             f"minimal times within {VERDICT_ATOL:g}, though artifacts differ")
    args = parser.parse_args(argv)
    runs = differing = failing = 0
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        for i, (label, cfg) in enumerate(_inputs(args.head, args.seeds)):
            cfg_path = os.path.join(tmp, f"{i:03d}.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            (rc_a, a, man_a, csv_a), (rc_b, b, man_b, csv_b) = (
                _run(tree, cfg_path, cfg["task"], os.path.join(tmp, f"{i:03d}-{side}"))
                for side, tree in (("base", args.base), ("head", args.head)))
            changed = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
            same = rc_a == rc_b and not changed
            moves = _verdict_moves(man_a, man_b) if args.verdicts else []
            passed = (rc_a == rc_b and not moves) if args.verdicts else same
            runs, differing, failing = runs + 1, differing + (not same), failing + (not passed)
            what = ("differ: " + ", ".join(_marked(name, a, b) for name in changed) if changed
                    else f"{len(a)} artifacts identical")
            print(f"{'same' if same else 'DIFF'} {label:<48} exit {rc_a} {rc_b}  {what}", flush=True)
            if "manifest.json" in changed and man_a is not None and man_b is not None:
                for line in _manifest_changes(man_a, man_b):
                    print(f"    {line}", flush=True)
            for name in changed:
                if name in csv_a and name in csv_b:
                    print(f"    {name}: {_csv_change(csv_a[name], csv_b[name])}", flush=True)
            for line in moves:
                print(f"    {line}", flush=True)
    print(f"artifact_diff: {runs} runs, {differing} differing (timings.json ignored)")
    if args.verdicts:
        print(f"artifact_diff: {failing} runs with a different exit code or verdict")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())

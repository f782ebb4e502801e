"""The benchmark's layer pins, checked in process.

Each workload's seed-1 scenario list runs once under the benchmark's tracer
(`perfbench/tracing.py`), as a traced repetition of `perfbench/worker.py`
does.  Every layer the workload must reach (`LAYERS_EXERCISED`) has to
record calls, and no module attribute may be left bound to an unwrapped
original, so a refactor that routes around a pinned layer fails here and
not only in the traced benchmark run.  The files under `perfbench/` are
only read.
"""

import importlib.util
import pathlib

import pytest

from kscontrol import config, runner
from kscontrol.errors import KSControlError

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_reaches_every_pinned_layer(tmp_path, workload):
    scenarios = workloads.scenarios(workload, 1)
    rec = tracing.Recorder()
    patches = tracing.install(rec)
    codes = []
    try:
        for i, sc in enumerate(scenarios):
            try:
                runner.run_scenario(config.parse_config_dict(sc["config"]),
                                    out_dir=str(tmp_path / f"{i:02d}"))
                codes.append(0)
            except KSControlError as exc:
                codes.append(exc.exit_code)
    finally:
        stray = tracing.stray_aliases(rec)
        tracing.uninstall(patches)
    assert stray == []
    silent = [name for name in workloads.LAYERS_EXERCISED[workload]
              if rec.totals[name]["calls"] == 0]
    assert silent == [], f"pinned layers that recorded no calls: {silent}"
    failures = [(sc["name"], workloads.check_run(sc, code, str(tmp_path / f"{i:02d}")))
                for i, (sc, code) in enumerate(zip(scenarios, codes))]
    assert [f for f in failures if f[1] is not None] == []

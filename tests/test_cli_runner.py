import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscontrol.cli import main as cli_main
from kscontrol.config import _FIELDS, ConfigError, parse_config_dict
from kscontrol.lebeau_robbiano import default_rho
from kscontrol.runner import run_scenario
from kscontrol.serialize import hash_dir
from kscontrol.spectrum import critical_set_check


def base_domain(**over):
    d = {"a": "pi", "nu": 0, "cross_section": {"box": ["pi"]}, "K_x": 16, "J_y": 8}
    d.update(over)
    return d


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_minimal_spectrum_config_defaults():
    sc = parse_config_dict({"task": "spectrum", "domain": base_domain()})
    assert sc.spec.K_x == 16
    assert sc.seed == 0
    assert sc.output_dir == "runs"


def test_rational_nu_critical_surfaced_at_parse():
    sc = parse_config_dict({
        "task": "control-1d",
        "domain": base_domain(nu="7/1"),
        "control_1d": {"T": 1.0, "u0_modes": {"1": 1.0}},
    })
    assert critical_set_check(sc.spec).kind == "critical"


def test_unknown_field_rejected_with_path():
    with pytest.raises(ConfigError) as exc:
        parse_config_dict({"task": "spectrum", "domain": base_domain(bogus=1)})
    assert "domain.bogus" in str(exc.value)


def test_unknown_task_rejected():
    with pytest.raises(ConfigError):
        parse_config_dict({"task": "fly-to-the-moon", "domain": base_domain()})


def test_bad_mode_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config_dict({
            "task": "control-nd",
            "domain": base_domain(),
            "control_nd": {"T": 1.0, "u0_modes": {"1": 1.0}},
        })
    assert "u0_modes" in str(exc.value)


def test_point_spec_parsing():
    sc = parse_config_dict({
        "task": "minimal-time",
        "domain": base_domain(),
        "minimal_time": {"point": {"algebraic": [1, 2, -1], "root_index": 0}},
    })
    assert sc.params["point"].kind == "algebraic"


def test_tiny_algebraic_root_parses():
    sc = parse_config_dict({
        "task": "minimal-time",
        "domain": base_domain(),
        "minimal_time": {"point": {"algebraic": [10**40, 1, -1]}, "k_max": 100},
    })
    assert sc.params["point"].data == ((10**40, 1, -1), 0)
    assert sc.params["k_max"] == 100


# ---------------------------------------------------------------------------
# runner + artifacts
# ---------------------------------------------------------------------------

def test_spectrum_task_artifacts(tmp_path):
    sc = parse_config_dict({"task": "spectrum", "domain": base_domain(J_y=6)})
    manifest, run_dir = run_scenario(sc, out_dir=str(tmp_path))
    assert manifest["status"] == "ok"
    assert manifest["verdict"]["kind"] == "clear"
    assert os.path.exists(os.path.join(run_dir, "modes.csv"))
    assert os.path.exists(os.path.join(run_dir, "cross_section.csv"))
    assert os.path.exists(os.path.join(run_dir, "timings.json"))


def test_control_1d_task_meets_criterion(tmp_path):
    sc = parse_config_dict({
        "task": "control-1d",
        "domain": base_domain(),
        "control_1d": {"j": 1, "T": 1.0, "K_trunc": 8, "u0_modes": {"1": 1.0}},
    })
    manifest, run_dir = run_scenario(sc, out_dir=str(tmp_path))
    assert manifest["report"]["final_rel_enforced"] <= 1e-6
    assert manifest["report"]["moment_residual_max"] <= 1e-8
    assert os.path.exists(os.path.join(run_dir, "control.csv"))
    assert os.path.exists(os.path.join(run_dir, "trace.csv"))


def test_critical_parameter_exit_code(tmp_path):
    sc = parse_config_dict({
        "task": "control-1d",
        "domain": base_domain(nu="7/1"),
        "control_1d": {"T": 1.0, "u0_modes": {"1": 1.0}},
    })
    from kscontrol.errors import CriticalParameter

    with pytest.raises(CriticalParameter) as exc:
        run_scenario(sc, out_dir=str(tmp_path))
    assert exc.value.exit_code == 3
    # partial outputs flushed: the manifest records the error
    run_dirs = [d for d in os.listdir(tmp_path) if d.startswith("run-")]
    manifest = json.load(open(os.path.join(tmp_path, run_dirs[0], "manifest.json")))
    assert manifest["status"] == "error"
    assert manifest["error"]["exit_code"] == 3


@pytest.mark.parametrize("override, reason", [({"max_iter": 1}, "cap"),
                                              ({"r_guess": 1e-6}, "radius")])
def test_no_contraction_manifest_records_reason(tmp_path, override, reason):
    from kscontrol.errors import NoContraction

    sc = parse_config_dict({
        "task": "nonlinear",
        "domain": base_domain(K_x=8),
        "nonlinear": {"T": 1.0, "beta": 4, "u0_modes": {"1,1": 1e-3}, **override},
    })
    with pytest.raises(NoContraction) as exc:
        run_scenario(sc, out_dir=str(tmp_path))
    assert exc.value.exit_code == 6
    run_dirs = [d for d in os.listdir(tmp_path) if d.startswith("run-")]
    manifest = json.load(open(os.path.join(tmp_path, run_dirs[0], "manifest.json")))
    assert manifest["error"]["exit_code"] == 6
    assert manifest["error"]["reason"] == reason


def test_nonlinear_run_records_how_the_iteration_stopped(tmp_path):
    sc = parse_config_dict({
        "task": "nonlinear",
        "domain": base_domain(K_x=8),
        "nonlinear": {"T": 1.0, "beta": 4, "u0_modes": {"1,1": 1e-3}},
    })
    manifest, run_dir = run_scenario(sc, out_dir=str(tmp_path))
    ver = json.load(open(os.path.join(run_dir, "verification.json")))
    for record in (manifest, ver):
        assert record["stop_reason"] == "tol"
        assert 0.0 < record["delta_floor"] < float("inf")


def test_below_minimal_time_writes_witness(tmp_path):
    sc = parse_config_dict({
        "task": "control-point",
        "domain": base_domain(),
        "control_point": {
            "j": 1, "T": 0.5, "K_trunc": 8, "u0_modes": {"1": 1.0},
            "point": {"liouville": "quartic_anchor3", "depth": 6},
        },
    })
    from kscontrol.errors import BelowMinimalTime

    with pytest.raises(BelowMinimalTime):
        run_scenario(sc, out_dir=str(tmp_path))
    run_dirs = [d for d in os.listdir(tmp_path) if d.startswith("run-")]
    witness = json.load(open(os.path.join(tmp_path, run_dirs[0], "witness.json")))
    assert 3 in witness["k"]


def test_simulate_free_decay_rates(tmp_path):
    sc = parse_config_dict({
        "task": "simulate",
        "domain": base_domain(),
        "simulate": {"T": 0.5, "j": 1, "u0_modes": {"2": 1.0}},
    })
    manifest, run_dir = run_scenario(sc, out_dir=str(tmp_path))
    import math

    lam2 = sc.spec.x_eigenvalue(2, 1)
    expect = math.exp(lam2 * 0.5)
    assert manifest["free_decay"]["final_norm"] == pytest.approx(expect, rel=1e-10)
    assert manifest["free_decay"]["slowest_active_rate"] == pytest.approx(lam2)


def test_determinism_bit_identical_artifacts(tmp_path):
    cfg = {
        "task": "control-nd",
        "seed": 77,
        "domain": base_domain(K_x=6, J_y=6),
        "control_nd": {"T": 1.0, "beta": 4, "u0_modes": {"1,1": 1.0, "2,3": -0.5}},
    }
    h = []
    for sub in ("r1", "r2"):
        sc = parse_config_dict(cfg)
        _, run_dir = run_scenario(sc, out_dir=str(tmp_path / sub))
        d = hash_dir(run_dir)
        d.pop("timings.json")  # the documented non-deterministic sidecar
        h.append(d)
    assert h[0] == h[1]


def test_cli_end_to_end(tmp_path):
    cfg = {
        "task": "biortho",
        "domain": base_domain(),
        "biortho": {"j": 1, "K": 8, "T": 0.5},
        "output": {"dir": str(tmp_path)},
    }
    cfg_path = tmp_path / "b.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["biortho", "--config", str(cfg_path)])
    assert rc == 0


def test_cli_task_mismatch(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"task": "spectrum", "domain": base_domain()}))
    rc = cli_main(["biortho", "--config", str(cfg_path)])
    assert rc == 2


def test_cli_critical_exit_code(tmp_path):
    cfg = {
        "task": "control-1d",
        "domain": base_domain(nu="7/1"),
        "control_1d": {"T": 1.0, "u0_modes": {"1": 1.0}},
        "output": {"dir": str(tmp_path)},
    }
    cfg_path = tmp_path / "crit.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["control-1d", "--config", str(cfg_path)])
    assert rc == 3


def test_external_file_config_end_to_end(tmp_path):
    mu_file = tmp_path / "mu.txt"
    mu_file.write_text("# external cross-section spectrum\n1.0\n4.0\n9.0\n16.0\n")
    cfg = {
        "task": "spectrum",
        "domain": {
            "a": "pi", "nu": 0,
            "cross_section": {"external_file": str(mu_file)},
            "K_x": 6, "J_y": 4,
        },
    }
    sc = parse_config_dict(cfg)
    manifest, run_dir = run_scenario(sc, out_dir=str(tmp_path))
    assert manifest["status"] == "ok"
    assert sc.spec.mu(2) == 4.0


# ---------------------------------------------------------------------------
# invalid input: exit 2 with the field path, never a traceback
# ---------------------------------------------------------------------------

DEMO_CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "demos" / "configs"
_MISSING = object()


def _demo(name, path, value):
    """The demo config ``name`` with the dotted ``path`` set to ``value`` (or removed)."""
    cfg = json.loads((DEMO_CONFIGS / name).read_text())
    *parents, leaf = path.split(".")
    node = cfg
    for key in parents:
        node = node[key]
    if value is _MISSING:
        node.pop(leaf, None)
    else:
        node[leaf] = value
    return cfg


_POINT = "minimal_time.point"


def _whole_section(section, geometry):
    """A ``section`` config with K_x = 30 > K_bio_max and the given geometry (None: default)."""
    cfg = {"task": section.replace("_", "-"), "domain": base_domain(K_x=30, J_y=4),
           section: {"T": 1.0, "beta": 4, "u0_modes": {"1,1": 1.0}}}
    if geometry is not None:
        cfg[section]["geometry"] = geometry
    return cfg


BAD_INPUTS = [
    ("K_trunc-too-large", _demo("control_1d.json", "control_1d.K_trunc", 30), "control_1d.K_trunc"),
    ("K_trunc-fraction", _demo("control_1d.json", "control_1d.K_trunc", 8.5), "control_1d.K_trunc"),
    ("j-string", _demo("control_1d.json", "control_1d.j", "1"), "control_1d.j"),
    ("j-zero", _demo("control_1d.json", "control_1d.j", 0), "control_1d.j"),
    ("j-beyond-J_y", _demo("control_1d.json", "control_1d.j", 99), "control_1d.j"),
    ("mode-nan", _demo("control_1d.json", "control_1d.u0_modes.3", math.nan),
     "control_1d.u0_modes.3"),
    ("mode-beyond-K_x", _demo("control_1d.json", "control_1d.u0_modes.99", 1.0),
     "control_1d.u0_modes.99"),
    ("T-missing", _demo("control_1d.json", "control_1d.T", _MISSING), "control_1d.T"),
    ("u0-missing", _demo("control_1d.json", "control_1d.u0_modes", _MISSING),
     "control_1d.u0_modes"),
    ("rho-string", _demo("control_nd.json", "control_nd.rho", "0.5"), "control_nd.rho"),
    ("beta-fraction", _demo("control_nd.json", "control_nd.beta", 4.5), "control_nd.beta"),
    # the schedule's ranges: 0 < rho < 1/(N-1) and beta > K0 (K0 = 1 at nu = 0)
    ("rho-above-range", _demo("control_nd.json", "control_nd.rho", 2.0), "control_nd.rho"),
    ("rho-zero", _demo("control_nd.json", "control_nd.rho", 0.0), "control_nd.rho"),
    ("beta-at-K0", _demo("control_nd.json", "control_nd.beta", 1), "control_nd.beta"),
    ("omega-outside-box", _demo("control_nd.json", "control_nd.geometry.boundary.omega",
                                [0.3, 9.0]), "control_nd.geometry.boundary.omega"),
    ("n_samples-zero", _demo("simulate.json", "simulate.n_samples", 0), "simulate.n_samples"),
    ("biortho-K-too-large", {"task": "biortho", "domain": base_domain(), "biortho": {"K": 30}},
     "biortho.K"),
    ("k_max-string", _demo("minimal_time.json", "minimal_time.k_max", "100"),
     "minimal_time.k_max"),
    ("q_w-above-sqrt2", _demo("nonlinear.json", "nonlinear.q_w", 2.0), "nonlinear.q_w"),
    ("sim_steps-below-replay-minimum", _demo("nonlinear.json", "nonlinear.sim_steps", 999),
     "nonlinear.sim_steps"),
    ("rational-not-integer", _demo("minimal_time.json", _POINT, {"rational": "1/x"}),
     f"{_POINT}.rational"),
    ("real-not-a-number", _demo("minimal_time.json", _POINT, {"real": "abc"}), f"{_POINT}.real"),
    # refused from its exponent, before the 10^100000 denominator is built
    ("real-beyond-1000-places", _demo("minimal_time.json", _POINT, {"real": "1e-100000"}),
     f"{_POINT}.real"),
    ("root_index-beyond-roots", _demo("minimal_time.json", _POINT,
                                      {"algebraic": [1, 2, -1], "root_index": 5}),
     f"{_POINT}.root_index"),
    # actuation on the whole cross-section solves for all K_x x-modes per slice
    ("tensor-K_x-beyond-family", _whole_section("control_nd", {"boundary": {}}),
     "control_nd.geometry"),
    ("nonlinear-tensor-K_x-beyond-family",
     _whole_section("nonlinear", {"boundary": {"omega": None}}), "nonlinear.geometry"),
    ("internal-direct-K_x-beyond-family",
     _whole_section("control_nd", {"internal": {"point": {"algebraic": [1, 2, -1]}}}),
     "control_nd.geometry"),
    ("default-geometry-K_x-beyond-family", _whole_section("control_nd", None), "domain.K_x"),
    # the nonlinear term needs the eigenfunctions of a box
    ("nonlinear-on-external", _demo("nonlinear.json", "domain.cross_section",
                                    {"external": [j * j for j in range(1, 17)]}),
     "domain.cross_section"),
    # literals beyond the float range, or not finite
    ("box-pi-over-zero", _demo("control_1d.json", "domain.cross_section", {"box": ["pi/0"]}),
     "domain.cross_section.box"),
    ("a-overflows", _demo("control_1d.json", "domain.a", "1e400"), "domain.a"),
    ("T-integer-overflows", _demo("control_1d.json", "control_1d.T", 10**400), "control_1d.T"),
    ("nu-overflows", _demo("control_1d.json", "domain.nu", "1e400"), "domain.nu"),
    ("box-side-overflows", _demo("control_1d.json", "domain.cross_section", {"box": ["1e400"]}),
     "domain.cross_section.box"),
    ("box-side-nan", _demo("control_1d.json", "domain.cross_section", {"box": [math.nan]}),
     "domain.cross_section.box"),
    ("external-nan", _demo("control_1d.json", "domain.cross_section",
                           {"external": [math.nan, 4.0, 9.0, 16.0]}),
     "domain.cross_section.external"),
    ("external-infinite", _demo("control_1d.json", "domain.cross_section",
                                {"external": [1.0, math.inf, math.inf, math.inf]}),
     "domain.cross_section.external"),
    # sizes: at most MAX_MODES modes per axis, MAX_MODE_COUNT modes in all, and a
    # box enumeration of at most MAX_BOX_TUPLES index tuples
    ("K_x-astronomical", _demo("control_1d.json", "domain.K_x", 10**400), "domain.K_x"),
    ("J_y-beyond-max-modes", _demo("control_1d.json", "domain.J_y", 4097), "domain.J_y"),
    ("modes-beyond-max-mode-count",
     {"task": "spectrum", "domain": base_domain(K_x=2048, J_y=2048)}, "domain.J_y"),
    ("box-sides-astronomically-apart", _demo("control_1d.json", "domain.cross_section",
                                             {"box": ["pi", 1e-300]}), "domain"),
    ("J_y-beyond-box-tuples", _demo("nonlinear_3d.json", "domain.J_y", 4096), "domain.J_y"),
    # counts bounded by spectrum.MAX_K_MAX, MAX_SIM_STEPS and MAX_TRACE_ROWS: each
    # value below asks numpy for a 7.28 TiB array when let through
    ("k_max-beyond-max", _demo("minimal_time.json", "minimal_time.k_max", 10**12),
     "minimal_time.k_max"),
    ("sim_steps-beyond-max", _demo("nonlinear.json", "nonlinear.sim_steps", 10**12),
     "nonlinear.sim_steps"),
    ("n_samples-beyond-trace-rows", _demo("simulate.json", "simulate.n_samples", 10**12),
     "simulate.n_samples"),
    # point fields whose parse time grows with their size (over 30 s each when let through)
    ("liouville-depth-beyond-max", _demo("minimal_time.json", _POINT,
                                         {"liouville": "quartic_anchor3", "depth": 10**6}),
     f"{_POINT}.depth"),
    ("algebraic-degree-beyond-max", _demo("minimal_time.json", _POINT,
                                          {"algebraic": [1] + [0] * 98 + [1, -1]}),
     f"{_POINT}.algebraic"),
]


@pytest.mark.parametrize("cfg, field", [c[1:] for c in BAD_INPUTS], ids=[c[0] for c in BAD_INPUTS])
def test_cli_invalid_input_exits_2_naming_the_field(tmp_path, capsys, cfg, field):
    cfg = dict(cfg, output={"dir": str(tmp_path / "runs")})
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))  # json writes NaN as a literal that json.load reads back
    rc = cli_main([cfg["task"], "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"config error: {field}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


# One field of a demo config, from the domain or from the task's own section.
FIELD_TARGETS = [
    (path.name, section, key)
    for path in sorted(DEMO_CONFIGS.glob("*.json"))
    for section in ("domain", json.loads(path.read_text())["task"].replace("-", "_"))
    for key in sorted(_FIELDS[section])
]
BAD_VALUES = st.one_of(
    st.sampled_from(["x", "0.5", [], [1, 2], {}, {"bogus": 1}, True, None]),  # wrong type
    st.sampled_from([0, -1, -0.5, 0.5, -1e300, 4096, 10**9, 1e300]),  # out of range or not an integer
    st.sampled_from([math.nan, math.inf, -math.inf]),  # non-finite
    st.just(_MISSING),
)


@given(target=st.sampled_from(FIELD_TARGETS), value=BAD_VALUES)
@settings(max_examples=200, deadline=None)
def test_one_bad_field_parses_or_names_its_path(target, value):
    name, section, key = target
    path = f"{section}.{key}"
    try:
        parse_config_dict(_demo(name, path, value))
    except ConfigError as exc:
        assert exc.field.startswith(path), (exc.field, path, value)


# ---------------------------------------------------------------------------
# defaults that depend on the domain
# ---------------------------------------------------------------------------

def test_unset_rho_fits_a_3d_cylinder(tmp_path):
    # unset, rho is DEFAULT_RHO / (N - 1): 0.5 on the strip, 0.25 on a 3-D cylinder,
    # whose range is (0, 1/2)
    assert default_rho(parse_config_dict(_demo("control_nd.json", "control_nd.rho",
                                               _MISSING)).spec) == 0.5
    cfg = _demo("control_nd.json", "control_nd.rho", _MISSING)
    cfg["domain"].update(cross_section={"box": ["pi", "pi"]}, J_y=8)
    cfg["control_nd"]["geometry"] = {"boundary": {"omega": [[0.3, 1.2], [0.5, 2.0]]}}
    cfg["output"] = {"dir": str(tmp_path / "runs")}
    cfg_path = tmp_path / "nd3.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["control-nd", "--config", str(cfg_path)]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["schedule"]["rho"] == 0.25
    assert manifest["final_rel_norm"] < 1e-12


# ---------------------------------------------------------------------------
# the paper's nonlinear setting: control on {0} x omega, omega a strict subset
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["nonlinear_omega.json", "nonlinear_3d.json"])
def test_strict_omega_nonlinear_config_meets_c10a(tmp_path, name):
    # c10a's bar on N = 2 and N = 3, through ksctl; the Gramian phases evaluate
    # Legendre integrals, so this also runs the deferred scipy import end to end
    cfg = json.loads((DEMO_CONFIGS / name).read_text())
    cfg["output"] = {"dir": str(tmp_path / "runs")}
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["nonlinear", "--config", str(cfg_path)]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    ver = json.loads((run_dir / "verification.json").read_text())
    assert ver["stop_reason"] == "tol"
    assert ver["ratios"] and all(r < 0.9 for r in ver["ratios"])
    assert ver["nonlinear_final_rel"] <= 1e-5


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

def test_cli_import_leaves_scipy_and_mpmath_unloaded():
    # scipy costs several times numpy's import and is needed only by Legendre
    # integrals, mpmath only by pointwise actuators, so each is imported inside
    # the functions that use it.  A fresh interpreter is needed: this one has
    # both loaded by the tests.
    import kscontrol

    src = str(pathlib.Path(kscontrol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "import kscontrol.config, kscontrol.runner, kscontrol.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"

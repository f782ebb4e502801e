import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kscontrol.cli import main as cli_main
from kscontrol.config import _FIELDS, ConfigError, parse_config_dict
from kscontrol.lebeau_robbiano import build_schedule, default_rho
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
    for _, cfg, field in UNKNOWN_FIELDS:
        with pytest.raises(ConfigError) as exc:
            parse_config_dict(cfg)
        assert str(exc.value) == f"{field}: unknown field"


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


@pytest.mark.parametrize("override, reason", [({"max_iter": 1}, "cap")])
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

    lam2 = sc.spec.x_rates(1)[1]
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


# fields no run reads are not fields: each is refused as unknown
UNKNOWN_FIELDS = [
    ("margin-unknown", _demo("control_point.json", "control_point.margin", 0.1),
     "control_point.margin"),
    ("search_bound-unknown",
     {"task": "critical-set", "domain": base_domain(), "critical_set": {"search_bound": 4}},
     "critical_set.search_bound"),
    ("r_guess-unknown", _demo("nonlinear.json", "nonlinear.r_guess", 1.0), "nonlinear.r_guess"),
    ("p-unknown", _demo("nonlinear.json", "nonlinear.p", 2.0), "nonlinear.p"),
]
BAD_INPUTS = [
    *UNKNOWN_FIELDS,
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
    # actuation on the whole cross-section solves for all K_x x-modes per slice:
    # the bound names K_x, whether the geometry is given or the default
    ("tensor-K_x-beyond-family", _whole_section("control_nd", {"boundary": {}}), "domain.K_x"),
    ("nonlinear-tensor-K_x-beyond-family",
     _whole_section("nonlinear", {"boundary": {"omega": None}}), "domain.K_x"),
    ("internal-direct-K_x-beyond-family",
     _whole_section("control_nd", {"internal": {"point": {"algebraic": [1, 2, -1]}}}),
     "domain.K_x"),
    ("default-geometry-K_x-beyond-family", _whole_section("control_nd", None), "domain.K_x"),
    # the interior run on the whole cross-section is one window with no schedule
    ("internal-whole-section-rho", _demo("control_nd_interior.json", "control_nd.rho", 0.5),
     "control_nd.rho"),
    ("internal-whole-section-beta", _demo("control_nd_interior.json", "control_nd.beta", 4),
     "control_nd.beta"),
    ("nonlinear-internal-whole-section-beta",
     _demo("nonlinear.json", "nonlinear.geometry", {"internal": {"point": {"rational": "1/3"}}}),
     "nonlinear.beta"),
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
    # unset, n_samples is 129: 129 x 512 x 512 trace rows exceed MAX_TRACE_ROWS
    ("n_samples-default-beyond-trace-rows",
     {"task": "simulate", "domain": base_domain(K_x=512, J_y=512)}, "simulate.n_samples"),
    # nu a^2 / pi^2 bounded by spectrum.MAX_NU_SCALE; the larger factor names the field
    ("nu-beyond-critical-scan", _demo("control_1d.json", "domain.nu", 10**7), "domain.nu"),
    ("a-beyond-critical-scan", _demo("simulate.json", "domain.a", "1000*pi"), "domain.a"),
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
# a K_x past K_bio_max that passes its own bound, on a geometry given as the
# whole cross-section
@example(target=("control_nd_interior.json", "domain", "K_x"), value=4096)
@settings(max_examples=200, deadline=None)
def test_one_bad_field_parses_or_names_its_path(target, value):
    name, section, key = target
    path = f"{section}.{key}"
    try:
        parse_config_dict(_demo(name, path, value))
    except ConfigError as exc:
        assert exc.field.startswith(path), (exc.field, path, value)


# ---------------------------------------------------------------------------
# seeded mutations of every demo config: a defined exit code, never a traceback
# ---------------------------------------------------------------------------

def _load_fuzz_configs():
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "fuzz_configs.py"
    spec = importlib.util.spec_from_file_location("_fuzz_configs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_FUZZ = _load_fuzz_configs()
#: the demo configs that the 200 seeded cases below are drawn from.  A config
#: added to the pool would change the draw, and with it the id of nearly every
#: case; each later config gets its own seeded draw instead.
SEEDED_POOL = ("control_1d.json", "control_nd.json", "control_point.json", "minimal_time.json",
               "nonlinear.json", "nonlinear_3d.json", "nonlinear_omega.json", "simulate.json",
               "simulate_slice.json")
# the inputs that once ended in a traceback or a silent inf, then seeded mutations
FUZZ_CASES = _FUZZ.fixed_cases() + _FUZZ.mutations(seed=1, count=200, names=SEEDED_POOL)
for _name in sorted({p.name for p in DEMO_CONFIGS.glob("*.json")} - set(SEEDED_POOL)):
    FUZZ_CASES += _FUZZ.mutations(seed=1, count=20, names=[_name])


@pytest.mark.parametrize("task, cfg", [c[1:] for c in FUZZ_CASES], ids=[c[0] for c in FUZZ_CASES])
def test_mutated_demo_config_ends_in_its_exit_code(tmp_path, task, cfg):
    # any exception but a KSControlError escapes cli_main and fails the test, and
    # the suite makes a numpy RuntimeWarning an error
    cfg_path, out = tmp_path / "case.json", tmp_path / "runs"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main([task, "--config", str(cfg_path), "--out", str(out)])
    assert _FUZZ.failure(rc, "", str(out)) is None


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
    # c10a's bar on N = 2 and N = 3, through ksctl, on Gramian phases
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


def test_nonlinear_run_writes_its_controls_as_control_nd_does(tmp_path):
    # one control_XX.csv per Lebeau-Robbiano window of the converged run: 257
    # times of the window's active span, one row per cross-section mode it kills
    sc = parse_config_dict(json.loads((DEMO_CONFIGS / "nonlinear.json").read_text()))
    p = sc.params
    windows = build_schedule(p["T"], default_rho(sc.spec), p["beta"], sc.spec).windows
    files = []
    for sub in ("r1", "r2"):
        _, run_dir = run_scenario(sc, out_dir=str(tmp_path / sub))
        files.append({f.name: f.read_bytes() for f in sorted(pathlib.Path(run_dir).glob("control_*"))})
    assert files[0] == files[1]
    assert list(files[0]) == [f"control_{w.index:02d}.csv" for w in windows]
    for w, text in zip(windows, files[0].values()):
        header, *lines = text.decode().splitlines()
        assert header == "t,j,value"
        rows = [line.split(",") for line in lines]
        times = sorted({float(r[0]) for r in rows})
        assert len(rows) == 257 * w.gamma and len(times) == 257
        assert times[0] == w.a_k and times[-1] == pytest.approx(w.a_k + w.T_k, abs=1e-15)
        assert [int(r[1]) for r in rows[:2 * w.gamma]] == 2 * list(range(1, w.gamma + 1))


def _run_demo(tmp_path, cfg):
    """Run ``cfg`` through ``ksctl`` into tmp_path; its exit code and manifest."""
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "runs"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main([cfg["task"], "--config", str(cfg_path), "--out", str(out)])
    (run_dir,) = out.iterdir()
    return rc, json.loads((run_dir / "manifest.json").read_text())


def test_gramian_window_at_the_float_floor_is_steered(tmp_path):
    # at T = 300 the state falls below 1e-154 by a late window, where
    # np.linalg.norm underflows to 0.0; the steering gate's scale must not, or
    # a residual of 3.5e-231 is judged against the 1e-300 floor (GramianSingular)
    rc, manifest = _run_demo(tmp_path, _demo("control_nd.json", "control_nd.T", 300.0))
    assert rc == 0
    assert manifest["final_rel_norm"] <= 1e-6
    # the recorded norms are the true tiny values, not np.linalg.norm's 0.0
    assert manifest["window_norms"][1] > 0.0 and manifest["window_norms"][2] > 0.0
    assert manifest["kill_residuals"][1] > 0.0


def test_strict_omega_interior_run_below_the_minimal_time_exits_4(tmp_path):
    # the Gramian windows of an interior control on a strict omega pass the
    # same minimal-time gate as the whole-section run (T0_hat ~ 1.0 here)
    cfg = _demo("control_nd.json", "control_nd.geometry", {"internal": {
        "point": {"liouville": "quartic_anchor3"}, "omega": [0.3, 1.2]}})
    cfg["control_nd"]["T"] = 0.5
    rc, manifest = _run_demo(tmp_path, cfg)
    assert rc == 4
    assert manifest["status"] == "error"
    assert manifest["error"]["exit_code"] == 4


def test_gramian_report_records_the_rank_of_the_steering_solve(tmp_path):
    # the solve has K_x gamma rows (the killed modes) and 2 K_x gamma columns
    # (gamma control rows of 2 K_x Legendre polynomials each)
    cfg = json.loads((DEMO_CONFIGS / "control_nd.json").read_text())
    rc, manifest = _run_demo(tmp_path, cfg)
    assert rc == 0
    K_x = cfg["domain"]["K_x"]
    assert manifest["gramian"]
    for rep in manifest["gramian"]:
        assert 0 < rep["rank"] <= K_x * rep["gamma"]


def test_gramian_min_eig_is_a_direction_the_window_steers(tmp_path):
    # min_eig is the square of the smallest singular value the 1e-13 cut keeps,
    # so min_eig / max_eig >= 1e-26 (the smallest overall gave about 1e-32)
    rc, manifest = _run_demo(tmp_path, json.loads((DEMO_CONFIGS / "control_nd.json").read_text()))
    assert rc == 0
    assert manifest["gramian"]
    for rep in manifest["gramian"]:
        assert rep["min_eig"] / rep["max_eig"] >= 1e-26


def test_nonlinear_datum_far_outside_the_local_regime_ends_by_the_ratio_test(tmp_path):
    # with (1,1) = 1e10 the weighted source increments pass 1e154, where their
    # squares overflowed (NotFinite, exit 1) before the ratio test could decide;
    # with 1e20 the fourth Picard iterate itself leaves the float range
    for datum in (1e10, 1e20):
        cfg = _demo("nonlinear.json", "nonlinear.u0_modes", {"1,1": datum})
        cfg["domain"].update(K_x=8, J_y=4)
        run = tmp_path / f"{datum:g}"
        run.mkdir()
        rc, manifest = _run_demo(run, cfg)
        assert rc == 6, (datum, manifest.get("error"))
        assert manifest["error"]["reason"] == "ratio"


def test_gramian_runs_need_no_scipy(tmp_path):
    # scipy is a test-only dependency: both Gramian demo tasks run with every
    # import of it failing.  A fresh interpreter is needed: this one has scipy
    # loaded by the tests.
    import kscontrol

    src = str(pathlib.Path(kscontrol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from kscontrol.cli import main\n"
            "task, cfg, out = sys.argv[1:]\n"
            "sys.exit(main([task, '--config', cfg, '--out', out]))\n")
    for name in ("control_nd.json", "nonlinear_omega.json"):
        cfg = DEMO_CONFIGS / name
        task = json.loads(cfg.read_text())["task"]
        proc = subprocess.run([sys.executable, "-c", code, task, str(cfg), str(tmp_path / name)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (name, proc.stderr[-2000:])


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

def test_cli_import_leaves_scipy_and_mpmath_unloaded():
    # scipy costs several times numpy's import and no run needs it; mpmath is
    # needed only by pointwise actuators, so it is imported inside the
    # functions that use it.  A fresh interpreter is needed: this one has both
    # loaded by the tests.
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

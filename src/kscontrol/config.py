"""Declarative scenario configuration.

One scenario per JSON file, sections mirroring module names.  Lengths accept
pi-literals ("pi", "pi/2", "2*pi"), nu accepts rationals as strings ("7/1",
"6.5").  Every field of the domain and of each task section is declared
once in ``_FIELDS``: a check that turns the raw value into the object the
runner uses, and the default (``REQUIRED`` when there is none; a null value
counts as unset, and a numeric default goes through the check too).  Unknown
fields and invalid values raise ConfigError with their dotted path.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .biorthogonal import K_BIO_MAX
from .boundary_1d import DEFAULT_K_TRUNC
from .errors import BadRho, BetaTooSmall, ConfigError, ThresholdBeyondTruncation
from .exact import parse_length, parse_rational
from .lebeau_robbiano import BoundaryGamma, InternalPoint, omega_axes
from .lebeau_robbiano import check_schedule
from .nonlinear import (
    DEFAULT_C_COST,
    DEFAULT_MAX_ITER,
    DEFAULT_Q,
    DEFAULT_SIM_STEPS,
    MIN_SIM_STEPS,
    WeightPair,
)
from .pointwise import DEFAULT_K_MAX, LIOUVILLE_RULES, MAX_ALGEBRAIC_DEGREE
from .pointwise import MAX_LIOUVILLE_DEPTH, PointSpec
from .spectrum import DEFAULT_CRIT_TOL, DEFAULT_J_Y, DEFAULT_K_X, MAX_K_MAX, MAX_MODES, MAX_SIM_STEPS
from .spectrum import MAX_NU_SCALE, MAX_TRACE_ROWS, Box, External, SpectrumSpec
from .spectrum import MAX_RATE, load_external_eigenvalues

REQUIRED = object()


@dataclass
class Scenario:
    task: str
    spec: SpectrumSpec
    params: dict
    seed: int = 0
    output_dir: str = "runs"
    raw: dict = field(repr=False, default_factory=dict)


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(path, msg)


def _known_keys(d, allowed, path):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):  # finite, and an integer too large for a float is not
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# ---------------------------------------------------------------------------
# field checks: check(value, path, spec, params) -> resolved value.  ``spec``
# is the parsed domain (None while parsing the domain itself) and ``params``
# holds the fields of the same section resolved so far.
# ---------------------------------------------------------------------------

def _integer(lo=1, hi=None):
    """Integer in [lo, hi]; ``hi`` may be a function of (spec, params)."""
    def check(v, path, spec, params):
        top = hi(spec, params) if callable(hi) else hi
        _require(_is_int(v) and lo <= v <= (math.inf if top is None else top), path,
                 f"must be an integer >= {lo}" + ("" if top is None else f" and <= {top}"))
        return v
    return check


def _number(lo=-math.inf, open_lo=False):
    """Finite number >= lo (> lo when ``open_lo``)."""
    def check(v, path, spec, params):
        _require(_is_number(v), path, "must be a finite number")
        _require(v > lo or v == lo and not open_lo, path, f"must be {'>' if open_lo else '>='} {lo}")
        return float(v)  # an int past int64 reaches numpy as an object array
    return check


_positive = _number(0.0, open_lo=True)


def _literal(parse, what, positive=False):
    """A finite number, or a string that ``parse`` turns into one; positive when asked."""
    def check(v, path, spec, params):
        try:  # parse may return None, raise, or give a value beyond the float range
            x = float(v) if _is_number(v) else float(parse(v)) if isinstance(v, str) else math.nan
        except (TypeError, ValueError, ArithmeticError):
            x = math.nan
        _require(math.isfinite(x) and (x > 0 or not positive), path, f"expected {what}, got {v!r}")
        return v
    return check


_CROSS_SECTIONS = {"box": Box, "external": External, "external_file": load_external_eigenvalues}


def _cross_section(v, path, spec, params):
    _require(isinstance(v, dict) and len(v) == 1, path, "exactly one of box/external/external_file")
    _known_keys(v, _CROSS_SECTIONS, path)
    kind, arg = next(iter(v.items()))
    try:
        return _CROSS_SECTIONS[kind](arg)
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"{path}.{kind}", str(exc))


def _modes(v, path, spec, params):
    """Dense initial data: {"k": value} on the section's slice j, else {"k,j": value}."""
    _require(isinstance(v, dict) and v, path, "must be a nonempty object of mode: value")
    nd = params.get("j") is None
    u0 = np.zeros((spec.K_x, spec.J_y) if nd else spec.K_x)
    for key, val in v.items():
        sub = f"{path}.{key}"
        _require(_is_number(val), sub, "mode value must be a finite number")
        parts = str(key).split(",")
        _require(len(parts) == u0.ndim, sub, f"mode keys are {'k,j' if nd else 'k'}")
        try:
            idx = tuple(int(s) for s in parts)
        except ValueError:
            raise ConfigError(sub, "mode indices must be integers")
        _require(min(idx) >= 1, sub, "mode indices are 1-based")
        _require(all(i <= n for i, n in zip(idx, u0.shape)), sub,
                 f"mode {key} beyond truncation {u0.shape}")
        u0[tuple(i - 1 for i in idx)] = val
    return u0


# point kind -> its optional integer fields and their (lower, upper) bounds
_POINT_KINDS = {"rational": {}, "real": {}, "algebraic": {"root_index": (0, None)},
                "liouville": {"depth": (1, MAX_LIOUVILLE_DEPTH)}}


def parse_point(d, path, spec=None, params=None) -> PointSpec:
    """PointSpec for x0/a, evaluated once so that an unusable ratio fails here."""
    _require(isinstance(d, dict), path, "must be an object")
    kinds = [k for k in _POINT_KINDS if k in d]
    _require(len(kinds) == 1, path, "exactly one of rational/real/algebraic/liouville")
    kind = kinds[0]
    _known_keys(d, {kind, *_POINT_KINDS[kind]}, path)
    v, sub = d[kind], f"{path}.{kind}"
    opts = {k: _integer(*bounds)(d[k], f"{path}.{k}", spec, params)
            for k, bounds in _POINT_KINDS[kind].items() if k in d}
    if kind == "rational":
        try:
            num, den = (int(s) for s in str(v).split("/"))
            point = PointSpec.rational(num, den)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(sub, f"expected 'p/q' with integers p and q != 0, got {v!r}")
    elif kind == "real":
        point = PointSpec.real(v)
    elif kind == "algebraic":
        _require(isinstance(v, list) and 2 <= len(v) <= MAX_ALGEBRAIC_DEGREE + 1
                 and all(map(_is_int, v)), sub,
                 f"integer coefficients, highest degree first, of degree 1 to {MAX_ALGEBRAIC_DEGREE}")
        point = PointSpec.algebraic(v, **opts)
        sub = f"{path}.root_index" if opts else sub
    else:
        _require(isinstance(v, str) and v in LIOUVILLE_RULES, sub,
                 f"unknown rule; available: {sorted(LIOUVILLE_RULES)}")
        point = PointSpec.liouville(v, **opts)
    import mpmath as mp
    from mpmath.libmp import NoConvergence

    try:
        with mp.workdps(point.dps + 20):
            point.value()
    except (ValueError, ArithmeticError, NoConvergence) as exc:
        raise ConfigError(sub, str(exc))
    return point


def _omega(v, path, spec):
    """[lo, hi] on a 1-D cross-section, one [lo, hi] per axis otherwise; null = all of it."""
    if v is None:
        return None
    _require(isinstance(v, list) and v, path, "omega is [lo, hi], per-axis [[lo, hi], ...] or null")
    flat = not isinstance(v[0], list)
    for i, iv in enumerate([v] if flat else v):
        _require(isinstance(iv, list) and len(iv) == 2 and all(map(_is_number, iv)),
                 path if flat else f"{path}[{i}]", "interval is [lo, hi] with finite numbers")
    omega = (float(v[0]), float(v[1])) if flat else tuple((float(c), float(d)) for c, d in v)
    try:
        omega_axes(spec, omega)
    except ValueError as exc:
        raise ConfigError(path, str(exc))
    return omega


def _geometry(v, path, spec, params):
    """BoundaryGamma or InternalPoint from {"boundary": {...}} / {"internal": {...}}."""
    _require(isinstance(v, dict) and len(v) == 1, path, "exactly one of boundary/internal")
    _known_keys(v, {"boundary", "internal"}, path)
    kind, g = next(iter(v.items()))
    g = {} if g is None else g
    _require(isinstance(g, dict), f"{path}.{kind}", "must be an object")
    _known_keys(g, {"omega"} if kind == "boundary" else {"point", "omega"}, f"{path}.{kind}")
    omega = _omega(g.get("omega"), f"{path}.{kind}.omega", spec)
    if kind == "boundary":
        return BoundaryGamma(omega=omega)
    _require("point" in g, f"{path}.internal.point", "missing required field")
    return InternalPoint(point=parse_point(g["point"], f"{path}.internal.point"), omega=omega)


def _schedule(name, base):
    """``base``, then the frequency-splitting schedule's own range check of
    ``name``; a K0 beyond the truncation is left to the run."""
    def check(v, path, spec, params):
        value = base(v, path, spec, params)
        try:
            check_schedule(spec, **{name: value})
        except (BadRho, BetaTooSmall) as exc:
            raise ConfigError(path, str(exc))
        except ThresholdBeyondTruncation:
            pass
        return value
    return check


_J = (_integer(1, lambda spec, params: spec.J_y), 1)
_SLICE_CONTROL = {
    "j": _J,
    "T": (_positive, REQUIRED),
    "K_trunc": (_integer(1, K_BIO_MAX), DEFAULT_K_TRUNC),
    "u0_modes": (_modes, REQUIRED),
}
_SPLITTING = {
    "T": (_positive, REQUIRED),
    "u0_modes": (_modes, REQUIRED),
    "rho": (_schedule("rho", _number()), None),  # unset: lebeau_robbiano.default_rho
    "beta": (_schedule("beta", _integer()), None),
    "geometry": (_geometry, BoundaryGamma()),
}
# One table per section; after "domain", the sections in task order.
_FIELDS = {
    "domain": {
        "a": (_literal(parse_length, "a positive length or length literal", True), REQUIRED),
        "nu": (_literal(parse_rational, "a finite number or rational literal"), REQUIRED),
        "cross_section": (_cross_section, REQUIRED),
        "K_x": (_integer(1, MAX_MODES), DEFAULT_K_X),
        "J_y": (_integer(1, MAX_MODES), DEFAULT_J_Y),
        "crit_tol": (_positive, DEFAULT_CRIT_TOL),
    },
    "spectrum": {},
    "critical_set": {},
    "biortho": {"j": _J, "K": (_integer(1, K_BIO_MAX), 10), "T": (_positive, 0.5)},
    "control_1d": _SLICE_CONTROL,
    "control_point": {**_SLICE_CONTROL, "point": (parse_point, REQUIRED)},
    "minimal_time": {"point": (parse_point, REQUIRED), "k_max": (_integer(1, MAX_K_MAX), DEFAULT_K_MAX)},
    "control_nd": _SPLITTING,
    "nonlinear": {
        **_SPLITTING,
        "q_w": (_number(), DEFAULT_Q),
        "C_cost": (_number(), DEFAULT_C_COST),
        "tol": (_positive, 1e-6),
        "max_iter": (_integer(), DEFAULT_MAX_ITER),
        "sim_steps": (_integer(MIN_SIM_STEPS, MAX_SIM_STEPS), DEFAULT_SIM_STEPS),
    },
    "simulate": {
        "j": (_J[0], None),  # unset: the run is on the cylinder
        "T": (_positive, 1.0),
        "u0_modes": (_modes, None),
        "random_modes": (_integer(), 4),
        "n_samples": (_integer(2, lambda spec, params: MAX_TRACE_ROWS // (  # a row per mode
            spec.K_x * (spec.J_y if params["j"] is None else 1))), 129),
    },
}
TASKS = tuple(section.replace("_", "-") for section in list(_FIELDS)[1:])


def _resolve(section: str, raw, spec) -> dict:
    """Every field of ``section``: checked when given, defaulted when not."""
    _require(isinstance(raw, dict), section, "must be an object")
    table = _FIELDS[section]
    _known_keys(raw, table, section)
    params = {}
    for name, (check, default) in table.items():
        path = f"{section}.{name}"
        value = raw.get(name)
        if value is None:
            _require(default is not REQUIRED, path, "missing required field")
            if not _is_number(default):  # None, or an object the run builds itself
                params[name] = default
                continue
            value = default  # a numeric default meets its field's bounds too
        params[name] = check(value, path, spec, params)
    return params


def parse_config(path) -> Scenario:
    """Load, validate, and normalize a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", str(exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON at line {exc.lineno}: {exc.msg}")
    return parse_config_dict(raw)


def parse_config_dict(raw: dict) -> Scenario:
    _require(isinstance(raw, dict), "<root>", "top level must be an object")
    task = raw.get("task")
    _require(task in TASKS, "task", f"must be one of {TASKS}")
    section = task.replace("-", "_")
    _known_keys(raw, {"task", "seed", "domain", "output", section}, "")
    _require("domain" in raw, "domain", "missing required section")
    domain = _resolve("domain", raw["domain"], None)
    try:
        spec = SpectrumSpec(**domain)
    except (ValueError, TypeError) as exc:
        try:  # a domain that builds with one cross-section mode has too many of them
            SpectrumSpec(**dict(domain, J_y=1))
        except (ValueError, TypeError):
            raise ConfigError("domain", str(exc))
        raise ConfigError("domain.J_y", str(exc))
    # the critical-set scan visits about nu a^2 / pi^2 (k, l) pairs per slice; the
    # larger factor names the field
    r2 = (spec.a_float / math.pi) * (spec.a_float / math.pi)  # inf, not OverflowError
    _require(spec.nu_float <= 0 or spec.nu_float * r2 <= MAX_NU_SCALE,
             "domain.a" if r2 > spec.nu_float else "domain.nu",
             f"nu a^2/pi^2 = {spec.nu_float * r2:.3g} exceeds {MAX_NU_SCALE:.0e} "
             "(spectrum.MAX_NU_SCALE): the critical-set scan grows linearly in it")
    # the minimal-time scan and the critical-set check take a^4; every rate
    # -s^2 + nu s, s = (k pi/a)^2 + mu_j, stays below spectrum.MAX_RATE
    _require(spec.a_float <= sys.float_info.max ** 0.25, "domain.a", "a^4 exceeds the float range")
    x = spec.K_x * math.pi / spec.a_float
    kap, mu, nu = x * x, float(np.max(spec.mus)), abs(spec.nu_float)  # inf, not OverflowError
    fastest = (kap + mu) * (kap + mu + nu)  # the largest term names the field
    fastest_field = ("domain.nu" if nu > kap + mu else
                     "domain.a" if kap >= mu else "domain.cross_section")
    _require(fastest <= MAX_RATE, fastest_field,
             f"the fastest rate {fastest:.3g} exceeds {MAX_RATE:.0e}")
    if task == "nonlinear":  # the quadratic term needs the cross-section's eigenfunctions
        try:
            spec.box_axes("the nonlinear task")
        except ValueError as exc:
            raise ConfigError("domain.cross_section", str(exc))
    seed = raw.get("seed", 0)
    _require(_is_int(seed), "seed", "must be an integer")

    out = raw.get("output", {})
    _require(isinstance(out, dict), "output", "must be an object")
    _known_keys(out, {"dir"}, "output")
    output_dir = out.get("dir", "runs")
    _require(isinstance(output_dir, str) and output_dir, "output.dir", "must be a nonempty string")

    params = _resolve(section, raw.get(section, {}), spec)
    if "T" in params and task != "biortho":  # e^(rate t) and rate t stay floats for t <= T
        T, j, ln_max = params["T"], params.get("j"), math.log(sys.float_info.max)
        top = float(np.max(spec.x_rates(j) if j is not None else spec.rate_matrix()))
        # the larger factor names the field: T, or the domain field that sets the
        # rate (a growth rate -s^2 + nu s is at most nu^2/4, so nu sets the largest)
        _require(top * T <= ln_max, f"{section}.T" if T >= top else "domain.nu",
                 f"T times the largest growth rate {top:.6g} exceeds ln(float max) = "
                 f"{ln_max:.6g}")
        _require(fastest * T <= MAX_RATE, f"{section}.T" if T >= fastest else fastest_field,
                 f"T times the fastest rate {fastest:.3g} exceeds {MAX_RATE:.0e}")
    geometry = params.get("geometry")
    if geometry is not None and geometry.omega is None:
        # actuation on the whole cross-section, given or by default, solves one
        # moment problem per slice over all K_x x-modes (tensor phases, the
        # interior one-window run too): the bound is on K_x, so K_x is named
        _require(spec.K_x <= K_BIO_MAX, "domain.K_x",
                 f"actuation on the whole cross-section needs K_x <= {K_BIO_MAX} "
                 f"(K_bio_max), got K_x={spec.K_x}; give an omega or lower K_x")
        if isinstance(geometry, InternalPoint):  # one window (0, T), no schedule
            for name in ("rho", "beta"):
                _require(params[name] is None, f"{section}.{name}",
                         "an interior control on the whole cross-section runs one window "
                         "with no schedule, so it reads no rho or beta; remove the field")
    if task == "nonlinear":  # q_w and C_cost become the one WeightPair the task uses
        try:
            weights = {k: params.pop(k) for k in ("q_w", "C_cost")}
            params["weights"] = WeightPair(T=params["T"], **weights)
        except ValueError as exc:  # WeightPair's messages start with the field name
            raise ConfigError(f"{section}.{re.match(r'[A-Za-z_]+', str(exc))[0]}", str(exc))
    return Scenario(task=task, spec=spec, params=params, seed=seed,
                    output_dir=output_dir, raw=raw)

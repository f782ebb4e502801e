"""Per-layer tracing from outside the program.

``install`` rebinds each listed public function of ``kscontrol`` to a timing
wrapper, in every ``kscontrol.*`` module namespace that holds the original
object: modules import layer functions by name (``from .modal import
nonlinear_rhs``), so wrapping only the defining module would miss most
calls.  Methods are patched on their class.  ``uninstall`` puts the original
objects back, so untraced repetitions run the unmodified program.

Each wrapped call records a span (name, start, end, parent span index) and
adds to ``calls``, inclusive time ``s``, ``self_s`` (inclusive minus the
time of wrapped children) and ``errors`` (calls that raised).  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric name, module, attribute path); attribute paths with a dot are methods.
FUNCTIONS = (
    ("config.parse_config_dict", "config", "parse_config_dict"),
    ("runner.run_scenario", "runner", "run_scenario"),
    ("spectrum.SpectrumSpec", "spectrum", "SpectrumSpec.__init__"),
    ("spectrum.SpectrumSpec.rate_matrix", "spectrum", "SpectrumSpec.rate_matrix"),
    ("spectrum.critical_set_check", "spectrum", "critical_set_check"),
    ("biorthogonal.build_family", "biorthogonal", "build_family"),
    ("moments.MomentSolver", "moments", "MomentSolver.__init__"),
    ("moments.MomentSolver.solve", "moments", "MomentSolver.solve"),
    ("modal.evolve_controlled", "modal", "evolve_controlled"),
    ("modal.nonlinear_rhs", "modal", "nonlinear_rhs"),
    ("modal.state_nd", "modal", "state_nd"),
    ("signals.ControlSignal.value_at", "signals", "ControlSignal.value_at"),
    ("signals.ExpSegment.mode_duhamel", "signals", "ExpSegment.mode_duhamel"),
    ("signals.LegendreSegment.mode_duhamel", "signals", "LegendreSegment.mode_duhamel"),
    ("boundary_1d.synthesize_boundary_control", "boundary_1d", "synthesize_boundary_control"),
    ("boundary_1d.verify_null", "boundary_1d", "verify_null"),
    ("pointwise.minimal_time_estimate", "pointwise", "minimal_time_estimate"),
    ("pointwise.synthesize_point_control", "pointwise", "synthesize_point_control"),
    ("lebeau_robbiano.run_lr", "lebeau_robbiano", "run_lr"),
    ("lebeau_robbiano.active_phase_tensor", "lebeau_robbiano", "active_phase_tensor"),
    ("lebeau_robbiano.active_phase_gramian", "lebeau_robbiano", "active_phase_gramian"),
    ("nonlinear.fixed_point", "nonlinear", "fixed_point"),
    ("nonlinear.controlled_solve_with_source", "nonlinear", "controlled_solve_with_source"),
    ("nonlinear.nonlinear_simulate", "nonlinear", "nonlinear_simulate"),
    ("serialize.write", "serialize", "write_csv"),
    ("serialize.write", "serialize", "write_json"),
    ("serialize.write", "serialize", "write_trace_csv"),
    ("serialize.write", "serialize", "write_control_csv"),
    ("serialize.write", "serialize", "write_observation_csv"),
)
NAMES = tuple(dict.fromkeys(name for name, _, _ in FUNCTIONS))
FIELDS = ("calls", "s", "self_s", "errors")
# Unit of every per-layer metric, in the order BENCHMARK.json lists them.
UNITS = {f"{name}.{field}": unit for name in NAMES
         for field, unit in zip(FIELDS, ("count", "s", "s", "count"))}
UNITS.update({
    "biorthogonal.build_family.extended_calls": "count",
    "biorthogonal.build_family.distinct_ratio": "ratio",
    "pointwise.minimal_time_estimate.s_per_1k": "s",
    "nonlinear.picard_iterations": "count",
    "nonlinear.etd_steps": "count",
    "serialize.bytes": "bytes-computed",
    "tracing_overhead_frac": "ratio",
})

# Counted without a span.  The precision ladder's extended-precision Gram
# helper runs once per escalation, whatever triggered it (condition number
# or the residual test); the ETD replay's step count is read off its result.
# A public escalation counter inside the program belongs to ROADMAP item A.
_COUNTED = (
    ("extended_calls", "biorthogonal", "_gram_mp", lambda args, kwargs, result: 1),
    ("etd_steps", "nonlinear", "_etd_run",
     lambda args, kwargs, result: len(result["norm_series"][0]) - 1),
)


def _family_key(args, kwargs):
    import numpy as np  # imported here: run.py loads this module without numpy

    exponents = args[0] if args else kwargs["exponents"]
    T = args[1] if len(args) > 1 else kwargs["T"]
    return np.asarray(exponents, dtype=float).tobytes(), float(T)


class Recorder:
    """Spans and per-function totals of one traced repetition."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.stack = []      # open frames: [name, child_seconds, span_index]
        self.spans = []      # (name, start, end, parent span index or -1)
        self.totals = {name: dict.fromkeys(FIELDS, 0) for name in NAMES}
        self.counts = {"extended_calls": 0, "etd_steps": 0, "picard_iterations": 0,
                       "scanned_k": 0}
        self.family_keys = []
        self.originals = []  # (name, original) of every rebound module function

    def observe(self, name, args, kwargs, result):
        if name == "biorthogonal.build_family":
            self.family_keys.append(_family_key(args, kwargs))
        elif name == "pointwise.minimal_time_estimate":
            self.counts["scanned_k"] += len(result.k)
        elif name == "nonlinear.fixed_point":
            self.counts["picard_iterations"] += result.iterations

    def metrics(self):
        out = {}
        for name in NAMES:
            for f in FIELDS:
                out[f"{name}.{f}"] = self.totals[name][f]
        calls = self.totals["biorthogonal.build_family"]["calls"]
        out["biorthogonal.build_family.extended_calls"] = self.counts["extended_calls"]
        out["biorthogonal.build_family.distinct_ratio"] = (
            len(set(self.family_keys)) / calls if calls else 0.0)
        scanned = self.counts["scanned_k"]
        out["pointwise.minimal_time_estimate.s_per_1k"] = (
            self.totals["pointwise.minimal_time_estimate"]["s"] / (scanned / 1000.0)
            if scanned else 0.0)
        out["nonlinear.picard_iterations"] = self.counts["picard_iterations"]
        out["nonlinear.etd_steps"] = self.counts["etd_steps"]
        return out


def _span_wrapper(name, fn, rec):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        if stack and stack[-1][0] == name:
            # a layer calling itself (a writer calling write_csv) is one span
            return fn(*args, **kwargs)
        index = len(rec.spans)
        rec.spans.append(None)
        frame = [name, 0.0, index]
        stack.append(frame)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = time.perf_counter()
            stack.pop()
            elapsed = end - start
            tot = rec.totals[name]
            tot["calls"] += 1
            tot["s"] += elapsed
            tot["self_s"] += elapsed - frame[1]
            tot["errors"] += failed
            if stack:
                stack[-1][1] += elapsed
            rec.spans[index] = (name, start - rec.origin, end - rec.origin,
                                stack[-1][2] if stack else -1)
        rec.observe(name, args, kwargs, result)
        return result
    return wrapper


def _count_wrapper(key, fn, rec, amount):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        rec.counts[key] += amount(args, kwargs, result)
        return result
    return wrapper


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "kscontrol" or n.startswith("kscontrol."))]


def _rebind_everywhere(original, replacement, patches):
    """Point every kscontrol module attribute that is ``original`` at ``replacement``."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patches.append((mod, attr, original))


def install(rec: Recorder) -> list:
    """Wrap every listed function and counter; returns the patches to undo."""
    patches = []
    for name, module, path in FUNCTIONS:
        mod = importlib.import_module(f"kscontrol.{module}")
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _span_wrapper(name, original, rec))
            patches.append((cls, meth, original))
        else:
            original = getattr(mod, path)
            _rebind_everywhere(original, _span_wrapper(name, original, rec), patches)
            rec.originals.append((name, original))
    for key, module, attr, amount in _COUNTED:
        original = getattr(importlib.import_module(f"kscontrol.{module}"), attr)
        _rebind_everywhere(original, _count_wrapper(key, original, rec, amount), patches)
        rec.originals.append((key, original))
    return patches


def stray_aliases(rec: Recorder) -> list:
    """kscontrol module attributes still bound to an unwrapped original.

    Empty right after ``install``; a module imported later that binds a
    listed function by name would show up here after the traced repetition.
    """
    return [f"{mod.__name__}.{attr} ({name})" for name, original in rec.originals
            for mod in _package_modules() for attr, value in vars(mod).items()
            if value is original]


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)

"""Deterministic CSV/JSON writers for run artifacts.

Floats are rendered with repr-faithful %.17g so identical runs are
byte-identical; dict keys are sorted.  Each array file (trace, observation,
control) is written with one row template, ``%d`` for an index column and
``%.17g`` for a value, applied once with ``%`` to all of its fields; the
small row tables go through `write_csv`, which formats field by field with
`fmt`.  Both give the same bytes for the same values.  Layouts:

* state/trace CSV: ``t,k,j,coeff`` long format (j=0 for 1-D states)
* observation CSV: ``t,norm,obs_boundary[,obs_point]``
* control CSV: ``t,q`` (scalar) or ``t,j,value`` (y-expanded rows)
"""

from __future__ import annotations

import json
import os

import numpy as np


def fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float) and (np.isnan(obj) or np.isinf(obj)):
        return str(obj)
    return obj


def _write_columns(path, header, columns):
    """``header``, then one line per row of equal-length ``columns``.

    The whole file is one row template applied once with ``%``: ``%d`` for an
    integer column and ``%.17g`` for any other, the same conversion `fmt`
    makes field by field, so the bytes are the same as `write_csv`'s.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    template = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    flat = [None] * (n * len(columns))
    for i, col in enumerate(columns):
        flat[i::len(columns)] = col.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((template * n) % tuple(flat))


def write_trace_csv(path, trace):
    """One row per (time, k, j); j = 0 for a 1-D state."""
    c = trace.coeffs
    n, K = c.shape[:2]
    J = c.shape[2] if c.ndim == 3 else 1
    k, j = np.indices((K, J)).reshape(2, -1)
    _write_columns(path, ["t", "k", "j", "coeff"], [
        np.repeat(trace.times, K * J),
        np.tile(k + 1, n),
        np.tile(j + 1 if c.ndim == 3 else j, n),
        c.ravel(),
    ])


def write_observation_csv(path, series):
    header = ["t", "norm", "obs_boundary"]
    cols = [series["t"], series["norm"], series["boundary"]]
    if "point" in series:
        header.append("obs_point")
        cols.append(series["point"])
    _write_columns(path, header, cols)


def write_control_csv(path, signal, n_samples: int = 1024):
    """The control sampled at n_samples + 1 uniform times of its window."""
    grid = np.linspace(signal.t_start, signal.t_end, n_samples + 1)
    vals = signal.value_at(grid)
    if vals.ndim == 1:
        _write_columns(path, ["t", "q"], [grid, vals])
    else:
        # y-expanded signals: one row per (time, y-mode) pair
        rows = vals.shape[1]
        j = np.arange(1, rows + 1)
        _write_columns(path, ["t", "j", "value"],
                       [np.repeat(grid, rows), np.tile(j, len(grid)), vals.ravel()])


def hash_file(path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def hash_dir(path) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        p = os.path.join(path, name)
        if os.path.isfile(p):
            out[name] = hash_file(p)
    return out

"""Deterministic CSV/JSON writers for run artifacts.

Floats are rendered with repr-faithful %.17g so identical runs are
byte-identical; dict keys are sorted.  Layouts:

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


def trace_rows(trace):
    rows = []
    for t, coeffs in zip(trace.times, trace.coeffs):
        if coeffs.ndim == 1:
            for k, v in enumerate(coeffs, start=1):
                rows.append((t, k, 0, v))
        else:
            for k in range(coeffs.shape[0]):
                for j in range(coeffs.shape[1]):
                    rows.append((t, k + 1, j + 1, coeffs[k, j]))
    return rows


def write_trace_csv(path, trace):
    write_csv(path, ["t", "k", "j", "coeff"], trace_rows(trace))


def write_observation_csv(path, series):
    header = ["t", "norm", "obs_boundary"]
    cols = [series["t"], series["norm"], np.atleast_1d(series["boundary"])]
    if "point" in series:
        header.append("obs_point")
        cols.append(series["point"])
    rows = list(zip(*cols))
    write_csv(path, header, rows)


def write_control_csv(path, signal, n_samples: int = 1024):
    """The control sampled at n_samples + 1 uniform times of its window."""
    grid = np.linspace(signal.t_start, signal.t_end, n_samples + 1)
    vals = signal.value_at(grid)
    if vals.ndim == 1:
        write_csv(path, ["t", "q"], list(zip(grid, vals)))
    else:
        # y-expanded signals: one row per (time, y-mode) pair
        rows = []
        for t, row in zip(grid, vals):
            for j, v in enumerate(row, start=1):
                rows.append((t, j, v))
        write_csv(path, ["t", "j", "value"], rows)


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

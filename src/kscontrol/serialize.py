"""Deterministic CSV/JSON writers for run artifacts.

Floats are rendered with repr-faithful %.17g so identical runs are
byte-identical; dict keys are sorted.  Every CSV goes through one engine,
`_write_rows`, which applies templates with ``%`` to many values at once,
so no field is formatted on its own.  Each line is a stamp, formatted once
per stamp (``%.17g``, or ``%d`` for an integer column), followed by a
literal suffix such as ``",3,2,%.17g"``.  An array file (trace,
observation, control) stamps its time and has one suffix per index row; a
row table (`write_csv`: modes, cross section, sequence, norms, iterations)
stamps its first column and writes the other columns as its one suffix,
``%d`` for an integer column.  The engine writes blocks of about
ROWS_PER_WRITE lines, so a long file never holds all of its values as
Python objects, nor all of its text, at once.  Layouts:

* state/trace CSV: ``t,k,j,coeff`` long format (j=0 for 1-D states)
* observation CSV: ``t,norm,obs_boundary[,obs_point]``
* control CSV: ``t,q`` (scalar) or ``t,j,value`` (y-expanded rows)
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


#: the writers format about this many lines per ``%``, so a long file never
#: holds all of its values as Python objects at once
ROWS_PER_WRITE = 1024


def write_csv(path, header, columns):
    """``header``, then row i of the equal-length ``columns`` on line i + 1.

    The first column stamps each line and the others form its one suffix,
    through `_write_rows`.  An integer column is written with ``%d``, any
    other with ``%.17g``.
    """
    first, *rest = (np.asarray(c) for c in columns)
    if any(len(c) != len(first) for c in rest):
        raise ValueError(f"columns of unequal lengths {[len(c) for c in columns]}")
    # columns of several dtypes go in as Python scalars: a common numpy dtype
    # would turn integers beside a float column into floats
    one_dtype = len({c.dtype for c in rest}) == 1
    values = np.column_stack(rest) if one_dtype else np.array(rest, dtype=object).T
    suffix = "".join(",%d" if c.dtype.kind in "iu" else ",%.17g" for c in rest)
    _write_rows(path, header, first, [suffix], values)


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
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)  # then the non-finite rule below, as for a Python float
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def _write_rows(path, header, times, suffixes, values):
    """``header``, then one line per (time, suffix) pair, times outermost.

    Each time is formatted once (``%d`` for an integer dtype, else
    ``%.17g``) and prefixed to every suffix, a literal such as
    ``",3,2,%.17g"``.  The file is written in blocks of whole time stamps,
    about ROWS_PER_WRITE lines each (at least one time stamp): a block's
    template is applied with ``%`` to its run of ``values.ravel()``, one
    value per line in file order.
    """
    times = np.asarray(times)
    stamp = "%d" if times.dtype.kind in "iu" else "%.17g"
    lines = ["", *(suffix + "\n" for suffix in suffixes)]
    flat = np.ravel(values)
    width = flat.size // len(times) if len(times) else 0   # values per time stamp
    per = max(1, ROWS_PER_WRITE // len(suffixes))          # time stamps per block
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(times), per):
            block = times[lo:lo + per].tolist()
            template = "".join((stamp % t).join(lines) for t in block)
            fh.write(template % tuple(flat[lo * width:(lo + len(block)) * width].tolist()))


def write_trace_csv(path, trace):
    """One row per (time, k, j); j = 0 for a 1-D state."""
    c = trace.coeffs
    js = range(1, c.shape[2] + 1) if c.ndim == 3 else [0]
    _write_rows(path, ["t", "k", "j", "coeff"], trace.times,
                [",%d,%d,%%.17g" % (k, j) for k in range(1, c.shape[1] + 1) for j in js], c)


def write_observation_csv(path, series):
    header = ["t", "norm", "obs_boundary"]
    cols = [series["norm"], series["boundary"]]
    if "point" in series:
        header.append("obs_point")
        cols.append(series["point"])
    _write_rows(path, header, series["t"], [",%.17g" * len(cols)], np.column_stack(cols))


def write_control_csv(path, signal, n_samples: int = 1024):
    """The control sampled at n_samples + 1 uniform times of its window; a
    y-expanded signal has one row per (time, y-mode) pair."""
    grid = np.linspace(signal.t_start, signal.t_end, n_samples + 1)
    vals = signal.value_at(grid)
    if vals.ndim == 1:
        _write_rows(path, ["t", "q"], grid, [",%.17g"], vals)
    else:
        _write_rows(path, ["t", "j", "value"], grid,
                    [",%d,%%.17g" % j for j in range(1, vals.shape[1] + 1)], vals)


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

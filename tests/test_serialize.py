"""The CSV writers against a field-by-field oracle, and the JSON writer.

Each CSV is written by templates applied to many values at once (an array
file formats each time stamp once, a row table repeats one row template);
the oracle below formats every field on its own, ``%d`` for an
integer and ``%.17g`` for anything else, and the two must give the same
bytes.
"""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from kscontrol import serialize
from kscontrol.modal import Trace
from kscontrol.serialize import (HASH_BLOCK, hash_file, write_control_csv, write_csv, write_json,
                                 write_observation_csv, write_trace_csv)

# ints, signed zeros, non-finite values, the extremes of the double range and
# magnitudes from 1e-30 to 1e4, several of which %.16g would round
SPECIAL = [3, -7, 0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
           1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308,
           0.1, 1.0 / 3.0, 2.0 / 3.0, math.pi, -math.e, 1e16 + 2.0, 12345.678901234567]
MAGNITUDES = [s * 10.0 ** e * (1.0 + 1.0 / 7.0) for e in range(-30, 5) for s in (1.0, -1.0)]
VALUES = np.array(SPECIAL + MAGNITUDES, dtype=float)


def _cycle(shape, shift=0):
    return np.resize(np.roll(VALUES, shift), shape)


# --- the oracle: every field formatted on its own ---------------------------

def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _csv(header, rows):
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


def _trace_oracle(trace):
    rows = []
    for t, coeffs in zip(trace.times, trace.coeffs):
        if coeffs.ndim == 1:
            for k, v in enumerate(coeffs, start=1):
                rows.append((t, k, 0, v))
        else:
            for k in range(coeffs.shape[0]):
                for j in range(coeffs.shape[1]):
                    rows.append((t, k + 1, j + 1, coeffs[k, j]))
    return _csv(["t", "k", "j", "coeff"], rows)


def _control_oracle(signal, n_samples):
    grid = np.linspace(signal.t_start, signal.t_end, n_samples + 1)
    vals = signal.value_at(grid)
    if vals.ndim == 1:
        return _csv(["t", "q"], list(zip(grid, vals)))
    rows = [(t, j, v) for t, row in zip(grid, vals) for j, v in enumerate(row, start=1)]
    return _csv(["t", "j", "value"], rows)


def _observation_oracle(series):
    header = ["t", "norm", "obs_boundary"]
    cols = [series["t"], series["norm"], series["boundary"]]
    if "point" in series:
        header.append("obs_point")
        cols.append(series["point"])
    return _csv(header, list(zip(*cols)))


class _Sampled:
    """A stand-in control whose values at the sample times are given outright,
    special values included (a real ControlSignal refuses non-finite ones)."""

    def __init__(self, t_start, t_end, shape_tail, shift):
        self.t_start, self.t_end = t_start, t_end
        self.shape_tail, self.shift = shape_tail, shift

    def value_at(self, grid):
        return _cycle((len(grid), *self.shape_tail), self.shift)


# --- tests ------------------------------------------------------------------

@pytest.mark.parametrize("state_shape", [(11,), (5, 4), (1, 1), (3, 7)])
def test_trace_csv_matches_per_field_formatting(tmp_path, state_shape):
    n = 9
    times = np.concatenate([[0.0, -0.0, 5e-324], np.linspace(1e-30, 1e4, n - 3)])
    trace = Trace(times=times, coeffs=_cycle((n, *state_shape), shift=len(state_shape)))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    assert path.read_bytes() == _trace_oracle(trace)


@pytest.mark.parametrize("shape_tail", [(), (1,), (6,)])
@pytest.mark.parametrize("n_samples", [1, 16, 129])
def test_control_csv_matches_per_field_formatting(tmp_path, shape_tail, n_samples):
    signal = _Sampled(0.125, 1.0 / 3.0, shape_tail, shift=n_samples)
    path = tmp_path / "control.csv"
    write_control_csv(path, signal, n_samples=n_samples)
    assert path.read_bytes() == _control_oracle(signal, n_samples)


@pytest.mark.parametrize("with_point", [False, True])
@pytest.mark.parametrize("integer_times", [False, True])
def test_observation_csv_matches_per_field_formatting(tmp_path, with_point, integer_times):
    n = len(VALUES)
    series = {
        "t": np.arange(n) if integer_times else np.linspace(0.0, 1.7, n),
        "norm": np.abs(_cycle(n, shift=1)),
        "boundary": _cycle(n, shift=2),
    }
    if with_point:
        series["point"] = _cycle(n, shift=3)
    path = tmp_path / "observations.csv"
    write_observation_csv(path, series)
    assert path.read_bytes() == _observation_oracle(series)


# time stamps are formatted once per file: signed zeros, non-finite and repeated
# times, and an integer time column, which is written with %d
SPECIAL_TIMES = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, 1.5, -0.0, 5e-324,
                          1.0 / 3.0, 1e16 + 2.0])
TIME_COLUMNS = pytest.mark.parametrize("times", [SPECIAL_TIMES, np.arange(-3, 8)],
                                       ids=["special", "integer"])


@TIME_COLUMNS
@pytest.mark.parametrize("state_shape", [(3,), (2, 5)])
def test_trace_csv_time_column(tmp_path, times, state_shape):
    trace = Trace(times=times, coeffs=_cycle((len(times), *state_shape), shift=5))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    assert path.read_bytes() == _trace_oracle(trace)


@TIME_COLUMNS
@pytest.mark.parametrize("shape_tail", [(), (1,), (4,)])
def test_control_csv_time_column(tmp_path, monkeypatch, times, shape_tail):
    # the writer samples the window with np.linspace, which cannot give these times
    monkeypatch.setattr(np, "linspace", lambda start, stop, num: times[:num])
    signal = _Sampled(0.0, 1.0, shape_tail, shift=4)
    path = tmp_path / "control.csv"
    write_control_csv(path, signal, n_samples=len(times) - 1)
    assert path.read_bytes() == _control_oracle(signal, len(times) - 1)


@TIME_COLUMNS
def test_observation_csv_time_column(tmp_path, times):
    series = {"t": times, "norm": _cycle(len(times), shift=6), "boundary": _cycle(len(times))}
    path = tmp_path / "observations.csv"
    write_observation_csv(path, series)
    assert path.read_bytes() == _observation_oracle(series)


def test_empty_trace_writes_the_header_alone(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, Trace(times=np.zeros(0), coeffs=np.zeros((0, 4))))
    assert path.read_bytes() == b"t,k,j,coeff\n"


@pytest.mark.parametrize("rows_per_write", [None, 1, 7], ids=["default", "1-row", "7-rows"])
def test_array_files_span_several_blocks(tmp_path, monkeypatch, rows_per_write):
    # an array file is written in blocks of whole time stamps, about
    # ROWS_PER_WRITE lines each: several full blocks and a partial last one,
    # and with fewer lines per block than per time stamp, one stamp a block
    if rows_per_write is not None:
        monkeypatch.setattr(serialize, "ROWS_PER_WRITE", rows_per_write)
    n = 150
    trace = Trace(times=np.linspace(-0.5, 7.0, n), coeffs=_cycle((n, 3, 7), shift=8))
    series = {"t": np.linspace(0.0, 1.0, 2600), "norm": _cycle(2600, shift=9),
              "boundary": _cycle(2600, shift=10), "point": _cycle(2600, shift=11)}
    signal = _Sampled(0.125, 0.75, (4,), shift=12)
    files = [("trace.csv", lambda p: write_trace_csv(p, trace), _trace_oracle(trace)),
             ("observations.csv", lambda p: write_observation_csv(p, series),
              _observation_oracle(series)),
             ("control.csv", lambda p: write_control_csv(p, signal, n_samples=700),
              _control_oracle(signal, 700))]
    for name, write, oracle in files:
        write(tmp_path / name)
        assert (tmp_path / name).read_bytes() == oracle
        assert oracle.count(b"\n") > 2 * 1024  # three blocks or more at the default


def test_array_file_memory_is_bounded_by_the_block(tmp_path):
    # a 2.3 MB trace file: formatted whole, its template, value tuple and
    # text peaked at 6.2 MB of Python allocations; a block holds about
    # ROWS_PER_WRITE lines
    rng = np.random.default_rng(16)
    trace = Trace(times=np.linspace(0.0, 1.0, 257), coeffs=rng.standard_normal((257, 16, 16)))
    path = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        write_trace_csv(path, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 2_000_000
    assert peak < 1_000_000


# --- row tables -------------------------------------------------------------

def _row_table_cases():
    n = len(VALUES)
    ints = np.arange(n) - n // 2
    yield "special", ["k", "x", "y"], [ints, VALUES, _cycle(n, shift=7)]
    # a Python range, a list of floats and a float array, as `runner` passes them
    yield "mixed", ["n", "delta_F", "ratio"], [range(1, 6), [0.5, 1e-300, 2.0 / 3.0, 0.0, -0.0],
                                               np.array([math.nan, 0.25, 0.1, math.nan, math.inf])]
    yield "int-only", ["j"], [np.array([0, -1, 2**62, np.iinfo(np.int64).min])]
    # integers past 2^53, which %.17g would round
    yield "uint", ["k", "v"], [np.array([0, 2**63 + 1, 2**64 - 1], dtype=np.uint64),
                               np.float32([0.1, -0.0, math.inf])]
    # past 2^53 beside a float column, as the j column of modes.csv sits
    yield "int-beside-float", ["k", "j", "v"], [range(3), np.array([1, 2**62 + 1, -2**63]),
                                                np.array([0.5, math.nan, -0.0])]
    yield "empty", ["n", "delta_F", "ratio"], [range(1, 1), [], np.zeros(0)]


@pytest.mark.parametrize("rows_per_write", [None, 1, 7], ids=["default", "1-row", "7-rows"])
@pytest.mark.parametrize("header,columns", [case[1:] for case in _row_table_cases()],
                         ids=[case[0] for case in _row_table_cases()])
def test_row_table_matches_per_field_formatting(tmp_path, monkeypatch, header, columns,
                                                rows_per_write):
    if rows_per_write is not None:  # whole, single-row and partial last writes
        monkeypatch.setattr(serialize, "ROWS_PER_WRITE", rows_per_write)
    path = tmp_path / "table.csv"
    write_csv(path, header, columns)
    # the oracle takes the values one row at a time, as Python scalars of the
    # column's own type (an element of an integer array is an integer)
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    assert path.read_bytes() == _csv(header, rows)


def test_row_table_refuses_columns_of_unequal_lengths(tmp_path):
    with pytest.raises(ValueError, match="unequal"):
        write_csv(tmp_path / "table.csv", ["a", "b"], [[1, 2], [0.5]])


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"bare {token} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_json_writes_non_finite_numpy_floats_as_python_floats_are(tmp_path):
    path = tmp_path / "manifest.json"
    write_json(path, {"a": np.float64("nan"), "b": float("nan"), "c": np.float32("inf"),
                      "d": [np.float64("-inf"), -math.inf], "e": np.float64(0.1),
                      "f": np.array([1.5, math.nan])})
    assert _strict_json(path) == {"a": "nan", "b": "nan", "c": "inf", "d": ["-inf", "-inf"],
                                  "e": 0.1, "f": [1.5, "nan"]}


def test_hash_file_reads_a_file_of_several_blocks_in_blocks(tmp_path):
    data = np.random.default_rng(3).bytes(4 * HASH_BLOCK + 123)
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        digest = hash_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(data).hexdigest()
    assert peak < 2.5 * HASH_BLOCK  # a block and its successor, never the whole file

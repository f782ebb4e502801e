"""The array writers against a field-by-field oracle.

Each array file is written as one template, each time stamp formatted once,
applied to all of its values at once; the oracle below formats every field
on its own, the way the row tables are written (`fmt`), and the two must
give the same bytes.
"""

import math

import numpy as np
import pytest

from kscontrol.modal import Trace
from kscontrol.serialize import write_control_csv, write_observation_csv, write_trace_csv

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

import importlib.util
import math
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _artifact_diff():
    spec = importlib.util.spec_from_file_location("artifact_diff", TOOLS / "artifact_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _largest_change(line):
    return float(line.rsplit(" ", 1)[1])


def test_artifact_diff_measures_a_zero_base_field_against_its_file():
    ad = _artifact_diff()
    # a field that is 0.0 at the base is measured against the file's largest
    # base magnitude (4.0), and a list's against the list's (2.0)
    csv = _largest_change(ad._csv_change("t,q\n0.0,4.0\n1.0,0.0\n", "t,q\n0.0,4.0\n1.0,1e-3\n"))
    assert csv == 1e-3 / 4.0
    (line,) = ad._manifest_changes({"x": [0.0, 2.0]}, {"x": [0.5, 2.0]})
    assert _largest_change(line) == 0.25
    # inf only when the whole file or list is zero at the base
    assert math.isinf(_largest_change(ad._csv_change("q\n0.0\n", "q\n1e-3\n")))
    (line,) = ad._manifest_changes({"x": [0.0, 0.0]}, {"x": [0.0, 1.0]})
    assert math.isinf(_largest_change(line))


def test_artifact_diff_verdicts_compare_the_linear_and_moment_residuals():
    ad = _artifact_diff()
    base = {"linear_final_rel": 1e-10, "report": {"moment_residual_max": 2e-12}}
    assert ad._verdict_moves(base, base) == []
    within = {"linear_final_rel": 1e-10 + 1e-13, "report": {"moment_residual_max": 2e-12 + 1e-13}}
    assert ad._verdict_moves(base, within) == []
    moved = {"linear_final_rel": 1e-10 + 1e-11, "report": {"moment_residual_max": 2e-12 + 1e-11}}
    lines = ad._verdict_moves(base, moved)
    assert len(lines) == 2
    assert "linear_final_rel" in lines[0] and "report.moment_residual_max" in lines[1]

import ast
import collections
import importlib.util
import math
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
PACKAGE = ROOT / "src" / "kscontrol"

#: definitions in the package that no program code reads, each with the
#: one-line reason it stays: {name: reason}
UNREAD_ALLOWED = {}
#: result classes whose fields the program reads all at once, not by name,
#: each with the one-line reason: {class name: reason}
FIELDS_READ_WHOLE = {
    "SynthesisReport": "runner writes every field into the manifest through dataclasses.fields",
}


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


def test_artifact_diff_verdicts_compare_the_scanned_minimal_time():
    ad = _artifact_diff()
    base = {"T0_hat": 0.6180339887, "report": {"T0_hat": 0.6180339887}}
    assert ad._verdict_moves(base, base) == []
    assert ad._verdict_moves(base, {**base, "T0_hat": 0.6180339887 + 1e-13}) == []
    (line,) = ad._verdict_moves(base, {**base, "T0_hat": 0.6180339887 + 1e-11})
    assert line.startswith("verdict T0_hat:")
    # a run that loses its minimal time (an earlier exit) moves it too
    (line,) = ad._verdict_moves(base, {})
    assert "T0_hat" in line and "None" in line


def test_artifact_diff_marks_a_file_only_one_run_wrote():
    ad = _artifact_diff()
    base, head = {"manifest.json": "1", "old.csv": "2"}, {"manifest.json": "3", "new.csv": "4"}
    assert [ad._marked(name, base, head) for name in ("manifest.json", "new.csv", "old.csv")] == [
        "manifest.json", "new.csv (added)", "old.csv (removed)"]


def _definitions(tree):
    """(name, line, is_method) of every function, class and method, nested
    ones too; a method is a function defined directly in a class body."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return [(node.name, node.lineno, id(node) in methods)
            for node in ast.walk(tree) if isinstance(node, kinds)]


def _words(text):
    """How often each whole word occurs in ``text``."""
    return collections.Counter(re.findall(r"\w+", text))


def _program_texts():
    """The program outside the tests: the package (leaving out the re-exports
    of __init__.py), the demos, the tools and the benchmark."""
    paths = [*(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"),
             *sorted((ROOT / "demos").rglob("*.py")), *sorted(TOOLS.rglob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    return [path.read_text() for path in paths]


def _record_fields(tree):
    """{class name: annotated field names} of every ``@dataclass`` and ``NamedTuple``."""
    def name(node):  # dataclass, dataclasses.dataclass, dataclass(...) and the like
        node = node.func if isinstance(node, ast.Call) else node
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    return {node.name: [item.target.id for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and ("dataclass" in map(name, node.decorator_list)
                 or "NamedTuple" in map(name, node.bases))}


def test_every_package_definition_is_read_outside_the_tests():
    # a definition is read if its name appears as a whole word in the program
    # outside its own def/class line: in the package (leaving out the
    # re-exports of __init__.py), the demos, the tools or the benchmark.  A
    # method is read only through an attribute, so its name must also occur
    # there as ``.name``
    defs = {}  # name -> [(file, line text of a def/class of that name)]
    methods = set()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for name, line, is_method in _definitions(ast.parse(text)):
            if not name.startswith("__"):
                defs.setdefault(name, []).append((f"{path.name}:{line}", lines[line - 1]))
                if is_method:
                    methods.add(name)
    texts = _program_texts()
    program = _words("\n".join(texts))
    attributes = set(re.findall(r"\.(\w+)", "\n".join(texts)))
    unread = sorted(
        f"{name} ({', '.join(where for where, _ in sites)})" for name, sites in defs.items()
        if name not in UNREAD_ALLOWED
        and (program[name] <= _words("\n".join(line for _, line in sites))[name]
             or (name in methods and name not in attributes))
    )
    assert unread == [], f"defined in src/ but read only by tests: {unread}"
    assert all(reason.strip() for reason in UNREAD_ALLOWED.values())


def test_every_result_field_is_read_outside_the_tests():
    # a field of a dataclass or NamedTuple is read if ``.name`` occurs in the
    # program outside the tests (the texts of the definition guard above),
    # unless its class is read whole
    attributes = set(re.findall(r"\.(\w+)", "\n".join(_program_texts())))
    records = {}
    for path in sorted(PACKAGE.glob("*.py")):
        records.update(_record_fields(ast.parse(path.read_text())))
    assert set(FIELDS_READ_WHOLE) <= set(records)
    unread = sorted(f"{cls}.{name}" for cls, names in records.items()
                    if cls not in FIELDS_READ_WHOLE for name in names if name not in attributes)
    assert unread == [], f"result fields no program code reads: {unread}"
    assert all(reason.strip() for reason in FIELDS_READ_WHOLE.values())

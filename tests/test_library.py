"""Properties of the library source itself."""

import ast
import importlib.util
from pathlib import Path

import posetdim

SRC = Path(posetdim.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no check may rest on one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_json_is_parsed_only_inside_the_nesting_guard():
    # json.loads raises RecursionError on deeply nested input, and only
    # dimension._parse_json turns that into a ValueError
    guards, outside = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        guarded = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_parse_json":
                guards.append(path.name)
                guarded.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                outside.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"
                    and id(node) not in guarded):
                outside.append(f"{path.name}:{node.lineno}")
    assert guards == ["dimension.py"]
    assert not outside, outside


def test_every_traced_function_exists():
    # the benchmark's per-layer metrics wrap library functions by name;
    # a renamed or deleted one would silently read zero
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.remove()

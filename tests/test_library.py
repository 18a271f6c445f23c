"""Properties of the library source itself."""

import ast
import inspect
import re
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


def test_orders_are_deduplicated_only_by_realizer_of():
    # Realizer.of de-duplicates by order; de-duplication by object
    # identity or through dict.fromkeys must not come back beside it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "id") or (
                isinstance(f, ast.Attribute) and f.attr == "fromkeys"
                and isinstance(f.value, ast.Name) and f.value.id == "dict"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_every_imported_name_is_used():
    # a name imported into a library module and never read there is a
    # stale import; __init__.py imports to re-export, so it is exempt
    stale = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        stale += [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert not stale, stale


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


def _texts_outside_the_tests() -> list[str]:
    # every library module but the export list, every demo and every
    # benchmark file
    root = Path(__file__).resolve().parents[1]
    texts = [path.read_text() for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"]
    for folder in ("demos", "perfbench"):
        texts += [path.read_text() for path in sorted((root / folder).glob("*.py"))]
    return texts


def test_every_public_name_is_reached_outside_the_tests():
    # a name in __all__ that no library module, demo or benchmark file
    # uses is a test-only convenience, unless it is a documented entry
    # point that nothing inside the repository needs to call
    texts = _texts_outside_the_tests()
    unreached = []
    for name in posetdim.__all__:
        use = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^\s*(?:def|class) {name}\b.*$", re.M)
        if not any(use.search(definition.sub("", text)) for text in texts):
            unreached.append(name)
    assert sorted(unreached) == [
        "certificate_from_json", "certificate_to_json", "is_reversible",
        "realizer_from_json", "realizer_to_json",
    ]


def test_every_public_method_is_reached_outside_the_tests():
    # the same rule one level down: a public method or property of an
    # exported class must be read as an attribute somewhere outside its
    # own definition, not only by the tests
    texts = _texts_outside_the_tests()
    unreached = []
    for cls_name in posetdim.__all__:
        cls = getattr(posetdim, cls_name)
        if not inspect.isclass(cls):
            continue
        for name, attr in vars(cls).items():
            if name.startswith("_") or not (
                inspect.isfunction(attr)
                or isinstance(attr, (property, classmethod, staticmethod))
            ):
                continue
            use = re.compile(rf"\.{name}\b")
            definition = re.compile(rf"^\s*def {name}\b.*$", re.M)
            if not any(use.search(definition.sub("", text)) for text in texts):
                unreached.append(f"{cls_name}.{name}")
    assert unreached == []

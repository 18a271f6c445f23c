"""Properties of the library source itself."""

import ast
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

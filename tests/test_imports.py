"""Every module of the package imports at its top: an import inside a
function body hides a dependency (often a circular one) from the reader."""

import ast
from pathlib import Path

import pytest

import holdout

MODULES = sorted(Path(holdout.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = [
        f"{path.name}:{node.lineno}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []

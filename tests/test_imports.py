"""Rules on the package's source, read from its syntax trees.

Every module imports at its top: an import inside a function body hides a
dependency (often a circular one) from the reader. And a verb's signature is
the one declaration of the artifacts it takes, so only `signatures` raises
TypeError."""

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


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_signatures_raises_type_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    raised = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and "TypeError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert raised == [] or path.name == "signatures.py"

"""Rules on the package's source, read from its syntax trees.

Every module imports at its top: an import inside a function body hides a
dependency (often a circular one) from the reader. And a verb's signature is
the one declaration of what it takes, so only `signatures` raises TypeError,
and a setting's named choices are a `Literal` there, never a membership test
in the function's body. Every guard decision is the registry's, so only
`registry` compares a model's `assess_count` or raises an assess-guard error,
and a verb reads the bypass flag `admit` returns, not `guards_on`. Only `rng`
names `np.random`."""

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


def _is_names(node) -> bool:  # a literal tuple, list or set of strings
    return isinstance(node, (ast.Tuple, ast.List, ast.Set)) and bool(node.elts) and all(
        isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_parameter_is_checked_against_written_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    checked = [
        f"{path.name}:{node.lineno} {fn.name}({node.left.id})"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
        and node.left.id in {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        and any(isinstance(op, (ast.In, ast.NotIn)) and _is_names(right)
                for op, right in zip(node.ops, node.comparators))
    ]
    assert checked == []



ASSESS_GUARD_ERRORS = {"AlreadyAssessedModel", "HoldoutSpent", "LineageMismatch"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_registry_decides_the_assess_guard(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    decided = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(
            isinstance(n, ast.Attribute) and n.attr == "assess_count" for n in ast.walk(node))
        or isinstance(node, ast.Raise) and node.exc is not None and any(
            isinstance(n, ast.Name) and n.id in ASSESS_GUARD_ERRORS for n in ast.walk(node.exc))
    ]
    assert decided == [] or path.name == "registry.py"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_registry_and_the_run_report_read_guards_on(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "guards_on"
    ]
    assert read == [] or path.name in ("registry.py", "workflow.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_rng_names_np_random(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    named = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "random"
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]
    assert named == [] or path.name == "rng.py"

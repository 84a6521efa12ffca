"""A model document is outside input: one mutated value in a fitted
document either fails to load with a ConfigError, or the model it loads
predicts a finite value for every row and evaluates to finite metrics or a
WorkflowError, never a bare Python error.

Each mutant starts from a fitted document of one algorithm and changes one
value: another JSON type, a list shortened or lengthened, a tree node
replaced, a feature index out of range, an unknown step kind or deep
nesting.
"""

import copy
import functools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from holdout import (
    ConfigError,
    DataFrame,
    ProvenanceRegistry,
    WorkflowError,
    evaluate,
    fit,
    model_from_dict,
    model_to_dict,
    predict,
    split,
)

from conftest import make_classification_frame, make_regression_frame

ALGORITHMS = ("logistic", "linear", "decision_tree", "random_forest", "knn")

# Values of every JSON type, and the numbers Python's json also reads.
OTHER = st.sampled_from([
    None, True, False, 0, -1, 1, 2.5, 10**400, "x", "", [], [1.0], [[1.0]], {}, {"value": 1.0},
    math.nan, math.inf, -math.inf,
])


@functools.cache
def _fitted(algorithm):
    """(document, frame to predict) of one algorithm, fit on a frame with a
    categorical column so its transformer one-hot encodes."""
    base = make_regression_frame(60) if algorithm == "linear" else make_classification_frame(60)
    cells = base.columns()
    cells["c"] = ["abc"[i % 3] for i in range(60)]
    reg = ProvenanceRegistry()
    p = split(DataFrame(cells), "y", seed=4, registry=reg)
    hp = {"n_trees": 3, "max_depth": 3} if algorithm == "random_forest" else None
    m = fit(p.train, "y", algorithm=algorithm, hyperparameters=hp, registry=reg)
    return model_to_dict(m), p.valid


def _paths(doc):
    """The path of every value inside a document, parents before children."""
    paths, stack = [], [((), doc)]
    while stack:
        path, value = stack.pop()
        paths.append(path)
        if isinstance(value, dict):
            stack += [((*path, k), v) for k, v in value.items()]
        elif isinstance(value, list):
            stack += [((*path, i), v) for i, v in enumerate(value)]
    return paths


def _deep(depth, leaf):
    """A chain of `depth` splits, every left child the next split."""
    node = leaf
    for _ in range(depth):
        node = {"feature": 0, "threshold": 0.0, "gain": 0.0, "left": node, "right": leaf}
    return node


@st.composite
def _mutant(draw, algorithm):
    doc, frame = _fitted(algorithm)
    doc = copy.deepcopy(doc)
    *parent_path, key = draw(st.sampled_from(_paths(doc)[1:]))
    parent = doc
    for step in parent_path:
        parent = parent[step]
    value = parent[key]
    features = len(doc["transformer"]["feature_names"])
    choices = [draw(OTHER)]
    if isinstance(value, list):
        choices += [value[:-1], value + value[-1:], value + [draw(OTHER)]]
    if isinstance(value, dict) and ("value" in value or "feature" in value):
        choices += [{"value": draw(OTHER)}, _deep(draw(st.sampled_from([2, 50, 5000])), value),
                    {**value, "extra": 1}, {k: v for k, v in value.items() if k != "left"}]
    if key == "feature":
        choices += [features, 99, -1]
    if key == "kind":
        choices += ["bogus", "one_hot", "standardize", "impute_mean"]
    parent[key] = draw(st.sampled_from(choices))
    return doc, frame


def _check(mutant):
    doc, frame = mutant
    try:
        m = model_from_dict(doc)
    except ConfigError:
        return
    values = np.array(predict(m, frame).values)
    assert values.shape == (frame.row_count,) and np.isfinite(values).all()
    guards_off = ProvenanceRegistry()
    guards_off.set_guards("off")
    try:
        metrics = evaluate(m, frame, registry=guards_off)
    except WorkflowError:
        return
    assert np.isfinite(list(metrics.values.values())).all()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALGORITHMS).flatmap(_mutant))
def test_a_mutated_document_fails_at_load_or_predicts_finite_values(mutant):
    _check(mutant)

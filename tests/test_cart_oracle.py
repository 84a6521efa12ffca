"""CART and random forest against a reference split search.

The reference below is a copy of the per-node split search the library
first shipped: each node sorts its (rows x features) block of float values
with mergesort, scans every threshold with cumulative sums, and partitions
its rows recursively, drawing each node's feature sample depth first.
Fitted trees and forests must equal it bit for bit, NaN thresholds and
empty leaves included, on data with heavy ties, ±0.0 and NaN cells.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holdout.learners import resolve_hyperparameters, train


def _reference_best_split(X, y, rows, features, criterion, min_leaf):
    n = len(rows)
    v = X[np.ix_(rows, features)]
    order = np.argsort(v, axis=0, kind="mergesort")
    vs = np.take_along_axis(v, order, axis=0)
    ys = y[rows][order]
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    total, total_sq = csum[-1], csq[-1]
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    left_mean = csum[:-1] / left_n
    right_mean = (total - csum[:-1]) / right_n
    if criterion == "gini":
        left_imp = 2.0 * left_mean * (1.0 - left_mean)
        right_imp = 2.0 * right_mean * (1.0 - right_mean)
    else:
        left_imp = csq[:-1] / left_n - left_mean**2
        right_imp = (total_sq - csq[:-1]) / right_n - right_mean**2
    cost = (left_n * left_imp + right_n * right_imp) / n
    allowed = (vs[1:] != vs[:-1]) & (left_n >= min_leaf) & (right_n >= min_leaf)
    cost = np.where(allowed, cost, np.inf)
    best = None
    for j, i in enumerate(np.argmin(cost, axis=0)):
        if not np.isfinite(cost[i, j]):
            continue
        if best is None or cost[i, j] < best[0] - 1e-15:
            midpoint = (vs[i, j] + vs[i + 1, j]) / 2.0
            threshold = float(vs[i, j] if midpoint == vs[i + 1, j] else midpoint)
            best = (float(cost[i, j]), int(features[j]), threshold)
    return best


def _reference_impurity(y_rows, criterion):
    mean = float(np.mean(y_rows))
    if criterion == "gini":
        return 2.0 * mean * (1.0 - mean)
    return float(np.mean(y_rows**2) - mean**2)


def _reference_grow_tree(X, y, rows, depth, hp, criterion, rng, n_subsample):
    leaf_value = float(np.mean(y[rows]))
    if (
        depth >= int(hp["max_depth"])
        or len(rows) < 2 * int(hp["min_leaf"])
        or np.all(y[rows] == y[rows[0]])
    ):
        return {"value": leaf_value}
    p = X.shape[1]
    if n_subsample is not None and n_subsample < p:
        features = np.sort(rng.choice(p, size=n_subsample, replace=False))
    else:
        features = np.arange(p)
    found = _reference_best_split(X, y, rows, features, criterion, int(hp["min_leaf"]))
    if found is None:
        return {"value": leaf_value}
    cost, feature, threshold = found
    mask = X[rows, feature] <= threshold
    gain = len(rows) * (_reference_impurity(y[rows], criterion) - cost)
    grow = (depth + 1, hp, criterion, rng, n_subsample)
    return {
        "feature": feature,
        "threshold": threshold,
        "gain": max(0.0, float(gain)),
        "left": _reference_grow_tree(X, y, rows[mask], *grow),
        "right": _reference_grow_tree(X, y, rows[~mask], *grow),
    }


def _philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def _reference_fit(algorithm, X, y, hp, seed, task):
    criterion = "gini" if task == "classification" else "variance"
    n, p = X.shape
    if algorithm == "decision_tree":
        root = _reference_grow_tree(X, y, np.arange(n), 0, hp, criterion, _philox(seed), None)
        return {"root": root, "task": task}
    if hp["max_features"] == "sqrt":
        n_subsample = max(1, int(round(math.sqrt(p))))
    else:
        n_subsample = max(1, min(int(hp["max_features"]), p))
    trees = []
    for tree_seq in np.random.SeedSequence(seed).spawn(int(hp["n_trees"])):
        rng = _philox(tree_seq)
        rows = rng.integers(0, n, size=n)
        trees.append(_reference_grow_tree(X, y, rows, 0, hp, criterion, rng, n_subsample))
    return {"trees": trees, "task": task}


def _json(d):
    # JSON text tells NaN, -0.0 and 0.0 apart, where == on floats would not.
    return json.dumps(d, sort_keys=True)


def _assert_matches_reference(algorithm, X, y, overrides, seed, task):
    hp = resolve_hyperparameters(algorithm, overrides)
    state = train(algorithm, X, y, hp, seed, task)
    assert _json(state.to_dict()) == _json(_reference_fit(algorithm, X, y, hp, seed, task))


# Few distinct values, so nodes tie often; ±0.0 compare equal and NaN
# sorts last, each in its own position among equals.
TIED_CELLS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.nan])
ANY_CELL = st.one_of(
    TIED_CELLS, st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
)


@st.composite
def _cart_problem(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    p = draw(st.integers(min_value=1, max_value=5))
    cell = draw(st.sampled_from([TIED_CELLS, ANY_CELL]))
    X = np.array(draw(st.lists(cell, min_size=n * p, max_size=n * p))).reshape(n, p)
    task = draw(st.sampled_from(["classification", "regression"]))
    if task == "classification":
        target = st.sampled_from([0.0, 1.0])
    else:
        target = st.one_of(
            st.sampled_from([0.0, 1.5, -2.0]),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
        )
    y = np.array(draw(st.lists(target, min_size=n, max_size=n)))
    overrides = {
        "min_leaf": draw(st.sampled_from([1, 2, 3, 8])),
        "max_depth": draw(st.sampled_from([0, 1, 2, 6, 12])),
    }
    algorithm = draw(st.sampled_from(["decision_tree", "random_forest"]))
    if algorithm == "random_forest":
        overrides["n_trees"] = draw(st.integers(min_value=1, max_value=4))
        overrides["max_features"] = draw(st.sampled_from(["sqrt", 1, 2, p, p + 3]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return algorithm, X, y, overrides, seed, task


# Empty children come from NaN thresholds; np.mean of them warns.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(problem=_cart_problem())
@settings(max_examples=150, deadline=None)
def test_trees_and_forests_equal_reference(problem):
    _assert_matches_reference(*problem)


@pytest.mark.parametrize("n", [65_535, 65_536, 65_537])
def test_rank_width_boundary(n):
    """Around the row count where ranks outgrow 16 bits: 65,537 distinct
    values need rank 65,536."""
    rng = _philox(5)
    X = np.column_stack([rng.normal(size=n), np.round(rng.normal(size=n), 1)])
    y = (X[:, 0] + rng.normal(size=n) > 0.3).astype(np.float64)
    _assert_matches_reference("decision_tree", X, y, {"max_depth": 2}, 0, "classification")


# Splits are searched in batches of at most X.size cells, laid end to end.
# A forest's first round then spans several batches (3 roots of 2 of 6
# features fit one), an unsampled forest's rounds take the pending nodes
# of every tree, and a deep tree searches many nodes per batch. Integer
# columns tie within nodes and across the boundaries between neighbours.
@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("algorithm, overrides, n", [
    ("random_forest", {"n_trees": 12, "max_features": 2}, 300),
    ("random_forest", {"n_trees": 20, "max_features": "sqrt", "min_leaf": 1, "max_depth": 12}, 200),
    ("random_forest", {"n_trees": 12, "max_features": 6, "min_leaf": 3}, 400),
    ("decision_tree", {"min_leaf": 1, "max_depth": 12}, 400),
])
def test_batch_boundaries(algorithm, overrides, n, task):
    rng = _philox(11)
    X = np.column_stack([
        rng.normal(size=n),
        np.round(rng.normal(size=n), 1),
        rng.integers(0, 3, size=n).astype(np.float64),
        rng.integers(0, 2, size=n) * 0.5,
        np.full(n, 2.0),
        rng.integers(-4, 5, size=n) / 4.0,
    ])
    signal = X[:, 0] + X[:, 2] + rng.normal(size=n)
    y = (signal > 0.5).astype(np.float64) if task == "classification" else np.round(signal, 2)
    _assert_matches_reference(algorithm, X, y, overrides, 7, task)


@pytest.mark.parametrize("algorithm", ["decision_tree", "random_forest"])
def test_no_feature_columns(algorithm):
    """With no feature column there is no threshold: every tree is a leaf."""
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    _assert_matches_reference(algorithm, np.empty((6, 0)), y, {}, 0, "classification")


# A tree draws its feature subsets a block at a time. Where numpy's choice
# runs Floyd's algorithm the block emulates it; past p = 10,000 with
# max_features > p // 50 numpy shuffles a tail instead, and each subset is
# drawn by choice itself. The last two cases sit on either side of that line.
@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("p, max_features, n, n_trees, max_depth", [
    (6, 1, 200, 12, 6),
    (6, 5, 200, 12, 6),
    (10_001, 200, 12, 2, 2),
    (10_001, 201, 12, 2, 2),
])
def test_feature_draw_regimes(p, max_features, n, n_trees, max_depth, task):
    rng = _philox(13)
    X = np.round(rng.normal(size=(n, p)), 1)
    signal = X[:, 0] + X[:, -1] + rng.normal(size=n)
    y = (signal > 0.0).astype(np.float64) if task == "classification" else np.round(signal, 2)
    overrides = {"n_trees": n_trees, "max_features": max_features, "max_depth": max_depth,
                 "min_leaf": 1}
    _assert_matches_reference("random_forest", X, y, overrides, 5, task)

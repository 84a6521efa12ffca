import itertools
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holdout import learners
from holdout.errors import ConfigError
from holdout.learners import (
    _nearest,
    LEARNERS,
    fit_decision_tree,
    fit_knn,
    fit_linear,
    fit_logistic,
    fit_random_forest,
    resolve_hyperparameters,
    state_from_dict,
    train,
)

from holdout.signatures import _check, signature

from conftest import left_sum


def hp(algorithm, **overrides):
    return resolve_hyperparameters(algorithm, overrides)


def _knn_oracle(A, y, Q, k):
    """kNN by its definition: squared differences summed feature by feature,
    left to right, then the k nearest by a stable sort."""
    squares = ((Q[:, f, None] - A[None, :, f]) ** 2 for f in range(A.shape[1]))
    dists = np.sqrt(left_sum(squares))
    return y[np.argsort(dists, axis=1, kind="mergesort")[:, :k]].mean(axis=1)


# 8 points, two interleaved-looking clusters that ARE linearly separable.
SEP_X = np.array(
    [
        [0.0, 0.0],
        [0.5, 0.2],
        [0.1, 0.6],
        [0.4, 0.5],
        [2.0, 2.2],
        [2.4, 1.9],
        [1.9, 2.5],
        [2.2, 2.1],
    ]
)
SEP_Y = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])


def separating_hyperplane_exists(X, y, grid_steps=21):
    """Exhaustive oracle: scan a coarse grid of (w1, w2, b) for a plane with
    zero training errors."""
    span = np.linspace(-3.0, 3.0, grid_steps)
    for w1, w2, b in itertools.product(span, span, span):
        z = X[:, 0] * w1 + X[:, 1] * w2 + b
        if np.all((z > 0) == (y == 1.0)):
            return True
    return False


class TestLogistic:
    def test_dataset_is_separable_by_oracle(self):
        assert separating_hyperplane_exists(SEP_X, SEP_Y)

    def test_training_accuracy_one_on_separable(self):
        state = fit_logistic(SEP_X, SEP_Y, seed=0, task="classification", **hp("logistic"))
        prob = state.predict(SEP_X)
        assert np.all((prob >= 0.5) == (SEP_Y == 1.0))

    def test_probabilities_in_unit_interval(self):
        state = fit_logistic(SEP_X, SEP_Y, seed=0, task="classification", **hp("logistic"))
        prob = state.predict(SEP_X)
        assert np.all(prob >= 0.0) and np.all(prob <= 1.0)

    def test_l2_shrinks_weights(self):
        plain = fit_logistic(SEP_X, SEP_Y, seed=0, task="classification", **hp("logistic"))
        ridged = fit_logistic(SEP_X, SEP_Y, seed=0, task="classification",
                              **hp("logistic", l2=1.0))
        assert np.linalg.norm(ridged.weights) < np.linalg.norm(plain.weights)

    def test_deterministic(self):
        a = fit_logistic(SEP_X, SEP_Y, seed=5, task="classification", **hp("logistic"))
        b = fit_logistic(SEP_X, SEP_Y, seed=5, task="classification", **hp("logistic"))
        assert a.weights == b.weights and a.bias == b.bias


class TestLinear:
    def test_recovers_exact_coefficients(self):
        rng = np.random.Generator(np.random.Philox(1))
        X = rng.normal(size=(50, 3))
        y = X @ np.array([2.0, -1.0, 0.5]) + 3.0
        state = fit_linear(X, y, seed=0, task="regression", **hp("linear"))
        assert np.allclose(state.weights, [2.0, -1.0, 0.5], atol=1e-8)
        assert abs(state.bias - 3.0) < 1e-8

    def test_singular_gram_ridge_fallback(self):
        # Duplicate column makes X^T X singular; fit must still succeed.
        rng = np.random.Generator(np.random.Philox(2))
        x = rng.normal(size=30)
        X = np.column_stack([x, x])
        y = 2.0 * x + 1.0
        state = fit_linear(X, y, seed=0, task="regression", **hp("linear"))
        pred = state.predict(X)
        assert np.allclose(pred, y, atol=1e-3)

    def test_ridge_solves_the_penalized_normal_equations(self):
        # The penalty covers the intercept column too, so the bias shrinks.
        rng = np.random.Generator(np.random.Philox(1))
        X = rng.normal(size=(50, 3))
        y = X @ np.array([2.0, -1.0, 0.5]) + 3.0
        state = fit_linear(X, y, seed=0, task="regression", **hp("linear", ridge=10.0))
        Xb = np.hstack([X, np.ones((50, 1))])
        coef = np.linalg.solve(Xb.T @ Xb + 10.0 * np.eye(4), Xb.T @ y)
        assert [*state.weights, state.bias] == coef.tolist()
        assert abs(state.bias) < 3.0 - 0.1


class TestDecisionTree:
    def test_fits_axis_aligned_pattern(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0], [13.0]])
        y = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        state = fit_decision_tree(X, y, seed=0, task="classification", **hp("decision_tree"))
        assert np.all((state.predict(X) >= 0.5) == (y == 1.0))
        root = state.root
        assert 3.0 < root["threshold"] < 10.0

    def test_max_depth_zero_like_leaf(self):
        X = SEP_X
        state = fit_decision_tree(X, SEP_Y, seed=0, task="classification",
                                  **hp("decision_tree", max_depth=0))
        assert state.root == {"value": 0.5}

    def test_min_leaf_respected(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=float)
        state = fit_decision_tree(X, y, seed=0, task="classification",
                                  **hp("decision_tree", min_leaf=4))

        def check(node, n_rows):
            if "value" in node:
                assert n_rows >= 4
                return
            left = int(np.sum(X[:, 0] <= node["threshold"]))
            check(node["left"], left)
            check(node["right"], n_rows - left)

        check(state.root, 10)

    def test_regression_variance_split(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([1.0, 1.1, 0.9, 5.0, 5.1, 4.9])
        state = fit_decision_tree(X, y, seed=0, task="regression", **hp("decision_tree"))
        pred = state.predict(X)
        assert abs(pred[0] - 1.0) < 0.2 and abs(pred[-1] - 5.0) < 0.2

    @pytest.mark.parametrize(
        "low, high",
        [
            (0.9607666666666667, np.nextafter(0.9607666666666667, np.inf)),
            (1e308, 1.7e308),
            (-1.7e308, -1e308),
        ],
        ids=["adjacent", "overflow to inf", "overflow to -inf"],
    )
    def test_threshold_between_adjacent_doubles_splits_them(self, low, high):
        # The midpoint of two adjacent doubles rounds onto the upper one, and
        # that of two doubles near the float64 limit overflows; a threshold
        # there would send every row to one side.
        X = np.array([[low]] * 3 + [[high]] * 3)
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        state = fit_decision_tree(X, y, seed=0, task="regression", **hp("decision_tree"))
        assert state.root["threshold"] == low
        assert state.root["left"] == {"value": 0.0}
        assert state.root["right"] == {"value": 1.0}
        assert list(state.predict(X)) == list(y)

    def test_deterministic(self):
        a = fit_decision_tree(SEP_X, SEP_Y, seed=0, task="classification", **hp("decision_tree"))
        b = fit_decision_tree(SEP_X, SEP_Y, seed=0, task="classification", **hp("decision_tree"))
        assert a.root == b.root

    def test_gain_recorded_on_splits(self):
        state = fit_decision_tree(SEP_X, SEP_Y, seed=0, task="classification",
                                  **hp("decision_tree"))
        gains = state.importances()
        assert gains and all(g >= 0 for g in gains.values())


class TestRandomForest:
    def small(self):
        return hp("random_forest", n_trees=10, max_depth=4)

    def test_seeded_determinism(self):
        a = fit_random_forest(SEP_X, SEP_Y, seed=3, task="classification", **self.small())
        b = fit_random_forest(SEP_X, SEP_Y, seed=3, task="classification", **self.small())
        assert a.trees == b.trees

    def test_seed_changes_forest(self):
        a = fit_random_forest(SEP_X, SEP_Y, seed=3, task="classification", **self.small())
        b = fit_random_forest(SEP_X, SEP_Y, seed=4, task="classification", **self.small())
        assert a.trees != b.trees

    def test_predictions_are_probabilities(self):
        state = fit_random_forest(SEP_X, SEP_Y, seed=1, task="classification", **self.small())
        pred = state.predict(SEP_X)
        assert np.all(pred >= 0.0) and np.all(pred <= 1.0)

    def test_n_trees(self):
        state = fit_random_forest(SEP_X, SEP_Y, seed=1, task="classification", **self.small())
        assert len(state.trees) == 10


class TestKnn:
    def test_k1_memorizes_distinct_points(self):
        state = fit_knn(SEP_X, SEP_Y, seed=0, task="classification", **hp("knn", k=1))
        assert np.array_equal(state.predict(SEP_X), SEP_Y)

    def test_k_capped_at_train_size(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        state = fit_knn(X, y, seed=0, task="classification", **hp("knn", k=50))
        assert np.allclose(state.predict(X), [0.5, 0.5])

    def test_distance_tie_lower_index_wins(self):
        # Query at 1.0 is equidistant from train points 0.0 and 2.0; the
        # k=1 neighbor must be row 0.
        X = np.array([[0.0], [2.0]])
        y = np.array([0.0, 1.0])
        state = fit_knn(X, y, seed=0, task="classification", **hp("knn", k=1))
        assert state.predict(np.array([[1.0]]))[0] == 0.0

    def test_regression_mean(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, 3.0, 5.0])
        state = fit_knn(X, y, seed=0, task="regression", **hp("knn", k=3))
        assert np.allclose(state.predict(np.array([[1.0]])), [3.0])

    @pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 129])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blocked_queries_equal_unblocked_formula(self, monkeypatch, m, order):
        # 12 features: numpy's own sum over them is pairwise or sequential
        # depending on the memory layout, which shows in the last bit.
        # Permutations of one vector lie at one true distance from the
        # origin, so which is nearest to an origin query depends on that
        # order; duplicated train rows with different targets make exact ties.
        rng = np.random.Generator(np.random.Philox(3))
        v = rng.normal(size=12)
        A = np.vstack([[rng.permutation(v) for _ in range(20)], rng.normal(2.0, size=(25, 12))])
        A = np.vstack([A, A])
        y = rng.normal(size=90)
        Q = np.array(rng.normal(size=(m, 12)), order=order)
        Q[::2] = 0.0
        Q[:3] = A[:min(m, 3)]
        # Training input in the column-major layout feature_matrix gives.
        state = fit_knn(np.asfortranarray(A), y, seed=0, task="regression",
                        **hp("knn", k=4))
        monkeypatch.setattr(learners, "KNN_BLOCK_CELLS", 64 * len(A))  # 64-row blocks
        assert state.predict(Q).tobytes() == _knn_oracle(A, y, Q, 4).tobytes()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_layout_and_batch_predicts_alike(self, data):
        # Training rows are permutations of one vector, so distances tie in
        # exact arithmetic and only the summation order separates them.
        p = data.draw(st.integers(1, 24), label="features")
        cell = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)
        v = data.draw(st.lists(cell, min_size=p, max_size=p), label="vector")
        n = data.draw(st.integers(1, 12), label="rows")
        A = np.array([data.draw(st.permutations(v)) for _ in range(n)]).reshape(n, p)
        y = np.arange(n, dtype=np.float64)
        queries = st.one_of(st.just([0.0] * p), st.permutations(v),
                            st.lists(cell, min_size=p, max_size=p))
        Q = np.array(data.draw(st.lists(queries, min_size=1, max_size=6), label="queries"))
        k = data.draw(st.integers(1, n), label="k")
        cells = data.draw(st.integers(1, 3 * n), label="block cells")
        state = fit_knn(A, y, seed=0, task="regression", **hp("knn", k=k))
        expected = _knn_oracle(A, y, Q, k).tobytes()
        with mock.patch.object(learners, "KNN_BLOCK_CELLS", cells):
            assert state.predict(np.ascontiguousarray(Q)).tobytes() == expected
            assert state.predict(np.asfortranarray(Q)).tobytes() == expected
            alone = np.concatenate([state.predict(Q[i : i + 1]) for i in range(len(Q))])
        assert alone.tobytes() == expected

    def test_predict_memory_is_bounded(self):
        # A (queries x train rows x features) temporary would take 480 MB here.
        rng = np.random.Generator(np.random.Philox(9))
        state = fit_knn(rng.normal(size=(5000, 40)), rng.normal(size=5000),
                        seed=0, task="regression", **hp("knn"))
        Q = np.asfortranarray(rng.normal(size=(300, 40)))
        tracemalloc.start()
        try:
            state.predict(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_nearest_equals_stable_sort(self, data):
        # Few distinct values make exact ties common; infinities and NaN
        # (which a stable sort puts last) appear in every position.
        m = data.draw(st.integers(0, 4), label="rows")
        n = data.draw(st.integers(1, 12), label="columns")
        values = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, np.inf, -np.inf, np.nan])
        cells = data.draw(st.lists(values, min_size=m * n, max_size=m * n), label="cells")
        dists = np.array(cells, dtype=np.float64).reshape(m, n)
        k = data.draw(st.integers(1, n), label="k")
        expected = np.argsort(dists, axis=1, kind="mergesort")[:, :k]
        assert np.array_equal(_nearest(dists, k), expected)

    def test_nearest_on_distance_blocks(self):
        # A query block's rows at realistic sizes, with rounded (tied) values.
        rng = np.random.Generator(np.random.Philox(5))
        dists = np.round(rng.random((64, 400)), 2)
        for k in (1, 5, 37, 400):
            expected = np.argsort(dists, axis=1, kind="mergesort")[:, :k]
            assert np.array_equal(_nearest(dists, k), expected)


class TestDispatch:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            resolve_hyperparameters("svm", None)

    def test_unknown_hyperparameter(self):
        with pytest.raises(ConfigError, match="hyperparameter"):
            resolve_hyperparameters("knn", {"kk": 3})

    def test_task_restrictions(self):
        with pytest.raises(ConfigError):
            train("logistic", SEP_X, SEP_Y, hp("logistic"), 0, "regression")
        with pytest.raises(ConfigError):
            train("linear", SEP_X, SEP_Y, hp("linear"), 0, "classification")

    def test_defaults_documented_shape(self):
        assert resolve_hyperparameters("decision_tree", None) == {"max_depth": 6, "min_leaf": 2}
        assert resolve_hyperparameters("random_forest", None)["n_trees"] == 50
        assert resolve_hyperparameters("knn", None) == {"k": 5}

    def test_state_roundtrip(self):
        for algo in ("logistic", "linear", "decision_tree", "random_forest", "knn"):
            task = "classification" if algo != "linear" else "regression"
            y = SEP_Y if task == "classification" else SEP_X[:, 0] * 2.0
            small = {"n_trees": 3} if algo == "random_forest" else None
            state = train(algo, SEP_X, y, resolve_hyperparameters(algo, small), 1, task)
            clone = state_from_dict(algo, state.to_dict(), SEP_X.shape[1])
            assert np.allclose(clone.predict(SEP_X), state.predict(SEP_X))


class _Three:
    """A value that converts to 3 but is no number: its repr says nothing."""

    def __int__(self):
        return 3


class TestHyperparameterDomains:
    @pytest.mark.parametrize(
        "algorithm, key, value",
        [
            ("knn", "k", 0),
            ("knn", "k", -3),
            ("knn", "k", 2.5),
            ("knn", "k", True),
            ("knn", "k", "3"),
            ("decision_tree", "max_depth", -1),
            ("decision_tree", "min_leaf", 0),
            ("logistic", "learning_rate", float("nan")),
            ("logistic", "learning_rate", 0.0),
            ("logistic", "tol", float("inf")),
            ("logistic", "max_iter", 0),
            ("linear", "ridge", -1.0),
            ("random_forest", "n_trees", 0),
            ("random_forest", "max_features", "log2"),
            ("random_forest", "max_features", 0),
            ("random_forest", "max_depth", float("inf")),
            # Values int() or float() accepts that are no Python or numpy
            # number: a learner would truncate 7/2 to 3, and np.True_ is no
            # more a count than True.
            pytest.param("knn", "k", _Three(), id="knn-k-_Three()"),
            pytest.param("knn", "k", Fraction(7, 2), id="knn-k-Fraction(7, 2)"),
            pytest.param("knn", "k", Decimal("3"), id="knn-k-Decimal('3')"),
            pytest.param("knn", "k", Decimal("3.5"), id="knn-k-Decimal('3.5')"),
            pytest.param("knn", "k", np.True_, id="knn-k-np.True_"),
            pytest.param("logistic", "learning_rate", Fraction(1, 10),
                         id="logistic-learning_rate-Fraction(1, 10)"),
            pytest.param("decision_tree", "max_depth", 10**400,
                         id="decision_tree-max_depth-10**400"),
        ],
    )
    def test_out_of_domain_values_rejected(self, algorithm, key, value):
        with pytest.raises(ConfigError, match=f"hyperparameter '{key}' for '{algorithm}'"):
            resolve_hyperparameters(algorithm, {key: value})

    @pytest.mark.parametrize(
        "algorithm, overrides",
        [
            ("knn", {"k": 1}),
            ("knn", {"k": np.int64(3)}),
            ("knn", {"k": np.float32(3.0)}),
            ("logistic", {"learning_rate": np.float64(0.5), "max_iter": np.uint8(7)}),
            ("decision_tree", {"max_depth": 0}),
            ("decision_tree", {"max_depth": 6.0}),
            ("logistic", {"learning_rate": 1e-6, "tol": 0.0, "l2": 0, "max_iter": 1}),
            ("random_forest", {"max_features": "sqrt", "n_trees": 1}),
            ("random_forest", {"max_features": 3}),
        ],
    )
    def test_in_domain_values_kept_as_given(self, algorithm, overrides):
        resolved = resolve_hyperparameters(algorithm, overrides)
        for key, value in overrides.items():
            assert resolved[key] is value

    def test_every_fit_declares_its_hyperparameters(self):
        # X, y, seed and task, then keyword-only hyperparameters, each with
        # a checked annotation and a default that passes its own check.
        for algorithm, learner in LEARNERS.items():
            params = list(signature(learner.fit).parameters.values())
            assert [p.name for p in params[:4]] == ["X", "y", "seed", "task"], algorithm
            assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:4])
            assert params[4:], algorithm
            for p in params[4:]:
                assert p.kind is p.KEYWORD_ONLY, p.name
                _, test, error = _check(p.annotation)
                assert error is ConfigError and test(p.default), p.name


def test_capacity_ordering_on_memorization_probe():
    # Duplicated-row synthetic: a tree can carve out every duplicate batch,
    # logistic cannot; train accuracy must order tree >= logistic.
    rng = np.random.Generator(np.random.Philox(9))
    base = rng.normal(size=(12, 3))
    labels = np.array([0.0, 1.0] * 6)
    X = np.repeat(base, 4, axis=0)
    y = np.repeat(labels, 4)
    tree = fit_decision_tree(X, y, seed=0, task="classification", **hp("decision_tree"))
    logistic = fit_logistic(X, y, seed=0, task="classification", **hp("logistic"))
    tree_acc = float(np.mean((tree.predict(X) >= 0.5) == y))
    logistic_acc = float(np.mean((logistic.predict(X) >= 0.5) == y))
    assert tree_acc >= logistic_acc

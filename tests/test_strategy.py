import importlib

import numpy as np
import pytest

from holdout import (
    ConfigError,
    Evidence,
    PartitionError,
    HoldoutSpent,
    Leaderboard,
    StackedModel,
    TuningResult,
    assess,
    cv,
    fit,
    predict,
    split,
    stack,
    screen,
    tune,
)

from conftest import make_classification_frame


@pytest.fixture
def rotation(registry):
    p = split(make_classification_frame(60), "y", seed=4, registry=registry)
    return p, cv(p, 3, seed=1, registry=registry)


class TestScreen:
    def test_leaderboard_ranked_descending(self, registry, rotation):
        _, c = rotation
        board = screen(c, "y", ["logistic", "decision_tree", "knn"], seed=1,
                       registry=registry)
        assert isinstance(board, Leaderboard)
        assert len(board.rows) == 3
        scores = [row[1][board.metric] for row in board.rows]
        assert scores == sorted(scores, reverse=True)
        assert board.best == board.rows[0][0]

    def test_single_algorithm(self, registry, rotation):
        _, c = rotation
        board = screen(c, "y", ["knn"], seed=1, registry=registry)
        assert board.best == "knn" and len(board.rows) == 1

    def test_unknown_algorithm(self, registry, rotation):
        _, c = rotation
        with pytest.raises(ConfigError):
            screen(c, "y", ["logistic", "svm"], registry=registry)

    def test_empty_algorithms(self, registry, rotation):
        _, c = rotation
        with pytest.raises(ConfigError):
            screen(c, "y", [], registry=registry)

    def test_deterministic(self, registry, rotation):
        _, c = rotation
        a = screen(c, "y", ["logistic", "decision_tree"], seed=2, registry=registry)
        b = screen(c, "y", ["logistic", "decision_tree"], seed=2, registry=registry)
        assert a == b

    def test_fold_identity_across_trials(self, registry, rotation):
        # Every trial consumes the same rotation object, hence identical folds.
        _, c = rotation
        folds_before = c.folds
        screen(c, "y", ["logistic", "knn"], seed=1, registry=registry)
        assert c.folds == folds_before

    def test_registry_untouched(self, registry, rotation):
        _, c = rotation
        before = registry.dump()
        screen(c, "y", ["logistic", "decision_tree"], seed=1, registry=registry)
        assert registry.dump() == before

    def test_requires_rotation(self, registry, rotation):
        p, _ = rotation
        with pytest.raises(TypeError):
            screen(p, "y", ["logistic"], registry=registry)

    def test_tie_breaks_by_name(self, registry, rotation):
        # Same algorithm listed effectively ties with itself under two names
        # is impossible; instead verify stable ordering when scores tie by
        # using identical learners via hyperparameters.
        _, c = rotation
        board = screen(c, "y", ["knn", "decision_tree"], seed=1,
                       hyperparameters={"decision_tree": {"max_depth": 6}},
                       registry=registry)
        names = [r[0] for r in board.rows]
        assert sorted(names) == ["decision_tree", "knn"]


class TestTune:
    def test_grid_lexicographic_capped(self, registry, rotation):
        _, c = rotation
        result = tune(
            c, "y", algorithm="decision_tree",
            space={"max_depth": [2, 4], "min_leaf": [2, 3]},
            budget=3, method="grid", seed=1, registry=registry,
        )
        assert isinstance(result, TuningResult)
        tried = [t[0] for t in result.trials]
        assert tried == [
            {"max_depth": 2, "min_leaf": 2},
            {"max_depth": 2, "min_leaf": 3},
            {"max_depth": 4, "min_leaf": 2},
        ]

    def test_best_is_argmax_earliest_tie(self, registry, rotation):
        _, c = rotation
        # Two identical configurations tie exactly; earliest must win.
        result = tune(
            c, "y", algorithm="knn", space={"k": [3, 3, 5]}, budget=10,
            method="grid", seed=1, registry=registry,
        )
        best_score = max(t[1][result.metric] for t in result.trials)
        first_best = next(
            t[0] for t in result.trials if t[1][result.metric] == best_score
        )
        assert result.best == first_best

    def test_random_budget_and_determinism(self, registry, rotation):
        _, c = rotation
        a = tune(c, "y", algorithm="decision_tree", space={"max_depth": [2, 4, 6]},
                 budget=4, method="random", seed=9, registry=registry)
        b = tune(c, "y", algorithm="decision_tree", space={"max_depth": [2, 4, 6]},
                 budget=4, method="random", seed=9, registry=registry)
        assert len(a.trials) == 4
        assert [t[0] for t in a.trials] == [t[0] for t in b.trials]

    def test_budget_one_random(self, registry, rotation):
        _, c = rotation
        result = tune(c, "y", algorithm="knn", space={"k": [1, 3, 5]}, budget=1,
                      method="random", seed=2, registry=registry)
        assert len(result.trials) == 1
        assert result.best == result.trials[0][0]

    def test_empty_space_rejected(self, registry, rotation):
        _, c = rotation
        with pytest.raises(ConfigError):
            tune(c, "y", algorithm="knn", space={}, registry=registry)
        with pytest.raises(ConfigError):
            tune(c, "y", algorithm="knn", space={"k": []}, registry=registry)

    def test_bad_method(self, registry, rotation):
        _, c = rotation
        with pytest.raises(ConfigError, match="method"):
            tune(c, "y", algorithm="knn", space={"k": [1]}, method="bayesian",
                 registry=registry)

    def test_registry_untouched(self, registry, rotation):
        _, c = rotation
        before = registry.dump()
        tune(c, "y", algorithm="knn", space={"k": [1, 5]}, registry=registry)
        assert registry.dump() == before


class TestStack:
    def test_out_of_fold_property(self, registry):
        # Instrument fold membership on a small frame: row i's base
        # prediction must come from a model whose training fold excluded i,
        # and the meta learner must be the one trained on exactly that
        # out-of-fold matrix.
        from holdout.learn import _fold_seed, _train_on_prepared, feature_matrix
        from holdout.learners import resolve_hyperparameters, train
        from holdout.prepare import apply, fit_transformer
        from holdout.rotate import _materialize

        p = split(make_classification_frame(20, seed=3), "y", seed=6, registry=registry)
        c = cv(p, 4, seed=2, registry=registry)
        algos = ["knn", "logistic"]

        oof = np.full((p.dev.row_count, len(algos)), np.nan)
        for a, algo in enumerate(algos):
            for fold_index, (train_idx, valid_idx) in enumerate(c.folds):
                fold_train = _materialize(c, train_idx)
                prepared = fit_transformer(fold_train, "y", None, task="classification")
                state = _train_on_prepared(
                    prepared, algo,
                    resolve_hyperparameters(algo, None),
                    _fold_seed(1, fold_index),
                )
                fold_valid = _materialize(c, valid_idx)
                X = feature_matrix(apply(prepared.state, fold_valid),
                                   prepared.state.feature_names)
                for row, value in zip(valid_idx, state.predict(X)):
                    assert row not in train_idx
                    oof[row, a] = float(value)
        assert not np.isnan(oof).any()

        y_dev = np.array(p.dev.column("y"), dtype=np.float64)
        meta = train("logistic", oof, y_dev, resolve_hyperparameters("logistic", None),
                     1, "classification")
        model = stack(c, "y", base_algorithms=algos, meta_algorithm="logistic", seed=1,
                      registry=registry)
        assert model.meta.to_dict() == meta.to_dict()

    def test_stacked_model_shape_and_assess(self, registry, rotation):
        p, c = rotation
        model = stack(c, "y", base_algorithms=["logistic", "decision_tree"],
                      meta_algorithm="logistic", seed=1, registry=registry)
        assert isinstance(model, StackedModel)
        assert len(model.base) == 2
        out = predict(model, p.valid)
        assert all(0.0 <= v <= 1.0 for v in out.values)
        ev = assess(model, p.test, registry=registry)
        assert isinstance(ev, Evidence)
        assert model.assess_count == 1
        # Holdout budget spent: a fresh plain model is refused.
        fresh = fit(p.train, "y", registry=registry)
        with pytest.raises(HoldoutSpent):
            assess(fresh, p.test, registry=registry)

    def test_fewer_than_two_bases(self, registry, rotation):
        _, c = rotation
        with pytest.raises(ConfigError, match="2 base"):
            stack(c, "y", base_algorithms=["logistic"], registry=registry)

    def test_meta_trained_on_oof_matrix_shape(self, registry, rotation):
        p, c = rotation
        model = stack(c, "y", base_algorithms=["logistic", "knn"],
                      meta_algorithm="logistic", seed=1, registry=registry)
        # Meta learner weights: one per base algorithm.
        assert len(model.meta.weights) == 2

    def test_registry_untouched(self, registry, rotation):
        _, c = rotation
        before = registry.dump()
        stack(c, "y", base_algorithms=["logistic", "knn"], registry=registry)
        assert registry.dump() == before

    def test_evaluate_works_on_stacked(self, registry, rotation):
        from holdout import evaluate

        p, c = rotation
        model = stack(c, "y", base_algorithms=["logistic", "knn"], registry=registry)
        metrics = evaluate(model, p.valid, registry=registry)
        assert 0.0 <= metrics["roc_auc"] <= 1.0


def test_strategies_never_touch_test_role(registry):
    # Snapshot equality covers assessed flags AND roles across all verbs.
    p = split(make_classification_frame(40, seed=2), "y", seed=8, registry=registry)
    c = cv(p, 3, seed=3, registry=registry)
    before = registry.dump()
    screen(c, "y", ["logistic", "knn"], seed=1, registry=registry)
    tune(c, "y", algorithm="knn", space={"k": [1, 3]}, registry=registry)
    stack(c, "y", base_algorithms=["logistic", "knn"], registry=registry)
    assert registry.dump() == before
    assert registry.lookup(p.test).assessed is False


class TestCrossValidationEngine:
    """screen, tune and stack share one pass over the rotation's folds."""

    @pytest.fixture
    def calls(self, monkeypatch):
        learn_module = importlib.import_module("holdout.learn")
        learners_module = importlib.import_module("holdout.learners")
        calls = {"prepare": 0, "train": 0}
        real_prepare = learn_module.fit_transformer
        real_train = learners_module.train

        def counting_prepare(*args, **kwargs):
            calls["prepare"] += 1
            return real_prepare(*args, **kwargs)

        def counting_train(*args, **kwargs):
            calls["train"] += 1
            return real_train(*args, **kwargs)

        monkeypatch.setattr(learn_module, "fit_transformer", counting_prepare)
        monkeypatch.setattr(learners_module, "train", counting_train)
        return calls

    def test_screen_prepares_each_fold_once(self, registry, rotation, calls):
        _, c = rotation
        screen(c, "y", ["logistic", "decision_tree", "knn"], seed=1, registry=registry)
        assert calls == {"prepare": c.k, "train": 3 * c.k}

    def test_tune_trains_each_trial_per_fold_only(self, registry, rotation, calls):
        _, c = rotation
        tune(c, "y", algorithm="knn", space={"k": [1, 3, 5]}, registry=registry)
        assert calls == {"prepare": c.k, "train": 3 * c.k}

    def test_stack_trains_bases_once_per_fold_plus_refit(self, registry, rotation, calls):
        _, c = rotation
        stack(c, "y", base_algorithms=["logistic", "knn"], registry=registry)
        # Out-of-fold bases, one dev refit per base, one meta learner.
        assert calls == {"prepare": c.k + 2, "train": 2 * c.k + 2 + 1}

    def test_stack_checks_target_before_training(self, registry, rotation, calls):
        _, c = rotation
        with pytest.raises(ConfigError, match="target"):
            stack(c, "x0", base_algorithms=["logistic", "knn"], registry=registry)
        assert calls["train"] == 0

    def test_stack_checks_registration_before_training(self, registry, rotation, calls):
        _, c = rotation
        registry.reset()
        with pytest.raises(PartitionError):
            stack(c, "y", base_algorithms=["logistic", "knn"], registry=registry)
        assert calls["train"] == 0

    def test_screen_checks_every_candidate_before_training(self, registry, rotation, calls):
        _, c = rotation
        with pytest.raises(ConfigError, match="hyperparameter"):
            screen(c, "y", ["logistic", "knn"], hyperparameters={"knn": {"kk": 3}},
                   registry=registry)
        assert calls["train"] == 0

    def test_screen_rows_equal_fit_scores(self, registry, rotation):
        _, c = rotation
        algos = ["logistic", "decision_tree", "random_forest", "knn"]
        board = screen(c, "y", algos, seed=3, registry=registry)
        for algo, scores in board.rows:
            assert scores == fit(c, "y", algorithm=algo, seed=3, registry=registry).scores_

    def test_tune_trials_equal_fit_scores(self, registry, rotation):
        _, c = rotation
        result = tune(c, "y", algorithm="decision_tree",
                      space={"max_depth": [2, 4], "min_leaf": [1, 3]}, seed=2,
                      registry=registry)
        for params, scores in result.trials:
            model = fit(c, "y", algorithm="decision_tree", seed=2,
                        hyperparameters=params, registry=registry)
            assert scores == model.scores_

    def test_stack_bases_equal_fit(self, registry, rotation):
        _, c = rotation
        model = stack(c, "y", base_algorithms=["random_forest", "knn"], seed=4,
                      registry=registry)
        for base in model.base:
            alone = fit(c, "y", algorithm=base.algorithm, seed=4, registry=registry)
            assert base.scores_ == alone.scores_
            assert base.state.to_dict() == alone.state.to_dict()
            assert base.transformer == alone.transformer
            assert base.fold_transformers_ == alone.fold_transformers_

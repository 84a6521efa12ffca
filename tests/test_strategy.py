import importlib

import numpy as np
import pytest

from holdout import (
    ConfigError,
    DataFrame,
    Evidence,
    PartitionError,
    HoldoutSpent,
    ProvenanceRegistry,
    Leaderboard,
    StackedModel,
    TuningResult,
    assess,
    cv,
    cv_temporal,
    fit,
    predict,
    split,
    split_temporal,
    stack,
    screen,
    tune,
)

from conftest import make_classification_frame, make_regression_frame


@pytest.fixture
def calls(monkeypatch):
    """Counts fold and dev preparations and learner fits."""
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

    def test_zero_budget_rejected(self, registry, rotation, calls):
        _, c = rotation
        with pytest.raises(ConfigError, match="budget must be a positive integer, got 0"):
            tune(c, "y", algorithm="knn", space={"k": [1]}, budget=0, registry=registry)
        assert calls["train"] == 0

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
        from holdout.learn import _train_on_prepared, feature_matrix
        from holdout.learners import resolve_hyperparameters, train
        from holdout.prepare import apply, fit_transformer, target_encoding
        from holdout.rng import fold_seed
        from holdout.rotate import _materialize

        p = split(make_classification_frame(20, seed=3), "y", seed=6, registry=registry)
        c = cv(p, 4, seed=2, registry=registry)
        algos = ["knn", "logistic"]
        encoding = target_encoding(p.dev._col("y"))

        oof = np.full((p.dev.row_count, len(algos)), np.nan)
        for a, algo in enumerate(algos):
            for fold_index, (train_idx, valid_idx) in enumerate(c.folds):
                fold_train = _materialize(c, train_idx)
                prepared = fit_transformer(fold_train, "y", None, encoding)
                state = _train_on_prepared(
                    prepared, algo,
                    resolve_hyperparameters(algo, None),
                    fold_seed(1, fold_index),
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

    def test_class_names_do_not_change_scores(self, registry):
        # The first fold of this sliding rotation trains on one class alone;
        # it must still encode that class as the dev rows do. kNN and tree
        # predictions are label means, so swapping the names turns each p
        # into 1 - p with every rank kept, and accuracy holds where no p is 0.5.
        rng = np.random.Generator(np.random.Philox(3))
        x = rng.normal(size=60)
        positive = (x + 0.5 * rng.normal(size=60) > 0) | (np.arange(60) < 8)
        scores = []
        for names in (("a", "b"), ("b", "a")):
            y = [names[int(v)] for v in positive]
            df = DataFrame({"t": [float(i) for i in range(60)], "x": x, "y": y})
            p = split_temporal(df, "y", "t", registry=registry)
            c = cv_temporal(p, folds=3, min_train=5, window="sliding", registry=registry)
            assert {p.dev.column("y")[i] for i in c.folds[0][0]} == {names[1]}
            model = stack(c, "y", base_algorithms=["knn", "decision_tree"], registry=registry)
            scores.append([fit(c, "y", algorithm="knn", registry=registry).scores_]
                          + [base.scores_ for base in model.base])
        assert scores[0] == scores[1]

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

    @pytest.mark.parametrize(
        "verb, kwargs",
        [
            (screen, {"algorithms": ["logistic", "knn"],
                      "hyperparameters": {"kn": {"k": 1}}}),
            (stack, {"base_algorithms": ["logistic", "knn"],
                     "hyperparameters": {"knn": {"k": 3}, "kn": {"k": 1}}}),
            # The meta learner trains on its defaults.
            (stack, {"base_algorithms": ["logistic", "knn"], "meta_algorithm": "decision_tree",
                     "hyperparameters": {"decision_tree": {"max_depth": 1}}}),
        ],
        ids=["screen misspelt", "stack misspelt", "stack meta only"],
    )
    def test_hyperparameters_for_an_algorithm_not_trained(
        self, registry, rotation, calls, verb, kwargs
    ):
        _, c = rotation
        with pytest.raises(ConfigError, match="hyperparameters key '(kn|decision_tree)'"):
            verb(c, "y", registry=registry, **kwargs)
        assert calls == {"prepare": 0, "train": 0}

    def test_screen_checks_every_candidate_task_before_training(
        self, registry, rotation, calls
    ):
        _, c = rotation
        with pytest.raises(ConfigError, match="regression targets only"):
            screen(c, "y", ["logistic", "linear"], registry=registry)
        assert calls["train"] == 0

    def test_stack_rejects_linear_meta_on_classification(self, registry, rotation, calls):
        _, c = rotation
        with pytest.raises(ConfigError, match="regression targets only"):
            stack(c, "y", base_algorithms=["logistic", "knn"], meta_algorithm="linear",
                  registry=registry)
        assert calls["train"] == 0

    def test_stack_rejects_logistic_meta_on_regression(self, registry, calls):
        p = split(make_regression_frame(60), "y", seed=4, registry=registry)
        c = cv(p, 3, seed=1, registry=registry)
        with pytest.raises(ConfigError, match="classification targets only"):
            stack(c, "y", base_algorithms=["linear", "knn"], meta_algorithm="logistic",
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


def _model_view(m):
    return (m.scores_, m.state.to_dict(), m.transformer, m.fold_transformers_)


class TestRunMemo:
    """A rotation remembers the runs it has cross-validated."""

    def test_repeated_call_materialises_nothing(self, registry, rotation, calls,
                                                monkeypatch):
        _, c = rotation
        learn_module = importlib.import_module("holdout.learn")
        real = learn_module._materialize
        materialised = []
        monkeypatch.setattr(learn_module, "_materialize",
                            lambda *a: materialised.append(1) or real(*a))
        first = screen(c, "y", ["logistic", "knn"], seed=1, registry=registry)
        calls.update(prepare=0, train=0)
        materialised.clear()
        assert screen(c, "y", ["knn", "logistic"], seed=1, registry=registry) == first
        assert calls == {"prepare": 0, "train": 0} and materialised == []

    def test_stack_after_screen_trains_no_fold_model_again(self, registry, rotation, calls):
        _, c = rotation
        screen(c, "y", ["logistic", "decision_tree", "knn"], seed=1, registry=registry)
        calls.update(prepare=0, train=0)
        stack(c, "y", base_algorithms=["logistic", "knn"], meta_algorithm="logistic",
              seed=1, registry=registry)
        # One dev refit per base plus the meta learner; no fold is prepared.
        assert calls == {"prepare": 2, "train": 2 + 1}

    def test_tune_reuses_screens_default_trial(self, registry, rotation, calls):
        _, c = rotation
        screen(c, "y", ["decision_tree"], seed=1, registry=registry)
        calls.update(prepare=0, train=0)
        tune(c, "y", algorithm="decision_tree",
             space={"max_depth": [6, 3], "min_leaf": [2]}, seed=1, registry=registry)
        assert calls == {"prepare": c.k, "train": c.k}

    def test_fit_after_screen_only_refits(self, registry, rotation, calls):
        _, c = rotation
        board = screen(c, "y", ["knn"], seed=1, registry=registry)
        calls.update(prepare=0, train=0)
        model = fit(c, "y", algorithm="knn", seed=1, registry=registry)
        assert calls == {"prepare": 1, "train": 1}
        assert model.scores_ == board.rows[0][1]
        assert len(model.fold_transformers_) == c.k

    def test_results_equal_a_fresh_rotation(self, registry, rotation):
        p, c = rotation

        def fresh():
            return cv(p, 3, seed=1, registry=registry)

        algos = ["logistic", "decision_tree", "knn"]
        assert screen(c, "y", algos, seed=1, registry=registry) == screen(
            fresh(), "y", algos, seed=1, registry=registry)
        space = {"max_depth": [6, 3], "min_leaf": [2]}
        assert tune(c, "y", algorithm="decision_tree", space=space, seed=1,
                    registry=registry) == tune(fresh(), "y", algorithm="decision_tree",
                                               space=space, seed=1, registry=registry)
        warm, cold = (
            stack(rot, "y", base_algorithms=["logistic", "knn"], seed=1, registry=registry)
            for rot in (c, fresh())
        )
        assert warm.meta.to_dict() == cold.meta.to_dict()
        assert [_model_view(b) for b in warm.base] == [_model_view(b) for b in cold.base]
        assert predict(warm, p.valid) == predict(cold, p.valid)
        for algo in algos:
            assert _model_view(fit(c, "y", algorithm=algo, seed=1, registry=registry)) == \
                _model_view(fit(fresh(), "y", algorithm=algo, seed=1, registry=registry))

    def test_misses_retrain_and_hits_do_not(self, registry, rotation, calls):
        _, c = rotation
        fit(c, "y", algorithm="decision_tree", seed=1, registry=registry)
        misses = [
            {"seed": 2},
            {"hyperparameters": {"max_depth": 5}},
            {"hyperparameters": {"max_depth": 6.0}},  # same value, other type
            {"recipe": ["impute_mean", "standardize"]},
        ]
        hits = [
            {},
            {"hyperparameters": {"min_leaf": 2, "max_depth": 6}},  # the defaults
            {"recipe": ["impute_mean", "one_hot", "standardize"]},  # the default
        ]
        for variant, fold_fits in [(v, c.k) for v in misses] + [(v, 0) for v in hits]:
            calls.update(prepare=0, train=0)
            args = {"algorithm": "decision_tree", "seed": 1, **variant}
            fit(c, "y", registry=registry, **args)
            assert calls == {"prepare": fold_fits + 1, "train": fold_fits + 1}, variant
        # A rotation is built for one target; any other is refused first.
        calls.update(prepare=0, train=0)
        with pytest.raises(ConfigError, match="target"):
            fit(c, "x0", algorithm="decision_tree", seed=1, registry=registry)
        assert calls == {"prepare": 0, "train": 0}

    def test_duplicate_runs_in_one_call_train_once(self, registry, rotation, calls):
        _, c = rotation
        result = tune(c, "y", algorithm="knn", space={"k": [3]}, method="random",
                      budget=4, seed=1, registry=registry)
        assert calls == {"prepare": c.k, "train": c.k}
        scores = [s for _, s in result.trials]
        assert scores[0] == scores[3] and scores[0] is not scores[3]

    def test_failed_pass_leaves_memo_unchanged(self, registry, rotation, monkeypatch):
        _, c = rotation
        fit(c, "y", algorithm="logistic", seed=1, registry=registry)
        before = dict(c._runs)
        learners_module = importlib.import_module("holdout.learners")
        real_train = learners_module.train
        trained = []
        fail_at = [4]  # the second fold's second run

        def failing_train(*args, **kwargs):
            trained.append(args[0])
            if len(trained) == fail_at[0]:
                raise RuntimeError("learner failed")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(learners_module, "train", failing_train)
        with pytest.raises(RuntimeError, match="learner failed"):
            screen(c, "y", ["logistic", "knn", "decision_tree"], seed=1, registry=registry)
        assert trained == ["knn", "decision_tree", "knn", "decision_tree"]
        assert c._runs.keys() == before.keys()
        assert all(c._runs[key] is before[key] for key in before)
        trained.clear()
        fail_at[0] = None
        screen(c, "y", ["logistic", "knn", "decision_tree"], seed=1, registry=registry)
        assert trained == ["knn", "decision_tree"] * c.k

    def test_guards_still_fire(self, registry, rotation, calls):
        _, c = rotation
        screen(c, "y", ["logistic", "knn"], seed=1, registry=registry)
        calls.update(prepare=0, train=0)
        other = ProvenanceRegistry()
        with pytest.raises(PartitionError):
            screen(c, "y", ["logistic", "knn"], seed=1, registry=other)
        with pytest.raises(PartitionError):
            fit(c, "y", algorithm="knn", seed=1, registry=other)
        with pytest.raises(PartitionError):
            stack(c, "y", base_algorithms=["logistic", "knn"], seed=1, registry=other)
        assert calls == {"prepare": 0, "train": 0}
        other.set_guards("off")
        assert fit(c, "y", algorithm="knn", seed=1, registry=other).guards_bypassed
        assert not fit(c, "y", algorithm="knn", seed=1, registry=registry).guards_bypassed

    def test_callers_get_copies(self, registry, rotation):
        _, c = rotation
        model = fit(c, "y", algorithm="knn", seed=1, registry=registry)
        want = dict(model.scores_)
        model.scores_["roc_auc"] = -1.0
        board = screen(c, "y", ["knn"], seed=1, registry=registry)
        assert board.rows[0][1] == want
        board.rows[0][1].clear()
        assert fit(c, "y", algorithm="knn", seed=1, registry=registry).scores_ == want
        stacked = stack(c, "y", base_algorithms=["knn", "logistic"], seed=1,
                        registry=registry)
        assert stacked.base[0].scores_ == want


class TestSeedSequenceSeed:
    """A public seed is a non-negative int: a SeedSequence fails by name on
    every path, before anything prepares or trains."""

    SEED = np.random.SeedSequence(3)

    def test_fit_on_frame(self, registry, rotation, calls):
        p, _ = rotation
        with pytest.raises(ConfigError, match="seed"):
            fit(p.dev, "y", algorithm="random_forest", seed=self.SEED, registry=registry)
        assert calls == {"prepare": 0, "train": 0}

    @pytest.mark.parametrize(
        "verb, kwargs",
        [
            (fit, {"algorithm": "random_forest"}),
            (screen, {"algorithms": ["logistic", "random_forest"]}),
            (tune, {"algorithm": "decision_tree", "space": {"max_depth": [2, 4]}}),
            (tune, {"algorithm": "decision_tree", "space": {"max_depth": [2, 4]},
                    "method": "random", "budget": 2}),
            (stack, {"base_algorithms": ["logistic", "knn"]}),
        ],
        ids=["fit", "screen", "tune grid", "tune random", "stack"],
    )
    def test_rotation_verbs(self, registry, rotation, calls, verb, kwargs):
        _, c = rotation
        with pytest.raises(ConfigError, match="seed"):
            verb(c, "y", seed=self.SEED, registry=registry, **kwargs)
        assert calls == {"prepare": 0, "train": 0}

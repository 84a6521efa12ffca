import numpy as np
import pytest

from holdout import (
    ConfigError,
    DataFrame,
    GuardError,
    LineageMismatch,
    Model,
    PartitionError,
    PreparedData,
    Predictions,
    SchemaError,
    apply,
    assess,
    cv,
    fit,
    model_from_json,
    model_to_json,
    predict,
    prepare,
    select_columns,
    split,
)

from conftest import make_classification_frame, make_regression_frame


@pytest.fixture
def partition(registry):
    return split(make_classification_frame(60), "y", seed=4, registry=registry)


class TestFitGuards:
    def test_unregistered_frame_rejected_with_split_hint(self, registry):
        df = make_classification_frame(20)
        with pytest.raises(PartitionError, match="call split"):
            fit(df, "y", registry=registry)

    def test_test_member_rejected(self, registry, partition):
        with pytest.raises(GuardError, match="test"):
            fit(partition.test, "y", registry=registry)

    def test_train_valid_dev_accepted(self, registry, partition):
        for member in (partition.train, partition.valid, partition.dev):
            m = fit(member, "y", registry=registry)
            assert isinstance(m, Model) and m.fitted

    def test_unknown_algorithm(self, registry, partition):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            fit(partition.train, "y", algorithm="xgboost", registry=registry)

    def test_wrong_input_type(self, registry, partition):
        with pytest.raises(TypeError):
            fit(partition, "y", registry=registry)

    def test_guards_off_unregistered_succeeds(self, registry):
        registry.set_guards("off")
        m = fit(make_classification_frame(20), "y", registry=registry)
        assert m.guards_bypassed is True

    def test_column_subset_of_train_accepted(self, registry, partition):
        from holdout import select_columns

        sub = select_columns(partition.train, ["x0", "y"])
        m = fit(sub, "y", registry=registry)
        assert m.source_split_id == partition.split_id


class TestFitFrame:
    def test_declarative_default_algorithm(self, registry, partition):
        m = fit(partition.train, "y", registry=registry)
        assert m.algorithm == "logistic"
        assert m.scores_ is None
        assert m.assess_count == 0

    def test_regression_default_algorithm(self, registry):
        p = split(make_regression_frame(40), "y", seed=1, registry=registry)
        m = fit(p.train, "y", registry=registry)
        assert m.algorithm == "linear" and m.task == "regression"

    def test_lineage_recorded(self, registry, partition):
        m = fit(partition.train, "y", registry=registry)
        assert m.source_split_id == partition.split_id

    def test_target_required(self, registry, partition):
        with pytest.raises(ConfigError, match="target"):
            fit(partition.train, registry=registry)


class TestFitRotation:
    def test_scores_present_and_deterministic(self, registry, partition):
        c = cv(partition, 5, seed=7, registry=registry)
        m1 = fit(c, "y", algorithm="logistic", seed=42, registry=registry)
        m2 = fit(c, "y", algorithm="logistic", seed=42, registry=registry)
        assert m1.scores_ == m2.scores_
        assert set(m1.scores_) == {"accuracy", "roc_auc"}

    def test_fold_transformers_kept(self, registry, partition):
        c = cv(partition, 4, seed=1, registry=registry)
        m = fit(c, "y", registry=registry)
        assert len(m.fold_transformers_) == 4

    def test_per_fold_isolation_canary(self, registry):
        # An extreme outlier planted in one fold's valid rows must not move
        # that fold's train-fitted statistics.
        df = make_classification_frame(50, seed=8)
        p = split(df, "y", seed=3, registry=registry)
        c = cv(p, 5, seed=2, registry=registry)
        baseline = fit(c, "y", registry=registry)

        dev = c._dev_frame
        target_fold = 0
        canary_row = c.folds[target_fold][1][0]  # a fold-0 valid row
        cols = {name: list(vals) for name, vals in dev.columns().items()}
        cols["x0"][canary_row] = 1e9
        poisoned_dev = DataFrame(cols, partition_tag="dev")
        from holdout.rotate import CVResult

        poisoned = CVResult(
            c.folds, c.k, c.target, c.source_split_id, c.kind, poisoned_dev
        )
        registry.set_guards("off")  # poisoned dev content is unregistered
        poisoned_model = fit(poisoned, "y", registry=registry)
        before = baseline.fold_transformers_[target_fold]
        after = poisoned_model.fold_transformers_[target_fold]
        assert before == after

    def test_rotation_from_dead_session_rejected(self, registry, partition):
        c = cv(partition, 3, registry=registry)
        registry.reset()
        with pytest.raises(PartitionError):
            fit(c, "y", registry=registry)

    def test_mismatched_target_rejected(self, registry, partition):
        c = cv(partition, 3, registry=registry)
        with pytest.raises(ConfigError):
            fit(c, "x0", registry=registry)

    def test_regression_rotation_metrics(self, registry):
        p = split(make_regression_frame(50), "y", seed=2, registry=registry)
        c = cv(p, 4, seed=1, registry=registry)
        m = fit(c, "y", registry=registry)
        assert set(m.scores_) == {"rmse", "r2"}


class TestFitPrepared:
    def test_explicit_mode_skips_preparation(self, registry, partition):
        prepared = prepare(partition.train, "y", registry=registry)
        m = fit(prepared, algorithm="decision_tree", seed=1, registry=registry)
        assert m.algorithm == "decision_tree"
        assert m.transformer == prepared.state

    def test_hand_built_prepared_data_rejected(self, registry, partition):
        # Transformed test rows wrapped by hand carry no provenance.
        t = prepare(partition.train, "y", registry=registry).state
        cols = apply(t, partition.test).columns()
        cols["y"] = [float(v) for v in partition.test.column("y")]
        forged = PreparedData(DataFrame(cols), t, "y", "classification", (0, 1))
        with pytest.raises(PartitionError, match="call split"):
            fit(forged, algorithm="logistic", registry=registry)

    def test_prepared_fit_keeps_lineage(self, registry, partition):
        m = fit(prepare(partition.train, "y", registry=registry), registry=registry)
        assert m.source_split_id == partition.split_id
        assert m.guards_bypassed is False
        other = split(make_classification_frame(60, seed=2), "y", seed=9, registry=registry)
        with pytest.raises(LineageMismatch):
            assess(m, other.test, registry=registry)

    def test_projection_resolves_after_prepare(self, registry):
        # one_hot rewrites c and leaves x1 and y as they are, so a projection
        # onto x1 and y matches both the source and its prepared frame.
        df = DataFrame({"x1": [float(i) for i in range(30)], "c": ["a", "b", "c"] * 10,
                        "y": [i % 2 for i in range(30)]})
        p = split(df, "y", seed=1, registry=registry)
        prepare(p.train, "y", recipe=["one_hot"], registry=registry)
        assert len(registry.dump()) == 5
        m = fit(select_columns(p.train, ["x1", "y"]), "y", registry=registry)
        assert m.source_split_id == p.split_id

    @pytest.mark.parametrize(
        "target",
        [[i % 2 for i in range(60)], [1.5 * i for i in range(60)]],
        ids=["classification", "regression"],
    )
    def test_missing_target_is_a_data_error(self, registry, target):
        y = [None if i % 3 == 0 else v for i, v in enumerate(target)]
        p = split(DataFrame({"x": [float(i) for i in range(60)], "y": y}), "y",
                  seed=1, registry=registry)
        with pytest.raises(SchemaError, match="target column has missing values"):
            fit(p.train, "y", registry=registry)

    def test_multiclass_rejected(self, registry):
        df = DataFrame(
            {"x": [float(i) for i in range(30)], "y": [i % 3 for i in range(30)]}
        )
        p = split(df, "y", seed=1, registry=registry)
        with pytest.raises(ConfigError, match="2 classes"):
            fit(p.train, "y", registry=registry)


class TestPredict:
    def test_probabilities_in_range(self, registry, partition):
        m = fit(partition.train, "y", registry=registry)
        out = predict(m, partition.valid)
        assert isinstance(out, Predictions)
        assert out.row_count == partition.valid.row_count
        assert all(0.0 <= v <= 1.0 for v in out.values)

    def test_accepts_any_frame_even_test(self, registry, partition):
        # predict's only guard is the fitted model; tags are not checked.
        m = fit(partition.train, "y", registry=registry)
        out = predict(m, partition.test)
        assert out.row_count == partition.test.row_count

    def test_accepts_brand_new_frame(self, registry, partition):
        m = fit(partition.train, "y", registry=registry)
        fresh = DataFrame({"x0": [0.5], "x1": [0.1], "x2": [0.0]})
        assert predict(m, fresh).row_count == 1

    def test_schema_mismatch(self, registry, partition):
        m = fit(partition.train, "y", registry=registry)
        with pytest.raises(SchemaError):
            predict(m, DataFrame({"zz": [1.0]}))

    def test_non_model_rejected(self, registry, partition):
        with pytest.raises(TypeError):
            predict(partition.train, partition.valid)

    def test_knn_k1_training_accuracy(self, registry, partition):
        m = fit(
            partition.train, "y", algorithm="knn", hyperparameters={"k": 1},
            registry=registry,
        )
        out = predict(m, partition.train)
        y = partition.train.column("y")
        agree = sum((v >= 0.5) == bool(t) for v, t in zip(out.values, y))
        assert agree == partition.train.row_count


class TestModelSerialization:
    def test_roundtrip_preserves_predictions(self, registry, partition):
        for algo in ("logistic", "decision_tree", "random_forest", "knn"):
            hp = {"n_trees": 5} if algo == "random_forest" else None
            m = fit(partition.train, "y", algorithm=algo, hyperparameters=hp,
                    seed=3, registry=registry)
            clone = model_from_json(model_to_json(m))
            a = predict(m, partition.valid)
            b = predict(clone, partition.valid)
            assert a.values == b.values

    def test_assess_count_survives_serialization(self, registry, partition):
        from holdout import assess

        m = fit(partition.train, "y", registry=registry)
        assess(m, partition.test, registry=registry)
        clone = model_from_json(model_to_json(m))
        assert clone.assess_count == 1

    def test_version_gate(self):
        with pytest.raises(ConfigError, match="version"):
            model_from_json('{"format_version": 99}')


def test_capacity_ordering_through_fit(registry):
    # Memorization probe at the verb level: duplicated rows, tree vs logistic.
    import numpy as np

    rng = np.random.Generator(np.random.Philox(5))
    base = rng.normal(size=(10, 2))
    X = np.repeat(base, 5, axis=0)
    y = [i % 2 for i in range(10) for _ in range(5)]
    df = DataFrame({"a": X[:, 0], "b": X[:, 1], "y": y})
    p = split(df, "y", seed=1, registry=registry)
    tree = fit(p.train, "y", algorithm="decision_tree", registry=registry)
    logistic = fit(p.train, "y", algorithm="logistic", registry=registry)

    def train_accuracy(m):
        out = predict(m, p.train)
        truth = p.train.column("y")
        return sum((v >= 0.5) == bool(t) for v, t in zip(out.values, truth)) / len(truth)

    assert train_accuracy(tree) >= train_accuracy(logistic)


def test_fold_frames_never_registered(registry):
    # Rotation materializes fold frames inside fit; the registry keeps only
    # the four user-visible boundaries.
    from conftest import make_classification_frame
    from holdout import cv, split

    p = split(make_classification_frame(40), "y", seed=1, registry=registry)
    assert len(registry.dump()) == 4
    c = cv(p, 4, seed=2, registry=registry)
    fit(c, "y", registry=registry)
    assert len(registry.dump()) == 4


def test_model_parameters_fully_determined(registry):
    from conftest import make_classification_frame
    from holdout import model_to_json, split

    p = split(make_classification_frame(40), "y", seed=1, registry=registry)
    for algo, hp in (("random_forest", {"n_trees": 6}), ("logistic", None)):
        a = fit(p.train, "y", algorithm=algo, hyperparameters=hp, seed=9,
                registry=registry)
        b = fit(p.train, "y", algorithm=algo, hyperparameters=hp, seed=9,
                registry=registry)
        assert model_to_json(a) == model_to_json(b)


class TestNamedErrorsBeforeTraining:
    """Bad hyperparameters and seeds fail with ConfigError before any
    learner trains."""

    @pytest.fixture
    def trained(self, monkeypatch):
        import holdout.learners

        trained = []
        real = holdout.learners.train

        def counting_train(algorithm, *args):
            state = real(algorithm, *args)
            trained.append(algorithm)
            return state

        monkeypatch.setattr(holdout.learners, "train", counting_train)
        return trained

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"algorithm": "random_forest", "hyperparameters": {"n_trees": 0}}, "n_trees"),
            ({"algorithm": "knn", "hyperparameters": {"k": 0}}, "'k'"),
            ({"algorithm": "knn", "hyperparameters": 3}, "mapping"),
            ({"algorithm": "logistic", "seed": 1.5}, "seed"),
            ({"algorithm": "logistic", "seed": -1}, "seed"),
        ],
        ids=["n_trees", "k", "hyperparameters not a mapping", "fractional seed",
             "negative seed"],
    )
    def test_fit_on_frame_and_rotation(self, registry, partition, trained, kwargs, message):
        c = cv(partition, folds=3, registry=registry)
        for data in (partition.train, c):
            with pytest.raises(ConfigError, match=message):
                fit(data, "y", registry=registry, **kwargs)
        assert trained == []

    def test_split_and_cv_seeds(self, registry, partition):
        df = make_classification_frame(30)
        for seed in (-1, 1.5, "3", True, None, np.random.SeedSequence(3)):
            with pytest.raises(ConfigError, match="seed"):
                split(df, "y", seed=seed, registry=registry)
            with pytest.raises(ConfigError, match="seed"):
                cv(partition, folds=3, seed=seed, registry=registry)

    @staticmethod
    def _frame_with_inf(task):
        rng = np.random.Generator(np.random.Philox(0))
        a = rng.normal(size=200)
        y = a + rng.normal(size=200)
        if task == "classification":
            y = (y > 0).astype(int)
            a[::10] = np.inf  # inf in every partition and fold
        else:
            y[::10] = np.inf
        return DataFrame({"a": a, "b": rng.normal(size=200), "y": y})

    @pytest.mark.parametrize("recipe", [None, ["impute_mean"]], ids=["standardized", "raw"])
    @pytest.mark.parametrize("algorithm", ["logistic", "decision_tree"])
    def test_non_finite_feature(self, registry, trained, algorithm, recipe):
        # Standardize fits (inf, nan) for 'a', so all its rows turn NaN;
        # without it the inf cells stay inf.
        p = split(self._frame_with_inf("classification"), "y", seed=0, registry=registry)
        c = cv(p, folds=3, registry=registry)
        before = registry.dump()
        for data in (p.dev, c):
            with pytest.raises(SchemaError, match="'a' holds a non-finite value"):
                fit(data, "y", algorithm=algorithm, recipe=recipe, registry=registry)
        assert trained == [] and registry.dump() == before

    def test_non_finite_regression_target(self, registry, trained):
        p = split(self._frame_with_inf("regression"), "y", seed=0, registry=registry)
        with pytest.raises(SchemaError, match="'y' holds a non-finite value"):
            fit(p.train, "y", algorithm="linear", registry=registry)
        assert trained == []

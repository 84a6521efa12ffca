import typing
from dataclasses import fields

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
    evaluate,
    fit,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    predict,
    prepare,
    select_columns,
    split,
)

from holdout.learn import ModelDocument
from holdout.learners import LEARNERS, _Leaf, _Split
from holdout.prepare import Step, Transformer

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
            c.folds, c.target, c.source_split_id, c.kind, poisoned_dev
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
        "target, verb",
        [
            ([i % 2 for i in range(60)], "fit"),
            ([1.5 * i for i in range(60)], "fit"),
            ([i % 2 for i in range(60)], "evaluate"),
        ],
        ids=["classification", "regression", "evaluate classification"],
    )
    def test_missing_target_is_a_data_error(self, registry, target, verb):
        x = [float(i) for i in range(60)]
        y = [None if i % 3 == 0 else v for i, v in enumerate(target)]
        p = split(DataFrame({"x": x, "y": y}), "y", seed=1, registry=registry)
        if verb == "evaluate":
            clean = split(DataFrame({"x": x, "y": target}), "y", seed=1, registry=registry)
            m = fit(clean.train, "y", registry=registry)
        with pytest.raises(SchemaError, match="target column has missing values"):
            if verb == "fit":
                fit(p.train, "y", registry=registry)
            else:
                evaluate(m, p.valid, registry=registry)

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

    def test_single_class_model_scores_its_own_rows(self, registry):
        # A lone class reads 0.0 when fit and when evaluated, reloaded too.
        df = DataFrame({"x": [float(i) for i in range(30)], "y": ["a"] * 30})
        p = split(df, "y", seed=1, registry=registry)
        m = fit(p.train, "y", algorithm="decision_tree", registry=registry)
        for model in (m, model_from_json(model_to_json(m))):
            assert evaluate(model, p.train, registry=registry)["accuracy"] == 1.0

    def test_assess_count_survives_serialization(self, registry, partition):
        from holdout import assess

        m = fit(partition.train, "y", registry=registry)
        assess(m, partition.test, registry=registry)
        clone = model_from_json(model_to_json(m))
        assert clone.assess_count == 1

    def test_version_gate(self):
        with pytest.raises(ConfigError, match="version"):
            model_from_json('{"format_version": 99}')

    def test_reloaded_models_are_distinct_objects(self, registry, partition):
        # A model owns its hyperparameters and equals only itself.
        doc = model_to_dict(fit(partition.train, "y", registry=registry))
        a, b = model_from_dict(doc), model_from_dict(doc)
        doc["hyperparameters"]["l2"] = 9.0
        assert a.hyperparameters["l2"] == 0.0
        assert a != b and len({a, b}) == 2

    def test_empty_document_names_its_first_missing_key(self):
        with pytest.raises(ConfigError, match="model document lacks key 'algorithm'"):
            model_from_json('{"format_version": 1}')

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("learner",), None, "model document lacks key 'learner'"),
            (("learner", "bias"), None, "'logistic' learner document lacks key 'bias'"),
            (("learner", "depth"), 3, "'logistic' learner document has unknown key 'depth'"),
            (("transformer", "feature_names"), None, "model document lacks key 'feature_names'"),
        ],
        ids=["no learner", "learner lacks a key", "learner has a stray key",
             "transformer lacks a key"],
    )
    def test_malformed_document_names_the_key(self, registry, partition, path, value, message):
        doc = model_to_dict(fit(partition.train, "y", registry=registry))
        *outer, key = path
        part = doc
        for step in outer:
            part = part[step]
        if value is None:
            del part[key]
        else:
            part[key] = value
        with pytest.raises(ConfigError, match=message):
            model_from_dict(doc)

    @pytest.mark.parametrize(
        "algorithm, path, value, message",
        [
            ("logistic", ("learner",), 5, "model document key 'learner' must be a mapping"),
            ("logistic", ("hyperparameters",), None,
             "model document key 'hyperparameters' must be a mapping"),
            ("logistic", ("learner", "weights"), "ab",
             "learner key 'weights' must be a list of numbers"),
            ("logistic", ("learner", "bias"), None, "learner key 'bias' must be a number"),
            ("logistic", ("transformer", "steps"), None,
             "model document key 'transformer' is malformed"),
            ("knn", ("learner", "train_X"), "ab",
             "learner key 'train_X' must be a list of rows of numbers"),
            ("knn", ("learner", "k"), "ab", "learner key 'k' must be an integer"),
        ],
        ids=["learner 5", "hyperparameters null", "weights 'ab'", "bias null",
             "transformer steps null",
             "knn train_X 'ab'", "knn k 'ab'"],
    )
    def test_value_of_wrong_type_names_the_key(self, registry, partition, algorithm, path,
                                               value, message):
        doc = model_to_dict(fit(partition.train, "y", algorithm=algorithm, registry=registry))
        *outer, key = path
        part = doc
        for step in outer:
            part = part[step]
        part[key] = value
        with pytest.raises(ConfigError, match=message):
            model_from_dict(doc)

    def test_document_that_is_not_a_mapping_rejected(self):
        with pytest.raises(ConfigError, match="model document must be a mapping"):
            model_from_json("[]")

    @pytest.mark.parametrize(
        "step, kind, params, message",
        [
            # Used to load; predict then raised "'float' object is not iterable".
            (0, "bogus", None, "^preparation step key 'kind' must be one of 'impute_mean', "
                               "'one_hot', 'standardize', got 'bogus'$"),
            # Used to load and predict unstandardized values without a word.
            (2, "impute_mean", None, "impute_mean params of column 'x0' must be a number, got "),
            (0, "standardize", None, "standardize params of column 'x0' must be a pair of numbers"),
            (2, "standardize", {"x0": [0.5]}, "must be a pair of numbers, got "),
            (1, "one_hot", {"x0": [1.0, 2.0]},
             "one_hot params of column 'x0' must be a list of strings"),
            (1, "one_hot", {"x0": "ab"}, "must be a list of strings, got 'ab'"),
        ],
        ids=["unknown kind", "standardize as impute_mean", "impute_mean as standardize",
             "short pair", "numeric categories", "string categories"],
    )
    def test_step_kind_and_params_checked_at_load(self, registry, partition, step, kind,
                                                  params, message):
        doc = model_to_dict(fit(partition.train, "y", registry=registry))
        assert [s["kind"] for s in doc["transformer"]["steps"]] == [
            "impute_mean", "one_hot", "standardize"]
        doc["transformer"]["steps"][step]["kind"] = kind
        if params is not None:
            doc["transformer"]["steps"][step]["params"] = params
        with pytest.raises(ConfigError, match=message):
            model_from_dict(doc)

    @pytest.mark.parametrize(
        "algorithm, hyperparameters",
        [("decision_tree", {"max_depth": np.int64(3)}), ("logistic", {"l2": np.float32(0.1)})],
        ids=["int64 max_depth", "float32 l2"],
    )
    def test_numpy_scalar_settings_serialize(self, registry, partition, algorithm,
                                             hyperparameters):
        m = fit(partition.train, "y", algorithm=algorithm, seed=np.int64(2),
                hyperparameters=hyperparameters, registry=registry)
        clone = model_from_json(model_to_json(m))
        assert clone.hyperparameters == m.hyperparameters and clone.seed == 2
        assert not any(isinstance(v, np.generic) for v in clone.hyperparameters.values())
        before, after = (np.array(predict(x, partition.valid).values) for x in (m, clone))
        assert before.tobytes() == after.tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [("not json", "must be JSON text"), ('{"format_version": 1', "must be JSON text"),
         ("[" * 100000, "must be JSON text"), (5, "must be JSON text")],
        ids=["not JSON", "truncated", "deep nesting", "not text"],
    )
    def test_unreadable_text_is_a_config_error(self, text, message):
        with pytest.raises(ConfigError, match=message):
            model_from_json(text)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # "false" used to load as True through bool(...).
            ("guards_bypassed", "false", "key 'guards_bypassed' must be a boolean, got 'false'"),
            ("guards_bypassed", 0, "key 'guards_bypassed' must be a boolean, got 0"),
            ("seed", "x", "key 'seed' must be a non-negative integer, got 'x'"),
            ("seed", -1, "key 'seed' must be a non-negative integer, got -1"),
            ("seed", True, "key 'seed' must be a non-negative integer, got True"),
            ("scores_", 5, "key 'scores_' must be a mapping or null, got 5"),
            ("source_split_id", 5, "key 'source_split_id' must be a string or null, got 5"),
            # -1 let the model be assessed twice: the guard refuses a count above 0.
            ("assess_count", -1, "key 'assess_count' must be a non-negative integer, got -1"),
            ("assess_count", True, "key 'assess_count' must be a non-negative integer, got True"),
        ],
        ids=["guards_bypassed 'false'", "guards_bypassed 0", "seed 'x'", "seed -1",
             "seed true", "scores_ 5", "source_split_id 5", "assess_count -1",
             "assess_count true"],
    )
    def test_lifecycle_values_checked_at_load(self, registry, partition, key, value, message):
        doc = model_to_dict(fit(partition.train, "y", registry=registry))
        doc[key] = value
        with pytest.raises(ConfigError, match=message):
            model_from_dict(doc)

    def test_null_lifecycle_values_load(self, registry, partition):
        doc = model_to_dict(fit(partition.train, "y", registry=registry))
        doc.update(scores_=None, source_split_id=None, guards_bypassed=True)
        m = model_from_dict(doc)
        assert (m.scores_, m.source_split_id, m.guards_bypassed) == (None, None, True)

    def test_renamed_standardize_column_rejected(self, registry, partition):
        # Used to load: x0 then went unstandardized and the predictions
        # moved without an error.
        doc = model_to_dict(fit(partition.train, "y", registry=registry))
        params = doc["transformer"]["steps"][2]["params"]
        params["zz"] = params.pop("x0")
        with pytest.raises(ConfigError,
                           match=r"standardize params name columns absent at that step: \['zz'\]"):
            model_from_dict(doc)

    @staticmethod
    def _categorical_model(registry):
        df = make_classification_frame(60)
        cells = df.columns()
        cells["c"] = ["ab"[i % 2] for i in range(60)]
        p = split(DataFrame(cells), "y", seed=4, registry=registry)
        return p, fit(p.train, "y", registry=registry)

    @pytest.mark.parametrize(
        "edit, message",
        [
            # c is one-hot encoded by then: only c=a and c=b are left.
            (lambda doc: doc["transformer"]["steps"][2]["params"].__setitem__("c", [0.0, 1.0]),
             r"standardize params name columns absent at that step: \['c'\]"),
            (lambda doc: doc["transformer"]["steps"][1]["params"]["c"].append("z"),
             "the steps turn source_columns into .*'c=z'.*, not feature_names"),
            (lambda doc: doc["transformer"]["feature_names"].reverse(),
             "not feature_names"),
            (lambda doc: doc["transformer"]["source_columns"].remove("x1"),
             r"impute_mean params name columns absent at that step: \['x1'\]"),
        ],
        ids=["standardize of a one-hot source",
             "extra category", "feature order", "source column dropped"],
    )
    def test_step_columns_walked_at_load(self, registry, edit, message):
        p, m = self._categorical_model(registry)
        doc = model_to_dict(m)
        assert model_to_dict(model_from_dict(doc)) == doc
        edit(doc)
        with pytest.raises(ConfigError, match=message):
            model_from_dict(doc)

    @staticmethod
    def _chain(depth):
        """A valid tree of `depth` splits, each left child the next split."""
        node = {"value": 0.5}
        for _ in range(depth):
            node = {"feature": 0, "threshold": 0.0, "gain": 0.0, "left": node,
                    "right": {"value": 1.0}}
        return node

    @pytest.mark.parametrize(
        "algorithm, edit, message",
        [
            # The first four used to load: predict then raised a TypeError,
            # a matmul ValueError, a broadcast ValueError and an IndexError.
            ("decision_tree", lambda doc: doc["learner"].__setitem__("root", 5),
             "learner key 'root' must be a mapping, got 5"),
            ("logistic", lambda doc: doc["learner"]["weights"].pop(),
             "'logistic' learner document does not fit a model of 3 features"),
            ("knn", lambda doc: [row.pop() for row in doc["learner"]["train_X"]],
             "'knn' learner document does not fit a model of 3 features"),
            ("random_forest", lambda doc: doc["learner"]["trees"][1].__setitem__("feature", 99),
             "'random_forest' learner document does not fit a model of 3 features"),
            ("decision_tree", lambda doc: doc["learner"]["root"].pop("gain"),
             "tree node lacks key 'gain'"),
            ("decision_tree", lambda doc: doc["learner"]["root"].__setitem__("value", 1.0),
             "tree node has unknown key 'feature'"),
            ("decision_tree", lambda doc: doc["learner"]["root"].__setitem__("threshold", "x"),
             "tree node key 'threshold' must be a number, got 'x'"),
            ("random_forest", lambda doc: doc["learner"]["trees"].clear(),
             "'random_forest' learner document does not fit"),
            ("knn", lambda doc: doc["learner"].__setitem__("k", 0),
             "'knn' learner document does not fit"),
            ("knn", lambda doc: doc["learner"]["train_y"].pop(),
             "'knn' learner document does not fit"),
            ("knn", lambda doc: doc["learner"]["train_X"][0].pop(),
             "'knn' learner document does not fit"),
            # Each used to load: predict then returned NaN, or raised an
            # OverflowError.
            ("logistic", lambda doc: doc["learner"].__setitem__("bias", float("nan")),
             "a model document must be JSON data: Out of range float"),
            ("decision_tree", lambda doc: doc["learner"]["root"]["left"].__setitem__(
                "threshold", float("inf")), "a model document must be JSON data"),
            ("logistic", lambda doc: doc["transformer"]["steps"][0]["params"].__setitem__(
                "x0", float("nan")), "a model document must be JSON data"),
            ("logistic", lambda doc: doc["learner"]["weights"].__setitem__(0, 10**400),
             "learner key 'weights' must be a list of numbers"),
            # Used to load, and then KeyError and SchemaError at load.
            ("logistic", lambda doc: doc["transformer"]["source_columns"].append("x0"),
             r"a transformer needs distinct source_columns, got \['x0', 'x1', 'x2', 'x0'\]"),
            ("logistic", lambda doc: doc["transformer"]["source_columns"].clear(),
             "a transformer needs distinct source_columns, got"),
            ("decision_tree", lambda doc: doc["learner"].__setitem__(
                "root", TestModelSerialization._chain(5000)), "a model document must be JSON data"),
            ("logistic", lambda doc: doc.__setitem__("notes", "hello"),
             "model document has unknown key 'notes'"),
            # Each used to load: the first two were scored as regression,
            # evaluate then raised an IndexError and a TypeError, and a third
            # class was never looked at.
            ("logistic", lambda doc: doc.__setitem__("task", "bogus"),
             "a model document needs task 'classification' and a pair of classes"),
            ("logistic", lambda doc: doc.__setitem__("task", "regression"),
             r"or task 'regression' and classes null; got 'regression' and \[0, 1\]"),
            ("logistic", lambda doc: doc.__setitem__("classes", [0]),
             r"got 'classification' and \[0\]"),
            ("logistic", lambda doc: doc.__setitem__("classes", [[0], 1]),
             r"got 'classification' and \[\[0\], 1\]"),
            ("logistic", lambda doc: doc.__setitem__("classes", [0, 1, 2]),
             r"got 'classification' and \[0, 1, 2\]"),
            ("decision_tree", lambda doc: doc["learner"].__setitem__("task", "bogus"),
             "a classification model document has a learner of task 'bogus'"),
            ("logistic", lambda doc: doc.update(task="regression", classes=None),
             "logistic supports classification targets only"),
            # Each used to load, and model_to_dict wrote it back.
            ("knn", lambda doc: doc.__setitem__("hyperparameters", {"k": -3}),
             "hyperparameter 'k' for 'knn' must be a whole number >= 1, got -3"),
            ("knn", lambda doc: doc.__setitem__("hyperparameters", {"zzz": 1}),
             "unknown hyperparameter 'zzz' for 'knn'"),
            ("knn", lambda doc: doc.__setitem__("hyperparameters", {"k": "x"}),
             "hyperparameter 'k' for 'knn' must be a whole number >= 1, got 'x'"),
            ("knn", lambda doc: doc.__setitem__("hyperparameters", {"k": [1]}),
             r"hyperparameter 'k' for 'knn' must be a whole number >= 1, got \[1\]"),
            # Each used to load: the model reported one k and predicted with another.
            ("knn", lambda doc: doc.__setitem__("hyperparameters", {"k": 1}),
             "hyperparameter 'k' is 1, but the learner document records 5"),
            ("knn", lambda doc: doc.update(hyperparameters={}, learner={**doc["learner"], "k": 3}),
             "hyperparameter 'k' is 5, but the learner document records 3"),
        ],
        ids=["root 5", "2 weights for 3 features", "narrowed train_X", "forest feature 99",
             "split without gain", "split with value", "threshold 'x'", "no trees", "k 0",
             "short train_y", "ragged train_X", "bias NaN", "threshold inf", "mean NaN",
             "weight 10**400", "repeated source column", "no source columns",
             "5000 nested splits", "unknown top-level key", "task bogus",
             "logistic task regression", "one class", "list class", "three classes",
             "tree learner task bogus", "logistic regression without classes",
             "hyperparameter k -3", "hyperparameter zzz", "hyperparameter k 'x'",
             "hyperparameter k [1]", "hyperparameter k 1 over learner k 5",
             "no hyperparameters over learner k 3"],
    )
    def test_document_structure_checked_at_load(self, registry, partition, algorithm, edit,
                                                message):
        hp = {"n_trees": 3} if algorithm == "random_forest" else None
        m = fit(partition.train, "y", algorithm=algorithm, hyperparameters=hp, registry=registry)
        doc = model_to_dict(m)
        assert model_to_dict(model_from_dict(doc)) == doc
        edit(doc)
        with pytest.raises(ConfigError, match=message):
            model_from_dict(doc)

    def test_a_deep_tree_loads_and_predicts(self, registry, partition):
        # The node walk keeps its own stack, as predict does.
        doc = model_to_dict(fit(partition.train, "y", algorithm="decision_tree",
                                registry=registry))
        doc["learner"]["root"] = self._chain(300)
        values = np.array(predict(model_from_dict(doc), partition.valid).values)
        assert np.isin(values, [0.5, 1.0]).all()


@pytest.mark.parametrize("algorithm", list(LEARNERS))
def test_written_keys_are_the_declared_keys(registry, algorithm):
    # What model_to_dict and each to_dict write is what their declarations
    # declare, required and optional keys together.
    df = make_regression_frame(60) if algorithm == "linear" else make_classification_frame(60)
    cells = df.columns()
    cells["c"] = ["ab"[i % 2] for i in range(60)]
    p = split(DataFrame(cells), "y", seed=4, registry=registry)
    hp = {"n_trees": 2} if algorithm == "random_forest" else None
    m = fit(p.train, "y", algorithm=algorithm, hyperparameters=hp, registry=registry)
    doc = model_to_dict(m)
    assert set(doc) == set(typing.get_type_hints(ModelDocument))
    assert set(m.transformer.to_dict()) == {f.name for f in fields(Transformer)}
    assert {s.kind for s in m.transformer.steps} == {"impute_mean", "one_hot", "standardize"}
    for step in m.transformer.steps:
        assert set(step.to_dict()) == {f.name for f in fields(Step)}
    learner = m.state.to_dict()
    assert set(learner) == {f.name for f in fields(type(m.state))}
    nodes = [learner["root"]] if "root" in learner else list(learner.get("trees", []))
    while nodes:
        node = nodes.pop()
        kind = _Leaf if "value" in node else _Split
        assert set(node) == set(typing.get_type_hints(kind))
        nodes += [node[k] for k in ("left", "right") if k in node]


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

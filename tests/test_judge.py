import dataclasses
import inspect
import json
import math
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holdout
from holdout import (
    AlreadyAssessedModel,
    ConfigError,
    DataFrame,
    Evidence,
    Explanation,
    GuardError,
    HoldoutSpent,
    LineageMismatch,
    Metrics,
    PartitionError,
    ProvenanceRegistry,
    SchemaError,
    assess,
    cv,
    evaluate,
    explain,
    fingerprint,
    fit,
    predict,
    prepare,
    screen,
    split,
    split_temporal,
    tune,
)
from holdout.signatures import _check, signature
from holdout.workflow import parse_workflow

from conftest import make_classification_frame


@pytest.fixture
def partition(registry):
    return split(make_classification_frame(60), "y", seed=4, registry=registry)


@pytest.fixture
def model(registry, partition):
    return fit(partition.train, "y", registry=registry)


class TestEvaluate:
    def test_valid_metrics(self, registry, partition, model):
        out = evaluate(model, partition.valid, registry=registry)
        assert isinstance(out, Metrics)
        assert out.partition_role == "valid"
        assert {"accuracy", "roc_auc"} <= set(out.values)

    def test_train_is_legal(self, registry, partition, model):
        out = evaluate(model, partition.train, registry=registry)
        assert out.partition_role == "train"

    def test_dev_is_legal(self, registry, partition, model):
        out = evaluate(model, partition.dev, registry=registry)
        assert out.partition_role == "dev"

    def test_test_rejected(self, registry, partition, model):
        with pytest.raises(GuardError, match="reserved for assess"):
            evaluate(model, partition.test, registry=registry)

    def test_unregistered_rejected(self, registry, model):
        with pytest.raises(PartitionError):
            evaluate(model, make_classification_frame(10), registry=registry)

    def test_requires_model(self, registry, partition):
        with pytest.raises(TypeError):
            evaluate(partition.train, partition.valid, registry=registry)

    def test_metric_selection(self, registry, partition, model):
        out = evaluate(model, partition.valid, metrics=["roc_auc"], registry=registry)
        assert set(out.values) == {"roc_auc"}

    def test_guards_off_allows_test(self, registry, partition, model):
        registry.set_guards("off")
        out = evaluate(model, partition.test, registry=registry)
        assert out.guards_bypassed is True


class TestAssess:
    def test_returns_evidence_with_fingerprint(self, registry, partition, model):
        ev = assess(model, partition.test, registry=registry)
        assert isinstance(ev, Evidence)
        assert ev.holdout_fingerprint == fingerprint(partition.test).hex()
        assert model.assess_count == 1
        assert registry.lookup(partition.test).assessed is True

    def test_same_model_twice(self, registry, partition, model):
        assess(model, partition.test, registry=registry)
        with pytest.raises(AlreadyAssessedModel, match="once per holdout"):
            assess(model, partition.test, registry=registry)

    def test_second_model_same_holdout(self, registry, partition, model):
        other = fit(partition.train, "y", algorithm="decision_tree", registry=registry)
        assess(model, partition.test, registry=registry)
        with pytest.raises(HoldoutSpent, match="regardless of model"):
            assess(other, partition.test, registry=registry)

    def test_non_test_frame_rejected(self, registry, partition, model):
        with pytest.raises(GuardError, match="test-role"):
            assess(model, partition.valid, registry=registry)

    def test_unregistered_rejected(self, registry, model):
        with pytest.raises(PartitionError):
            assess(model, make_classification_frame(10), registry=registry)

    def test_lineage_mismatch(self, registry, model):
        other = split(make_classification_frame(60, seed=2), "y", seed=9,
                      registry=registry)
        with pytest.raises(LineageMismatch):
            assess(model, other.test, registry=registry)

    def test_resplit_gives_fresh_budget(self, registry, partition, model):
        assess(model, partition.test, registry=registry)
        fresh = split(make_classification_frame(60, seed=3), "y", seed=10,
                      registry=registry)
        m2 = fit(fresh.train, "y", registry=registry)
        ev = assess(m2, fresh.test, registry=registry)
        assert isinstance(ev, Evidence)

    def test_column_subset_of_test_spends_holdout(self, registry, partition, model):
        from holdout import select_columns

        sub = select_columns(partition.test, ["x0", "x1", "x2", "y"])
        ev = assess(model, sub, registry=registry)
        assert isinstance(ev, Evidence)
        with pytest.raises(HoldoutSpent):
            assess(fit(partition.train, "y", registry=registry), partition.test,
                   registry=registry)

    def test_guards_off_assess_on_projection_spends_holdout(self, registry, partition):
        from holdout import select_columns

        m = fit(select_columns(partition.train, ["x0", "y"]), "y", registry=registry)
        registry.set_guards("off")
        ev = assess(m, select_columns(partition.test, ["x0", "y"]), registry=registry)
        assert isinstance(ev, Evidence) and ev.guards_bypassed
        assert registry.lookup(partition.test).assessed is True

    def test_guards_off_double_assess(self, registry, partition, model):
        registry.set_guards("off")
        a = assess(model, partition.test, registry=registry)
        b = assess(model, partition.test, registry=registry)
        assert a.guards_bypassed and b.guards_bypassed
        assert model.assess_count == 2

    def test_guards_off_then_on_budget_already_spent(self, registry, partition, model):
        registry.set_guards("off")
        assess(model, partition.test, registry=registry)
        registry.set_guards("on")
        m2 = fit(partition.train, "y", registry=registry)
        with pytest.raises(HoldoutSpent):
            assess(m2, partition.test, registry=registry)


class TestExplain:
    def test_permutation_importance_signal_vs_noise(self, registry):
        # x0/x1 carry the class signal, x2 is independent noise.
        df = make_classification_frame(500, seed=11)
        p = split(df, "y", seed=5, registry=registry)
        m = fit(p.train, "y", registry=registry)
        ex = explain(m, p.dev, repeats=10, seed=1, registry=registry)
        assert isinstance(ex, Explanation)
        assert abs(ex.values["x2"]) < 0.05
        assert ex.values["x0"] > 0.05

    def test_intrinsic_logistic(self, registry, partition, model):
        ex = explain(model, registry=registry)
        assert ex.method == "intrinsic"
        assert set(ex.values) == set(model.transformer.feature_names)

    def test_intrinsic_tree_gains(self, registry, partition):
        m = fit(partition.train, "y", algorithm="decision_tree", registry=registry)
        ex = explain(m, registry=registry)
        assert all(v >= 0 for v in ex.values.values())

    def test_intrinsic_knn_rejected(self, registry, partition):
        m = fit(partition.train, "y", algorithm="knn", registry=registry)
        with pytest.raises(ConfigError, match="permutation"):
            explain(m, registry=registry)

    def test_available_after_assess(self, registry, partition, model):
        assess(model, partition.test, registry=registry)
        ex = explain(model, partition.valid, registry=registry)
        assert isinstance(ex, Explanation)

    def test_test_frame_rejected(self, registry, partition, model):
        with pytest.raises(GuardError):
            explain(model, partition.test, registry=registry)

    def test_seeded_determinism(self, registry, partition, model):
        a = explain(model, partition.valid, seed=3, registry=registry)
        b = explain(model, partition.valid, seed=3, registry=registry)
        assert a.values == b.values


@pytest.mark.parametrize("result", [
    Metrics({"accuracy": 0.75}, "valid"),
    Evidence({"accuracy": 0.75}, "f" * 64),
    Explanation({"x0": 0.25}),
], ids=["Metrics", "Evidence", "Explanation"])
def test_result_types_refuse_assignment(result):
    # A delivered result is a record: no field can be rebound, added or dropped.
    before = result.to_dict()
    for name in [f.name for f in dataclasses.fields(result)] + ["extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del result.values
    assert result.to_dict() == before


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_explanation_rejects_non_finite_importance(bad):
    with pytest.raises(ValueError, match="non-finite importances"):
        Explanation({"x0": 0.25, "x1": bad})


class TestTerminalTypes:
    def test_distinct_unrelated_classes(self):
        assert not issubclass(Evidence, Metrics)
        assert not issubclass(Metrics, Evidence)
        assert not issubclass(Evidence, dict) and not issubclass(Metrics, dict)

    def test_json_kind_discriminators(self, registry, partition, model):
        metrics = evaluate(model, partition.valid, registry=registry)
        evidence = assess(model, partition.test, registry=registry)
        ex = explain(model, registry=registry)
        assert json.loads(json.dumps(metrics.to_dict()))["kind"] == "metrics"
        payload = json.loads(json.dumps(evidence.to_dict()))
        assert payload["kind"] == "evidence"
        assert payload["holdout_fingerprint"] == fingerprint(partition.test).hex()
        assert json.loads(json.dumps(ex.to_dict()))["kind"] == "explanation"

    def test_no_public_verb_accepts_evidence_or_metrics(self, registry, partition, model):
        # Terminality, enforced by annotation: every public function with an
        # artifact parameter refuses each terminal type there with a
        # TypeError naming the parameter, before it changes anything.
        c = cv(partition, 3, registry=registry)
        artifacts = [
            partition.train, partition, c, prepare(partition.train, "y", registry=registry),
            model.transformer, model, registry,
            parse_workflow("data: {path: d.csv, target: y}\nsplit: {}\nmodel: {}\n"),
        ]
        terminals = [
            evaluate(model, partition.valid, registry=registry),
            assess(model, partition.test, registry=registry),
            explain(model, registry=registry),
            screen(c, "y", algorithms=["logistic"], registry=registry),
            tune(c, "y", space={"max_iter": [5]}, registry=registry),
            predict(model, partition.valid),
        ]
        required = {"target": "y", "time_col": "x0", "group_col": "x0", "names": ["x0"],
                    "path": "unused.yaml"}
        before = registry.dump()
        checked = 0
        for name in holdout.__all__:
            verb = getattr(holdout, name)
            if isinstance(verb, type) or not callable(verb):
                continue
            checks = {p: _check(a.annotation) for p, a in signature(verb).parameters.items()
                      if a.annotation is not a.empty}
            edges = [p for p, check in checks.items() if check and check[2] is TypeError]
            valid = {p: next(a for a in artifacts if checks[p][1](a)) for p in edges}
            for param in edges:
                for terminal in terminals:
                    args = {**required, **valid, param: terminal}
                    kwargs = {p: args[p] for p in signature(verb).parameters if p in args}
                    with pytest.raises(TypeError, match=rf"^{param} must be an? "):
                        verb(**kwargs)
                checked += 1
        assert checked >= 40
        assert registry.dump() == before

    def test_signature_annotations_never_mention_terminal_types(self):
        terminal = {"Metrics", "Evidence", "Explanation", "Leaderboard", "TuningResult",
                    "Predictions"}
        for name in holdout.__all__:
            obj = getattr(holdout, name)
            if not callable(obj) or isinstance(obj, type):
                continue
            for param in inspect.signature(obj).parameters.values():
                annotation = str(param.annotation)
                assert not (terminal & set(annotation.replace("|", " ").split())), (
                    f"{name} accepts a terminal type: {param}"
                )


class TestAssessOnceProperty:
    @given(
        sequence=st.lists(
            st.sampled_from(["assess_m1", "assess_m2", "evaluate", "refit_assess"]),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_at_most_one_evidence_per_holdout(self, sequence):
        registry = ProvenanceRegistry()
        df = make_classification_frame(30, seed=1)
        p = split(df, "y", seed=2, registry=registry)
        m1 = fit(p.train, "y", registry=registry)
        m2 = fit(p.train, "y", algorithm="knn", registry=registry)
        evidence_count = 0
        for action in sequence:
            try:
                if action == "assess_m1":
                    assess(m1, p.test, registry=registry)
                    evidence_count += 1
                elif action == "assess_m2":
                    assess(m2, p.test, registry=registry)
                    evidence_count += 1
                elif action == "refit_assess":
                    fresh = fit(p.dev, "y", registry=registry)
                    assess(fresh, p.test, registry=registry)
                    evidence_count += 1
                else:
                    evaluate(m1, p.valid, registry=registry)
            except GuardError:
                pass
        assert evidence_count <= 1
        if evidence_count == 1:
            assert registry.lookup(p.test).assessed is True


def test_concurrent_assess_single_winner(registry, partition):
    # Eight models race one holdout: the claim is atomic, so exactly one
    # Evidence emerges and every other contender is told the budget is spent.
    models = [fit(partition.train, "y", seed=i, registry=registry) for i in range(8)]
    results = []
    lock = threading.Lock()
    barrier = threading.Barrier(8)

    def racer(m):
        barrier.wait()
        try:
            assess(m, partition.test, registry=registry)
            outcome = "evidence"
        except HoldoutSpent:
            outcome = "spent"
        with lock:
            results.append(outcome)

    threads = [threading.Thread(target=racer, args=(m,)) for m in models]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results.count("evidence") == 1
    assert results.count("spent") == 7


def test_concurrent_assess_of_one_model_single_winner(registry, monkeypatch):
    # One model without lineage races itself on two holdouts. The model
    # check runs under the claim's lock, so exactly one Evidence emerges and
    # the other call is told the model is spent; a sleep around the
    # registry's fingerprinting widens the window between the two.
    df = make_classification_frame(60)
    registry.set_guards("off")
    m = fit(df, "y", registry=registry)
    registry.set_guards("on")
    holdouts = [split(df, "y", seed=seed, registry=registry).test for seed in (1, 2)]
    unslowed = holdout.registry.fingerprint

    def slow_fingerprint(frame):
        time.sleep(0.05)
        return unslowed(frame)

    monkeypatch.setattr(holdout.registry, "fingerprint", slow_fingerprint)
    barrier = threading.Barrier(2)
    results = []

    def racer(test):
        barrier.wait()
        try:
            results.append(assess(m, test, registry=registry))
        except AlreadyAssessedModel as e:
            results.append(e)

    threads = [threading.Thread(target=racer, args=(test,)) for test in holdouts]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(type(r).__name__ for r in results) == ["AlreadyAssessedModel", "Evidence"]
    assert m.assess_count == 1


def test_evidence_values_sane(registry, partition, model):
    ev = assess(model, partition.test, registry=registry)
    assert 0.0 <= ev["accuracy"] <= 1.0
    assert 0.0 <= ev["roc_auc"] <= 1.0


class TestTagErasureResistance:
    def test_evaluate_rejects_test_content_with_column_dropped(
        self, registry, partition, model
    ):
        from holdout import select_columns

        probe = select_columns(partition.test, ["x0", "x1", "y"])
        with pytest.raises(GuardError, match="reserved for assess"):
            evaluate(model, probe, registry=registry)

    def test_evaluate_rejects_test_content_with_lying_tag(
        self, registry, partition, model
    ):
        # Retagging is metadata-only; the registry resolves by content.
        disguised = partition.test._retag("valid")
        with pytest.raises(GuardError, match="reserved for assess"):
            evaluate(model, disguised, registry=registry)

    def test_fit_rejects_test_content_rebuilt_from_values(
        self, registry, partition
    ):
        from holdout import DataFrame, fit

        rebuilt = DataFrame(partition.test.columns())  # fresh object, tag none
        with pytest.raises(GuardError):
            fit(rebuilt, "y", registry=registry)


def test_schema_error_does_not_spend_holdout(registry, partition, model):
    # A frame that subset-matches the test partition but lacks a model
    # feature fails validation BEFORE the claim: the budget stays intact.
    from holdout import SchemaError, select_columns

    crippled = select_columns(partition.test, ["x0", "y"])
    with pytest.raises(SchemaError):
        assess(model, crippled, registry=registry)
    assert registry.lookup(partition.test).assessed is False
    ev = assess(model, partition.test, registry=registry)
    assert isinstance(ev, Evidence)


def test_unusable_test_frame_does_not_spend_holdout(registry):
    # The only missing cell sits in the last (test) rows of a temporal
    # split. A standardize-only model cannot transform it; that must fail
    # before the claim, so a correctly built model can still be assessed.
    n = 40
    df = DataFrame(
        {
            "t": [float(i) for i in range(n)],
            "x": [float(i % 7) for i in range(n - 1)] + [None],
            "y": [i % 2 for i in range(n)],
        }
    )
    p = split_temporal(df, "y", "t", registry=registry)
    fragile = fit(p.train, "y", recipe=["standardize"], registry=registry)
    with pytest.raises(ConfigError, match="missing values"):
        assess(fragile, p.test, registry=registry)
    assert fragile.assess_count == 0
    assert registry.lookup(p.test).assessed is False
    sound = fit(p.train, "y", registry=registry)
    assert isinstance(assess(sound, p.test, registry=registry), Evidence)


def _treeless_forest(registry, p):
    # A forest with no trees predicts one NaN, so the scorer fails.
    m = fit(p.train, "y", algorithm="random_forest", hyperparameters={"n_trees": 1},
            registry=registry)
    m.state.trees = []
    return m, p.test, {}


def _unknown_metric(registry, p):
    return fit(p.train, "y", registry=registry), p.test, {"metrics": ["accuracy", "nope"]}


def _regression_metric(registry, p):
    return fit(p.train, "y", registry=registry), p.test, {"metrics": ["rmse"]}


def _valid_frame(registry, p):
    return fit(p.train, "y", registry=registry), p.valid, {}


@pytest.mark.parametrize(
    "build, error, message",
    [
        (_treeless_forest, ConfigError, "shape mismatch"),
        (_unknown_metric, ConfigError, "unknown metrics"),
        (_regression_metric, ConfigError, "do not apply to a classification task"),
        (_valid_frame, GuardError, "test"),
    ],
    ids=["learner", "metric", "cross-task metric", "role"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the treeless forest's mean
def test_failing_assess_leaves_registry_unchanged(registry, partition, build, error, message):
    # Everything that can fail runs before the claim: the budget is charged
    # only for delivered Evidence.
    m, frame, kwargs = build(registry, partition)
    before = registry.dump()
    with pytest.raises(error, match=message):
        assess(m, frame, registry=registry, **kwargs)
    assert registry.dump() == before
    assert m.assess_count == 0
    sound = fit(partition.train, "y", registry=registry)
    assert isinstance(assess(sound, partition.test, registry=registry), Evidence)


def test_target_class_unseen_at_fit_rejected(registry):
    # Ordered rows: the train member holds classes a and b only, while the
    # valid and test members each hold a c.
    y = ["a" if i % 2 else "b" for i in range(40)]
    y[30] = y[35] = "c"
    df = DataFrame({"t": [float(i) for i in range(40)], "x": [float(i % 7) for i in range(40)],
                    "y": y})
    p = split_temporal(df, "y", "t", registry=registry)
    m = fit(p.train, "y", algorithm="decision_tree", registry=registry)
    with pytest.raises(SchemaError, match="target value 'c' was not seen at fit time"):
        evaluate(m, p.valid, registry=registry)
    with pytest.raises(SchemaError, match="target value 'c' was not seen at fit time"):
        assess(m, p.test, registry=registry)
    assert m.assess_count == 0
    assert registry.lookup(p.test).assessed is False


def test_explain_rejects_non_positive_repeats(registry, partition, model):
    for repeats in (0, -1, 1.5, True):
        with pytest.raises(ConfigError, match="repeats"):
            explain(model, partition.valid, repeats=repeats, registry=registry)

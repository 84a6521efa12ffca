import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assess,
    evaluate,
    explain,
    fingerprint,
    fit,
    split,
    split_temporal,
)

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
        # Terminality, enforced: feeding Evidence/Metrics back into any verb
        # that takes data or models must raise TypeError.
        from holdout import cv, predict, prepare

        metrics = evaluate(model, partition.valid, registry=registry)
        evidence = assess(model, partition.test, registry=registry)
        for terminal in (metrics, evidence):
            with pytest.raises((TypeError, PartitionError)):
                fit(terminal, "y", registry=registry)
            with pytest.raises(TypeError):
                evaluate(terminal, partition.valid, registry=registry)
            with pytest.raises(TypeError):
                assess(terminal, partition.test, registry=registry)
            with pytest.raises(TypeError):
                predict(terminal, partition.valid)
            with pytest.raises(TypeError):
                prepare(terminal, "y", registry=registry)
            with pytest.raises(TypeError):
                cv(terminal, 3, registry=registry)
            with pytest.raises(TypeError):
                split(terminal, "y", registry=registry)

    def test_signature_annotations_never_mention_terminal_types(self):
        import inspect
        import holdout

        terminal = {"Metrics", "Evidence", "Explanation", "Leaderboard", "TuningResult"}
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
    import threading

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


def test_explain_rejects_non_positive_repeats(registry, partition, model):
    for repeats in (0, -1, 1.5, True):
        with pytest.raises(ConfigError, match="repeats"):
            explain(model, partition.valid, repeats=repeats, registry=registry)

"""Acceptance suite: one test per criterion, one printed verdict line each."""

import math
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from holdout import (
    AlreadyAssessedModel,
    DataFrame,
    Evidence,
    GuardError,
    HoldoutSpent,
    Metrics,
    Model,
    Partition,
    PartitionError,
    Predictions,
    ProvenanceRegistry,
    assess,
    cv,
    cv_temporal,
    demo_leakage,
    evaluate,
    explain,
    fit,
    predict,
    prepare,
    run_conformance,
    run_workflow,
    select_columns,
    split,
    split_group,
    split_temporal,
)
from holdout.judge import Explanation
from holdout.prepare import PreparedData
from holdout.rotate import CVResult
from holdout.demo import two_gaussian_frame

from conftest import left_sum
from test_workflow import workflow_text, write_csv


@contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n:2d} {description}: FAIL")
        raise
    print(f"\nACCEPTANCE {n:2d} {description}: PASS")


def test_criterion_1_conformance_suite():
    with criterion(1, "conformance conditions 1-8 pass in under 10s"):
        started = time.monotonic()
        report = run_conformance()
        elapsed = time.monotonic() - started
        assert report["passed"] is True
        assert [c["condition"] for c in report["conditions"]] == list(range(1, 9))
        assert elapsed < 10.0, f"conformance took {elapsed:.1f}s"


def test_criterion_2_rejection_catalogue():
    with criterion(2, "all 7 invalid workflows fail with their stated mechanism"):
        reg = ProvenanceRegistry()
        df = two_gaussian_frame(n=80, seed=1)
        s = split(df, "y", seed=1, registry=reg)
        m = fit(s.train, "y", registry=reg)

        # Row 1: assess -> assess, same model: the model-assessed flag fires.
        assess(m, s.test, registry=reg)
        with pytest.raises(AlreadyAssessedModel, match="once per holdout"):
            assess(m, s.test, registry=reg)

        # Row 2: different model, same holdout: the registry flag fires.
        m2 = fit(s.train, "y", algorithm="knn", registry=reg)
        with pytest.raises(HoldoutSpent, match="regardless of model"):
            assess(m2, s.test, registry=reg)

        # Row 3: prepare(all data) before split: no split provenance.
        reg3 = ProvenanceRegistry()
        with pytest.raises(PartitionError, match="call split"):
            prepare(df, "y", registry=reg3)

        # Row 4: label-informed feature selection before split, then fit.
        selected = select_columns(df, ["f0", "f1", "y"])
        with pytest.raises(PartitionError, match="call split"):
            fit(selected, "y", registry=reg3)

        # Row 5: evaluate without a prior fit: type continuity, no Model.
        with pytest.raises(TypeError, match="Model"):
            evaluate(s, s.valid, registry=reg)

        # Row 6: fit on the test member: the tag guard.
        with pytest.raises(GuardError, match="'test'"):
            fit(s.test, "y", registry=reg)

        # Row 7: evaluate on the test member: reserved for assess.
        with pytest.raises(GuardError, match="reserved for assess"):
            evaluate(m, s.test, registry=reg)


def test_criterion_3_typestate_matrix():
    with criterion(3, "all 32 typestate cells behave as specified"):
        reg = ProvenanceRegistry()
        raw = two_gaussian_frame(n=80, seed=2)

        def rejects(fn, *args, **kwargs):
            with pytest.raises(Exception) as excinfo:
                fn(*args, **kwargs)
            assert isinstance(
                excinfo.value, (TypeError, GuardError, PartitionError)
            ), f"unexpected rejection type {type(excinfo.value)}"

        def type_error(fn, *args, **kwargs):
            with pytest.raises(TypeError):
                fn(*args, **kwargs)

        # --- Untagged row: split produces, everything else rejects.
        s = split(raw, "y", seed=3, registry=reg)      # cell -> Partition
        assert isinstance(s, Partition)
        rejects(cv, raw, 3, registry=reg)              # rej.
        rejects(prepare, raw, "y", registry=reg)       # rej.
        rejects(fit, raw, "y", registry=reg)           # rej.
        rejects(evaluate, raw, raw, registry=reg)      # rej. (no Model exists)
        rejects(assess, raw, raw, registry=reg)        # rej.
        rejects(explain, raw, registry=reg)            # rej.
        rejects(predict, raw, raw)                     # rej.

        # --- Partitioned row.
        type_error(split, s, "y", registry=reg)        # dash: verb inapplicable
        c = cv(s, 3, seed=1, registry=reg)             # cell -> CVResult
        assert isinstance(c, CVResult)
        prepared = prepare(s.train, "y", registry=reg) # cell -> PreparedData
        assert isinstance(prepared, PreparedData)
        m = fit(s.train, "y", registry=reg)            # cell -> Fitted
        assert isinstance(m, Model)
        rejects(evaluate, s, s.valid, registry=reg)    # rej.
        rejects(assess, s, s.test, registry=reg)       # rej.
        rejects(explain, s, registry=reg)              # rej.
        rejects(predict, s, s.valid)                   # rej.

        # --- Fitted row.
        type_error(split, m, "y", registry=reg)        # dash
        type_error(cv, m, 3, registry=reg)             # dash
        type_error(prepare, m, "y", registry=reg)      # dash
        type_error(fit, m, "y", registry=reg)          # dash
        metrics = evaluate(m, s.valid, registry=reg)   # cell -> Metrics
        assert isinstance(metrics, Metrics)
        pred = predict(m, s.valid)                     # cell -> Predictions
        assert isinstance(pred, Predictions)
        expl = explain(m, registry=reg)                # cell -> Explanation
        assert isinstance(expl, Explanation)
        ev = assess(m, s.test, registry=reg)           # cell -> Evidence
        assert isinstance(ev, Evidence)

        # --- Assessed row: Evidence is terminal, assess rejects, the rest live on.
        type_error(split, ev, "y", registry=reg)       # dash
        type_error(cv, ev, 3, registry=reg)            # dash
        type_error(prepare, ev, "y", registry=reg)     # dash
        type_error(fit, ev, "y", registry=reg)         # dash
        type_error(evaluate, ev, s.valid, registry=reg)  # dash
        with pytest.raises(GuardError):                # rej.
            assess(m, s.test, registry=reg)
        assert isinstance(explain(m, registry=reg), Explanation)   # Explan.
        assert isinstance(predict(m, s.valid), Predictions)        # Predict.


def test_criterion_4_per_fold_preparation_oracle():
    with criterion(4, "fold transformers match fold-train recomputation to 1e-12"):
        reg = ProvenanceRegistry()
        df = two_gaussian_frame(n=200, seed=4)
        s = split(df, "y", seed=5, registry=reg)
        rotation = cv(s, 5, seed=6, registry=reg)
        model = fit(rotation, "y", registry=reg)
        dev = rotation._dev_frame
        assert len(model.fold_transformers_) == 5
        for (train_idx, _), transformer in zip(rotation.folds, model.fold_transformers_):
            impute = next(st for st in transformer.steps if st.kind == "impute_mean")
            standardize = next(st for st in transformer.steps if st.kind == "standardize")
            for col, (mean, std) in standardize.params.items():
                values = [float(dev.column(col)[i]) for i in train_idx]
                want_mean = left_sum(values) / len(values)
                want_var = left_sum((v - want_mean) ** 2 for v in values) / len(values)
                assert abs(mean - want_mean) <= 1e-12
                assert abs(std - math.sqrt(want_var)) <= 1e-12
                assert abs(impute.params[col] - want_mean) <= 1e-12

        # Outlier canary: poisoning fold-0 valid rows leaves fold-0 train
        # state untouched.
        canary_row = rotation.folds[0][1][0]
        cols = {name: list(vals) for name, vals in dev.columns().items()}
        cols["f0"][canary_row] = 1e12
        poisoned = CVResult(
            rotation.folds, rotation.target, rotation.source_split_id, rotation.kind,
            DataFrame(cols, partition_tag="dev"),
        )
        reg.set_guards("off")
        poisoned_model = fit(poisoned, "y", registry=reg)
        assert poisoned_model.fold_transformers_[0] == model.fold_transformers_[0]


def test_criterion_5_workflow_determinism(tmp_path):
    with criterion(5, "two identical workflow runs are bit-identical"):
        data = tmp_path / "determinism.csv"
        write_csv(data, two_gaussian_frame(n=120, seed=7))
        wf = tmp_path / "determinism.yaml"
        wf.write_text(workflow_text(data))
        reg_a, reg_b = ProvenanceRegistry(), ProvenanceRegistry()
        report_a = run_workflow(wf, registry=reg_a)
        report_b = run_workflow(wf, registry=reg_b)
        assert reg_a.dump() == reg_b.dump()          # byte-identical fingerprints
        assert report_a.cv_scores == report_b.cv_scores  # identical scores_ maps
        assert report_a.to_json() == report_b.to_json()


def test_criterion_6_scorer_oracle():
    with criterion(6, "roc_auc equals brute-force pair counting on 200 frames"):
        from holdout.scoring import roc_auc
        from test_scoring import brute_force_auc

        assert abs(
            roc_auc([0, 0, 1, 1, 1], [0.1, 0.4, 0.35, 0.8, 0.9]) - 5.0 / 6.0
        ) <= 1e-12
        rng = np.random.Generator(np.random.Philox(13))
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 51))
            labels = [int(v) for v in rng.integers(0, 2, n)]
            scores = [round(float(v), 1) for v in rng.random(n)]
            assert abs(roc_auc(labels, scores) - brute_force_auc(labels, scores)) <= 1e-12
            checked += 1


def test_criterion_7_seed_selection_direction():
    with criterion(7, "best-of-10-seeds on test inflates (sign test, <60s)"):
        started = time.monotonic()
        report = demo_leakage("seed_selection", replicates=50, seed=0, n_seeds=10)
        elapsed = time.monotonic() - started
        assert report["mean_inflation"] > 0.0
        assert report["p_value"] < 0.05
        assert elapsed < 60.0, f"demo took {elapsed:.1f}s"


def test_criterion_8_screen_selection_direction():
    with criterion(8, "best-of-4-algorithms on test inflates (sign test)"):
        report = demo_leakage("screen_selection", replicates=50, seed=0)
        assert len(report["algorithms"]) == 4
        assert report["mean_inflation"] > 0.0
        assert report["p_value"] < 0.05


def test_criterion_9_capacity_ordering():
    with criterion(9, "duplicate injection inflates trees at least as much as logistic"):
        report = demo_leakage("duplicate_injection", replicates=50, seed=0)
        assert report["inflation"]["decision_tree"] >= report["inflation"]["logistic"]
        assert report["capacity_ordering_confirmed"] is True


def test_criterion_10_group_and_temporal_guards():
    with criterion(10, "0 violations across 1000 grouped + 1000 temporal configs"):
        rng = np.random.Generator(np.random.Philox(21))
        ratio_choices = ((0.6, 0.2, 0.2), (0.5, 0.25, 0.25), (0.4, 0.3, 0.3))

        group_violations = 0
        for trial in range(1000):
            reg = ProvenanceRegistry()
            n_groups = int(rng.integers(4, 11))
            sizes = [int(rng.integers(1, 5)) for _ in range(n_groups)]
            groups, xs, ys = [], [], []
            for g, size in enumerate(sizes):
                for _ in range(size):
                    groups.append(f"g{g}")
                    xs.append(float(rng.normal()))
                    ys.append(int(rng.integers(0, 2)))
            df = DataFrame({"g": groups, "x": xs, "y": ys})
            ratios = ratio_choices[trial % len(ratio_choices)]
            p = split_group(df, "y", "g", ratios=ratios, seed=trial, registry=reg)
            placed = {}
            for member, name in ((p.train, "train"), (p.valid, "valid"), (p.test, "test")):
                for g in set(member.column("g")):
                    if g in placed and placed[g] != name:
                        group_violations += 1
                    placed[g] = name
        assert group_violations == 0

        temporal_violations = 0
        for trial in range(1000):
            reg = ProvenanceRegistry()
            n = int(rng.integers(40, 81))
            df = DataFrame(
                {
                    "t": [float(i) for i in range(n)],
                    "x": [float(rng.normal()) for _ in range(n)],
                    "y": [float(rng.normal()) for _ in range(n)],
                }
            )
            p = split_temporal(df, "y", "t", registry=reg)
            k = int(rng.integers(2, 6))
            min_train = int(rng.integers(5, 16))
            embargo = int(rng.integers(0, 5))
            window = "expanding" if trial % 2 == 0 else "sliding"
            c = cv_temporal(
                p, k, window=window, min_train=min_train, embargo=embargo,
                registry=reg,
            )
            for train_idx, valid_idx in c.folds:
                if not train_idx or not valid_idx:
                    temporal_violations += 1
                    continue
                if min(valid_idx) - max(train_idx) <= embargo:
                    temporal_violations += 1
                if max(train_idx) >= min(valid_idx):
                    temporal_violations += 1
        assert temporal_violations == 0


def test_criterion_11_assess_once_under_concurrency():
    with criterion(11, "100 racing trials each yield 1 Evidence and 7 HoldoutSpent"):
        df = two_gaussian_frame(n=40, seed=30)
        for trial in range(100):
            reg = ProvenanceRegistry()
            s = split(df, "y", seed=trial, registry=reg)
            models = [
                fit(s.train, "y", algorithm="knn", seed=i, registry=reg)
                for i in range(8)
            ]
            outcomes = []
            lock = threading.Lock()
            barrier = threading.Barrier(8)

            def racer(model):
                barrier.wait()
                try:
                    assess(model, s.test, registry=reg)
                    verdict = "evidence"
                except HoldoutSpent:
                    verdict = "spent"
                with lock:
                    outcomes.append(verdict)

            threads = [threading.Thread(target=racer, args=(m,)) for m in models]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert outcomes.count("evidence") == 1, f"trial {trial}: {outcomes}"
            assert outcomes.count("spent") == 7, f"trial {trial}: {outcomes}"

"""Self-contained conformance suite: eight named checks over the public API.

Each check builds its own session registry and synthetic data so the suite
is hermetic and runs in seconds. Failures are report content, not
exceptions.
"""

from __future__ import annotations

import math

from .errors import GuardError, HoldoutSpent, PartitionError
from .frame import DataFrame, select_columns
from .judge import Evidence, Metrics, assess, evaluate, explain
from .learn import fit
from .prepare import PreparedData, apply, prepare
from .registry import ADMITS, ROLES, ProvenanceRegistry
from .rng import generator
from .rotate import cv
from .split import Partition, split


def _toy_frame(n: int = 60, seed: int = 7) -> DataFrame:
    rng = generator(seed)
    half = n // 2
    y = [0] * half + [1] * (n - half)
    x1 = [float(rng.normal(loc=2.0 * label, scale=1.0)) for label in y]
    x2 = [float(rng.normal(loc=-1.0 * label, scale=1.0)) for label in y]
    x3 = [float(rng.normal()) for _ in y]
    return DataFrame({"x1": x1, "x2": x2, "x3": x3, "y": y})


def _check_1_split_produces_partition():
    reg = ProvenanceRegistry()
    s = split(_toy_frame(), "y", seed=1, registry=reg)
    assert isinstance(s, Partition), "split must return a Partition"
    tags = (s.train.partition_tag, s.valid.partition_tag, s.test.partition_tag,
            s.dev.partition_tag)
    assert tags == ("train", "valid", "test", "dev"), f"bad member tags {tags}"
    for member, role in ((s.train, "train"), (s.valid, "valid"), (s.test, "test"),
                         (s.dev, "dev")):
        record = reg.lookup(member)
        assert record is not None and record.role == role, f"{role} not registered"
    return "Partition with tagged, registered members"


_VERBS = {
    "prepare": lambda m, df, reg: prepare(df, "y", registry=reg),
    "fit": lambda m, df, reg: fit(df, "y", registry=reg),
    "evaluate": lambda m, df, reg: evaluate(m, df, registry=reg),
    "explain": lambda m, df, reg: explain(m, df, repeats=1, registry=reg),
    "cv": lambda m, df, reg: cv(Partition(df, df, df, df, "y", "", 1), 2, registry=reg),
    "assess": lambda m, df, reg: assess(m, df, registry=reg),
}


def _check_2_verbs_admit_declared_roles():
    df = _toy_frame()
    for verb, admitted in ADMITS.items():
        # A fresh session per verb: assess spends the one holdout it admits.
        reg = ProvenanceRegistry()
        s = split(df, "y", seed=1, registry=reg)
        model = fit(s.train, "y", registry=reg)
        try:
            _VERBS[verb](model, df, reg)
            raise AssertionError(f"{verb} accepted unregistered data")
        except PartitionError as exc:
            assert "split" in str(exc), "rejection must direct the user to split"
        for role in sorted(ROLES, key=lambda r: r in admitted):  # rejections first
            member = getattr(s, role)
            if role in admitted:
                _VERBS[verb](model, member, reg)
                continue
            try:
                _VERBS[verb](model, member, reg)
                raise AssertionError(f"{verb} accepted {role}-role data")
            except GuardError:
                pass
    # prepare's output is admitted by content too (in the last session): a
    # hand-built PreparedData over transformed test rows has no provenance.
    t = prepare(s.train, "y", registry=reg).state
    cols = apply(t, s.test).columns()
    cols["y"] = [float(v) for v in s.test.column("y")]
    forged = PreparedData(DataFrame(cols), t, "y", "classification", (0, 1))
    try:
        fit(forged, registry=reg)
        raise AssertionError("fit accepted a hand-built PreparedData")
    except PartitionError:
        pass
    return "every verb admits exactly its ADMITS roles; unregistered and forged data rejected"


def _check_3_judgment_requires_model():
    reg = ProvenanceRegistry()
    s = split(_toy_frame(), "y", seed=1, registry=reg)
    for bad in (s, s.train, "model"):
        try:
            evaluate(bad, s.valid, registry=reg)
            raise AssertionError("evaluate accepted a non-Model")
        except TypeError:
            pass
        try:
            assess(bad, s.test, registry=reg)
            raise AssertionError("assess accepted a non-Model")
        except TypeError:
            pass
    m = fit(s.train, "y", registry=reg)
    assert isinstance(evaluate(m, s.valid, registry=reg), Metrics)
    return "evaluate and assess demand a fitted Model"


def _check_4_assess_once_per_holdout():
    reg = ProvenanceRegistry()
    s = split(_toy_frame(), "y", seed=1, registry=reg)
    m1 = fit(s.train, "y", registry=reg)
    m2 = fit(s.train, "y", algorithm="decision_tree", registry=reg)
    first = assess(m1, s.test, registry=reg)
    assert isinstance(first, Evidence)
    try:
        assess(m2, s.test, registry=reg)
        raise AssertionError("second assess on the same holdout succeeded")
    except HoldoutSpent:
        pass
    try:
        assess(m1, s.test, registry=reg)
        raise AssertionError("re-assessing an assessed model succeeded")
    except GuardError:
        pass
    return "one Evidence per holdout; later calls rejected regardless of model"


def _check_5_per_fold_preparation():
    reg = ProvenanceRegistry()
    s = split(_toy_frame(90, seed=3), "y", seed=2, registry=reg)
    rotation = cv(s, 3, seed=5, registry=reg)
    model = fit(rotation, "y", registry=reg)
    assert len(model.fold_transformers_) == rotation.k, "missing per-fold state"
    dev = rotation._dev_frame
    for (train_idx, _), transformer in zip(rotation._folds, model.fold_transformers_):
        standardize = next(st for st in transformer.steps if st.kind == "standardize")
        for col, (mean, std) in standardize.params.items():
            cells = dev.column(col)
            values = [cells[i] for i in train_idx]
            expect_mean = sum(values) / len(values)
            expect_var = sum((v - expect_mean) * (v - expect_mean) for v in values) / len(values)
            assert math.isclose(mean, expect_mean, abs_tol=1e-12), (
                f"fold transformer mean for {col} uses non-fold-train rows"
            )
            assert math.isclose(std, math.sqrt(expect_var), abs_tol=1e-12), (
                f"fold transformer std for {col} uses non-fold-train rows"
            )
    return "declarative rotation fit prepares per fold, train rows only"


def _check_6_unregistered_rejected_at_fit():
    reg = ProvenanceRegistry()
    df = _toy_frame()
    # Label-informed feature selection on the raw frame produces a new,
    # unregistered frame; the fit boundary must reject it.
    selected = select_columns(df, ["x1", "y"])
    try:
        fit(selected, "y", registry=reg)
        raise AssertionError("fit accepted data without split provenance")
    except PartitionError as exc:
        assert "split" in str(exc)
    return "data prepared outside split cannot enter fit"


def _check_7_evidence_distinct_type():
    reg = ProvenanceRegistry()
    s = split(_toy_frame(), "y", seed=1, registry=reg)
    m = fit(s.train, "y", registry=reg)
    metrics = evaluate(m, s.valid, registry=reg)
    evidence = assess(m, s.test, registry=reg)
    assert isinstance(metrics, Metrics) and not isinstance(metrics, Evidence)
    assert isinstance(evidence, Evidence) and not isinstance(evidence, Metrics)
    assert not issubclass(Evidence, Metrics) and not issubclass(Metrics, Evidence)
    assert not isinstance(evidence, dict) and not isinstance(metrics, dict)
    return "Evidence and Metrics are runtime-distinguishable, unrelated types"


def _check_8_rotation_blocks_partitions():
    reg = ProvenanceRegistry()
    s = split(_toy_frame(), "y", seed=1, registry=reg)
    rotation = cv(s, 3, seed=0, registry=reg)
    for attr in ("train", "valid", "test", "dev"):
        try:
            getattr(rotation, attr)
            raise AssertionError(f"CVResult exposed .{attr}")
        except GuardError:
            pass
    assert s.test.partition_tag == "test", "test stays on the Partition"
    return "CVResult has no partition accessors; test stays on the Partition"


CONDITIONS = (
    (1, "split produces a Partition", _check_1_split_produces_partition),
    (2, "each verb admits only its declared roles", _check_2_verbs_admit_declared_roles),
    (3, "evaluate and assess require a Model", _check_3_judgment_requires_model),
    (4, "assess is terminal, once per holdout", _check_4_assess_once_per_holdout),
    (5, "preparation runs per fold in declarative mode", _check_5_per_fold_preparation),
    (6, "unregistered data fails at the fit boundary", _check_6_unregistered_rejected_at_fit),
    (7, "Evidence is not substitutable for Metrics", _check_7_evidence_distinct_type),
    (8, "CVResult blocks direct partition access", _check_8_rotation_blocks_partitions),
)


def run_conformance() -> dict:
    """Run all eight checks; failures land in the report, not as exceptions."""
    results = []
    for number, name, check in CONDITIONS:
        try:
            detail = check()
            results.append(
                {"condition": number, "name": name, "passed": True, "detail": detail}
            )
        except Exception as exc:  # noqa: BLE001 - verdicts, not crashes
            results.append(
                {
                    "condition": number,
                    "name": name,
                    "passed": False,
                    "detail": f"{type(exc).__name__}: {exc}",
                }
            )
    return {
        "conditions": results,
        "passed": all(r["passed"] for r in results),
    }

"""The judgment verbs: repeatable evaluation, terminal assessment, explanation.

evaluate and assess are independent: both delegate to the shared scorer,
neither calls the other. evaluate works on any registered non-test frame
and may run as often as wanted; assess spends a test holdout exactly once
per session and returns Evidence, a type nothing else in the API accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .frame import DataFrame, _take_column, fingerprint
from .learn import Model, StackedModel, encode_eval_target, predict_values
from .registry import ProvenanceRegistry, resolve
from .rng import generator
from .scoring import PRIMARY_METRIC, score
from .signatures import Count, Positive, check_arguments


@dataclass(frozen=True)
class Metrics:
    """Formative measurement on non-test data. Terminal: feeds no verb."""

    values: Mapping[str, float]
    partition_role: str
    guards_bypassed: bool = False

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def to_dict(self) -> dict:
        return {
            "kind": "metrics",
            "values": dict(self.values),
            "partition_role": self.partition_role,
            "guards_bypassed": self.guards_bypassed,
        }


@dataclass(frozen=True)
class Evidence:
    """Summative measurement on a spent test holdout.

    Nominally distinct from Metrics: the two types are never substitutable
    anywhere in the API, and the holdout fingerprint records which budget
    was spent.
    """

    values: Mapping[str, float]
    holdout_fingerprint: str
    guards_bypassed: bool = False

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def to_dict(self) -> dict:
        return {
            "kind": "evidence",
            "values": dict(self.values),
            "holdout_fingerprint": self.holdout_fingerprint,
            "guards_bypassed": self.guards_bypassed,
        }


@dataclass(frozen=True)
class Explanation:
    """Feature importances. Terminal: feeds no verb."""

    values: Mapping[str, float]
    method: str = "permutation"
    guards_bypassed: bool = field(default=False, compare=False)

    def __post_init__(self):
        bad = {k: v for k, v in self.values.items() if not math.isfinite(v)}
        if bad:
            raise ValueError(f"non-finite importances: {bad}")

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def to_dict(self) -> dict:
        return {"kind": "explanation", "method": self.method, "values": dict(self.values)}


def evaluate(
    m: Model | StackedModel, df: DataFrame, metrics: Sequence[str] | None = None,
    registry: ProvenanceRegistry | None = None,
) -> Metrics:
    """Score a fitted model on a registered train/valid/dev frame.

    Evaluating on training data is legal (train-vs-valid comparison is a
    standard overfitting diagnosis); test-role data is rejected because the
    iterate loop must never see test feedback.
    """
    check_arguments(evaluate, locals())
    record, bypassed = resolve(registry).admit(df, "evaluate")
    y_true = encode_eval_target(m, df)
    preds = predict_values(m, df)
    values = score(m.task, y_true, preds, metrics)
    role = "unknown" if record is None else record.role
    return Metrics(values=values, partition_role=role, guards_bypassed=bypassed)


def assess(
    m: Model | StackedModel, test: DataFrame, metrics: Sequence[str] | None = None,
    registry: ProvenanceRegistry | None = None,
) -> Evidence:
    """Spend a test holdout: terminal judgment, once per holdout per session.

    The registry's `claim_assessment` demands, under one lock: the model
    has never been assessed, the frame resolves to a registered test
    partition whose lineage matches the model's split, and the holdout's
    assessed flag is still clear. Success flips the model counter and the flag.
    """
    check_arguments(assess, locals())
    # Everything that can fail (target encoding, each fitted transformer,
    # the learners and the scorer) runs before the claim, so the budget is
    # charged only for delivered Evidence; nothing is released before it.
    y_true = encode_eval_target(m, test)
    values = score(m.task, y_true, predict_values(m, test), metrics)
    _, bypassed = resolve(registry).admit(test, "assess", m)
    return Evidence(
        values=values,
        holdout_fingerprint=fingerprint(test).hex(),
        guards_bypassed=bypassed,
    )


def explain(
    m: Model | StackedModel,
    df: DataFrame | None = None,
    repeats: Positive = 10,
    seed: Count = 0,
    registry: ProvenanceRegistry | None = None,
) -> Explanation:
    """Feature importances for a fitted model.

    With a frame: permutation importance, the mean drop in the task's
    primary metric when one source column is shuffled (seeded, `repeats`
    rounds). Without a frame: the intrinsic importances the learner state
    reports (`importances()`), for a learner that has them. Available
    before and after assessment.
    """
    check_arguments(explain, locals())
    if df is None:
        return _intrinsic_explanation(m)
    _, bypassed = resolve(registry).admit(df, "explain")
    primary = PRIMARY_METRIC[m.task]
    y_true = encode_eval_target(m, df)
    baseline = score(m.task, y_true, predict_values(m, df), [primary])[primary]
    rng = generator(seed)
    names = df.column_names
    stored = [df._col(name) for name in names]
    importances = {}
    feature_cols = [c for c in m.source_columns if c in names]
    for col in feature_cols:
        drops = []
        position = names.index(col)
        for _ in range(repeats):
            perm = rng.permutation(df.row_count)
            shuffled = list(stored)
            shuffled[position] = _take_column(stored[position], perm)
            permuted_df = DataFrame._from_storage(names, shuffled, df.partition_tag)
            permuted_score = score(
                m.task, y_true, predict_values(m, permuted_df), [primary]
            )[primary]
            drops.append(baseline - permuted_score)
        importances[col] = float(np.mean(drops))
    return Explanation(values=importances, method="permutation", guards_bypassed=bypassed)


def _intrinsic_explanation(m) -> Explanation:
    if isinstance(m, StackedModel):
        raise ConfigError(
            "stacked models have no intrinsic importances; pass a data frame"
        )
    importances = m.state.importances()
    if importances is None:
        raise ConfigError(
            f"{m.algorithm!r} has no intrinsic importances; pass a data frame "
            "for permutation importance"
        )
    names = m.transformer.feature_names
    values = {n: float(importances.get(i, 0.0)) for i, n in enumerate(names)}
    return Explanation(values=values, method="intrinsic")

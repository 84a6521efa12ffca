"""Per-layer metrics from a traced run, averaged per traced op.

`PER_LAYER` is the list `BENCHMARK.json` declares: name -> (unit, better).
"""

from __future__ import annotations

import json
import statistics

ALGORITHMS = ("logistic", "linear", "decision_tree", "random_forest", "knn")


def _metrics() -> dict[str, tuple[str, str]]:
    m: dict[str, tuple[str, str]] = {}

    def add(name, unit="count", better="lower"):
        m[name] = (unit, better)

    add("frame.from_csv.calls")
    add("frame.from_csv.self_s", "s")
    add("frame.DataFrame.calls")
    add("frame.DataFrame.cells")
    add("frame.DataFrame.self_s", "s")
    for key in ("calls", "cold_calls", "cells_hashed"):
        add(f"frame.fingerprint.{key}")
    add("frame.fingerprint.self_s", "s")
    add("frame.select_columns.self_s", "s")
    for verb in ("lookup", "register", "claim_assessment"):
        add(f"registry.{verb}.calls")
        if verb == "claim_assessment":
            add("registry.claim_assessment.rejects")
        add(f"registry.{verb}.self_s", "s")
    add("registry.guard_share", "ratio")
    for span in ("split.split", "rotate.cv"):
        add(f"{span}.calls")
        add(f"{span}.self_s", "s")
    add("prepare.fit_transformer.calls")
    add("prepare.fit_transformer.cells")
    add("prepare.fit_transformer.unique_ratio", "ratio", "higher")
    add("prepare.fit_transformer.self_s", "s")
    add("prepare.apply.calls")
    add("prepare.apply.cells")
    add("prepare.apply.self_s", "s")
    for fn in ("fit", "feature_matrix", "predict_values"):
        add(f"learn.{fn}.calls")
        add(f"learn.{fn}.self_s", "s")
    for algo in ALGORITHMS:
        add(f"learners.train.{algo}.calls")
        add(f"learners.train.{algo}.self_s", "s")
        add(f"learners.predict.{algo}.self_s", "s")
    add("learners.train.unique_ratio", "ratio", "higher")
    add("learners.knn.predict.bytes_computed", "bytes")
    add("scoring.score.calls")
    add("scoring.score.self_s", "s")
    for verb in ("evaluate", "assess", "explain"):
        add(f"judge.{verb}.calls")
        add(f"judge.{verb}.self_s", "s")
    add("judge.explain.frames_built")
    for verb in ("screen", "tune", "stack"):
        add(f"strategy.{verb}.self_s", "s")
    add("workflow.parse_workflow.self_s", "s")
    add("workflow.run_workflow.self_s", "s")
    add("trace.overhead_s", "s")
    return m


PER_LAYER = _metrics()

# Span-name groups whose calls/self time a metric sums.
_TRAIN_SPANS = tuple(f"learners.train.{algo}" for algo in ALGORITHMS)
_GUARD_SPANS = ("registry.lookup", "registry.claim_assessment")


def per_layer(tracer, plain, traced, layers):
    """Metrics per traced op, plus {layer: reached?} for `layers`."""
    ops = max(len(traced), 1)
    op_time = sum(traced)
    values = {}
    for name in PER_LAYER:
        span, _, key = name.rpartition(".")
        if key == "calls":
            values[name] = tracer.calls.get(span, 0) / ops
        elif key == "self_s":
            values[name] = tracer.self_s.get(span, 0.0) / ops
        else:
            values[name] = tracer.counts.get(name, 0.0) / ops
    values["registry.claim_assessment.rejects"] = (
        tracer.counts.get("registry.claim_assessment.raised", 0.0) / ops
    )
    guard_s = sum(tracer.self_s.get(span, 0.0) for span in _GUARD_SPANS)
    values["registry.guard_share"] = guard_s / op_time if op_time else 0.0
    values["prepare.fit_transformer.unique_ratio"] = _ratio(
        len(tracer.keys["prepare.fit_transformer"]),
        tracer.calls.get("prepare.fit_transformer", 0),
    )
    values["learners.train.unique_ratio"] = _ratio(
        len(tracer.keys["learners.train"]),
        sum(tracer.calls.get(span, 0) for span in _TRAIN_SPANS),
    )
    values["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain) if plain and traced else 0.0
    )
    coverage = {
        layer: any(span.startswith(layer + ".") for span in tracer.calls) for layer in layers
    }
    metrics = {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}
    return metrics, coverage


def _ratio(distinct: int, calls: int) -> float:
    return distinct / calls if calls else 1.0


def write_spans(tracer, path) -> None:
    """Write spans as [name, start, end, parent index, op id] rows."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)

"""Declarative workflows: a YAML file drives split → rotate → fit/strategy →
evaluate → assess, and the run emits a JSON report.

The file format is a YAML subset: maps, lists and scalars only. Validation
errors carry the line of the offending block where the parser can anchor
one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import yaml

from .errors import ConfigError, ParseError, WorkflowError
from .frame import from_csv
from .judge import assess, evaluate
from .learn import fit
from .registry import ProvenanceRegistry
from .rotate import cv, cv_group, cv_temporal
from .split import split, split_group, split_temporal
from .strategy import screen, stack, tune

_LINE_KEY = "__line__"


class _LineLoader(yaml.SafeLoader):
    """SafeLoader that records the source line of every mapping."""


def _construct_mapping(loader, node, deep=False):
    mapping = yaml.SafeLoader.construct_mapping(loader, node, deep=deep)
    mapping[_LINE_KEY] = node.start_mark.line + 1
    return mapping


_LineLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
)


def _line(block: Any) -> str:
    if isinstance(block, dict) and _LINE_KEY in block:
        return f" (line {block[_LINE_KEY]})"
    return ""


def _strip_lines(obj):
    if isinstance(obj, dict):
        return {k: _strip_lines(v) for k, v in obj.items() if k != _LINE_KEY}
    if isinstance(obj, list):
        return [_strip_lines(v) for v in obj]
    return obj


MODE_BLOCKS = ("model", "screen", "tune", "stack")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    )


_VALUE_CHECKS = {
    "an integer": _is_int,
    "a string": lambda v: isinstance(v, str),
    "a boolean": lambda v: isinstance(v, bool),
    "a mapping": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    "a list of numbers": _is_number_list,
}

# Expected type of each value the runner reads, per block. A value of the
# wrong type would otherwise fail deep inside a verb with a bare
# TypeError/ValueError instead of a spec error.
_VALUE_TYPES = {
    "data": {"path": "a string", "target": "a string", "schema_hints": "a mapping"},
    "split": {
        "kind": "a string", "ratios": "a list of numbers", "seed": "an integer",
        "stratify": "a boolean", "embargo": "an integer",
        "time_col": "a string", "group_col": "a string",
    },
    "cv": {
        "kind": "a string", "k": "an integer", "seed": "an integer",
        "window": "a string", "min_train": "an integer", "embargo": "an integer",
    },
    "model": {
        "algorithm": "a string", "seed": "an integer",
        "hyperparameters": "a mapping", "recipe": "a list",
    },
    "screen": {"algorithms": "a list", "seed": "an integer", "hyperparameters": "a mapping"},
    "tune": {
        "algorithm": "a string", "space": "a mapping", "budget": "an integer",
        "method": "a string", "seed": "an integer",
    },
    "stack": {
        "base": "a list", "meta": "a string", "seed": "an integer",
        "hyperparameters": "a mapping",
    },
}

# Values that may be null: the runner passes None on and the verb applies
# its default.
_NULLABLE = {
    ("data", "schema_hints"),
    ("model", "algorithm"),
    ("model", "hyperparameters"),
    ("model", "recipe"),
    ("screen", "hyperparameters"),
    ("stack", "hyperparameters"),
}


def _check_values(block: dict, name: str, source: str) -> None:
    for key, expected in _VALUE_TYPES[name].items():
        if key not in block:
            continue
        value = block[key]
        if value is None and (name, key) in _NULLABLE:
            continue
        if not _VALUE_CHECKS[expected](value):
            raise ConfigError(
                f"{source}: {name}.{key} must be {expected}, got {value!r}{_line(block)}"
            )


@dataclass(frozen=True)
class WorkflowSpec:
    """Validated workflow: data source, split plan, optional rotation, one
    modeling block, reporting options and the guard switch."""

    data: dict
    split: dict
    cv: dict | None
    mode: str
    mode_block: dict
    report_metrics: list[str] | None
    guards: str
    assess_repeats: int


def _require(block: dict, key: str, context: str):
    if key not in block:
        raise ConfigError(f"workflow {context} block requires {key!r}{_line(block)}")
    return block[key]


def parse_workflow(text: str, source: str = "<workflow>") -> WorkflowSpec:
    """Parse and validate a workflow document."""
    try:
        raw = yaml.load(text, Loader=_LineLoader)
    except yaml.YAMLError as exc:
        raise ParseError(f"{source}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: workflow must be a mapping at the top level")

    known = {"data", "split", "cv", "report", "guards", "assess", _LINE_KEY}
    known.update(MODE_BLOCKS)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"{source}: unknown workflow keys {unknown}{_line(raw)}")

    data = _require(raw, "data", "top-level")
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: 'data' must be a mapping")
    _require(data, "path", "data")
    _require(data, "target", "data")
    _check_values(data, "data", source)

    split_block = _require(raw, "split", "top-level")
    if not isinstance(split_block, dict):
        raise ConfigError(f"{source}: 'split' must be a mapping")
    _check_values(split_block, "split", source)
    split_kind = split_block.get("kind", "random")
    if split_kind not in ("random", "temporal", "group"):
        raise ConfigError(
            f"{source}: split kind must be random, temporal or group, "
            f"got {split_kind!r}{_line(split_block)}"
        )
    if split_kind == "temporal":
        _require(split_block, "time_col", "split")
    if split_kind == "group":
        _require(split_block, "group_col", "split")

    modes = [m for m in MODE_BLOCKS if m in raw]
    if len(modes) != 1:
        raise ConfigError(
            f"{source}: workflow requires exactly one of {list(MODE_BLOCKS)}, "
            f"got {modes or 'none'}{_line(raw)}"
        )
    mode = modes[0]
    mode_block = raw[mode]
    if not isinstance(mode_block, dict):
        raise ConfigError(f"{source}: {mode!r} must be a mapping")
    _check_values(mode_block, mode, source)

    cv_block = raw.get("cv")
    if cv_block is not None:
        if not isinstance(cv_block, dict):
            raise ConfigError(f"{source}: 'cv' must be a mapping")
        _check_values(cv_block, "cv", source)
    if mode in ("screen", "tune", "stack") and cv_block is None:
        raise ConfigError(
            f"{source}: the {mode!r} strategy requires a 'cv' block{_line(mode_block)}"
        )

    report = raw.get("report")
    metrics = None
    if report is not None:
        if isinstance(report, dict):
            metrics = report.get("metrics")
        else:
            metrics = report
        if metrics is not None and (
            not isinstance(metrics, list) or not all(isinstance(m, str) for m in metrics)
        ):
            raise ConfigError(f"{source}: report metrics must be a list of names")

    guards = raw.get("guards", "on")
    if isinstance(guards, bool):  # YAML 1.1 reads bare on/off as booleans
        guards = "on" if guards else "off"
    if guards not in ("on", "off"):
        raise ConfigError(f"{source}: guards must be 'on' or 'off', got {guards!r}")

    assess_value = raw.get("assess", True)
    if isinstance(assess_value, bool):
        repeats = 1 if assess_value else 0
    elif isinstance(assess_value, int) and assess_value >= 0:
        repeats = assess_value
    else:
        raise ConfigError(
            f"{source}: assess must be a boolean or nonnegative integer, "
            f"got {assess_value!r}"
        )

    return WorkflowSpec(
        data=_strip_lines(data),
        split=_strip_lines(split_block),
        cv=_strip_lines(cv_block) if cv_block is not None else None,
        mode=mode,
        mode_block=_strip_lines(mode_block),
        report_metrics=list(metrics) if metrics else None,
        guards=guards,
        assess_repeats=repeats,
    )


def load_workflow(path) -> WorkflowSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_workflow(fh.read(), source=str(path))


@dataclass
class RunReport:
    """Everything a workflow run produced, JSON-round-trippable."""

    cv_scores: dict | None = None
    valid_metrics: dict | None = None
    evidence: dict | None = None
    leaderboard: dict | None = None
    tuning: dict | None = None
    guard_events: list = field(default_factory=list)
    guards_bypassed: bool = False

    def to_dict(self) -> dict:
        return {
            "cv_scores": self.cv_scores,
            "valid_metrics": self.valid_metrics,
            "evidence": self.evidence,
            "leaderboard": self.leaderboard,
            "tuning": self.tuning,
            "guard_events": self.guard_events,
            "guards_bypassed": self.guards_bypassed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        return cls(
            cv_scores=d.get("cv_scores"),
            valid_metrics=d.get("valid_metrics"),
            evidence=d.get("evidence"),
            leaderboard=d.get("leaderboard"),
            tuning=d.get("tuning"),
            guard_events=list(d.get("guard_events", [])),
            guards_bypassed=bool(d.get("guards_bypassed", False)),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))


def _do_split(spec: WorkflowSpec, df, registry):
    block = dict(spec.split)
    kind = block.pop("kind", "random")
    target = spec.data["target"]
    ratios = tuple(block.pop("ratios", (0.6, 0.2, 0.2)))
    if kind == "random":
        return split(
            df,
            target,
            ratios=ratios,
            seed=int(block.pop("seed", 0)),
            stratify=bool(block.pop("stratify", False)),
            registry=registry,
        )
    if kind == "temporal":
        return split_temporal(
            df,
            target,
            time_col=block.pop("time_col"),
            ratios=ratios,
            embargo=int(block.pop("embargo", 0)),
            registry=registry,
        )
    return split_group(
        df,
        target,
        group_col=block.pop("group_col"),
        ratios=ratios,
        seed=int(block.pop("seed", 0)),
        registry=registry,
    )


def _do_cv(spec: WorkflowSpec, partition, registry):
    block = dict(spec.cv)
    kind = block.get("kind", "kfold")
    k = int(block.get("k", 5))
    if kind == "kfold":
        return cv(partition, k, seed=int(block.get("seed", 0)), registry=registry)
    if kind == "temporal":
        return cv_temporal(
            partition,
            k,
            window=block.get("window", "expanding"),
            min_train=int(block.get("min_train", 1)),
            embargo=int(block.get("embargo", 0)),
            registry=registry,
        )
    if kind == "group":
        return cv_group(partition, k, seed=int(block.get("seed", 0)), registry=registry)
    raise ConfigError(f"unknown cv kind {kind!r}")


def execute_workflow(
    spec: WorkflowSpec, registry: ProvenanceRegistry | None = None
) -> RunReport:
    """Run a validated workflow in a fresh (or supplied) session registry."""
    reg = registry if registry is not None else ProvenanceRegistry()
    reg.set_guards(spec.guards)
    report = RunReport(guards_bypassed=not reg.guards_on)
    events = report.guard_events

    df = from_csv(spec.data["path"], spec.data.get("schema_hints"))
    events.append(["load", "ok"])

    partition = _do_split(spec, df, reg)
    events.append(["split", "ok"])

    rotation = None
    if spec.cv is not None:
        rotation = _do_cv(spec, partition, reg)
        events.append(["cv", "ok"])

    target = spec.data["target"]
    metrics = spec.report_metrics

    def committed_model():
        """Fit the model this workflow commits to assessment."""
        block = spec.mode_block
        seed = int(block.get("seed", 0))
        if spec.mode == "model":
            algorithm = block.get("algorithm")
            hp = block.get("hyperparameters")
            recipe = block.get("recipe")
            if rotation is not None:
                m = fit(
                    rotation, target, algorithm=algorithm, seed=seed,
                    hyperparameters=hp, recipe=recipe, registry=reg,
                )
            else:
                m = fit(
                    partition.train, target, algorithm=algorithm, seed=seed,
                    hyperparameters=hp, recipe=recipe, registry=reg,
                )
            return m, ("fit", m.scores_)
        if spec.mode == "screen":
            board = screen(
                rotation,
                target,
                algorithms=block.get("algorithms", []),
                seed=seed,
                hyperparameters=block.get("hyperparameters"),
                registry=reg,
            )
            winner = fit(
                partition.dev,
                target,
                algorithm=board.best,
                seed=seed,
                hyperparameters=(block.get("hyperparameters") or {}).get(board.best),
                registry=reg,
            )
            payload = {
                "rows": [[algo, scores] for algo, scores in board.rows],
                "best": board.best,
                "metric": board.metric,
            }
            return winner, ("screen", payload)
        if spec.mode == "tune":
            result = tune(
                rotation,
                target,
                algorithm=block.get("algorithm", "logistic"),
                space=block.get("space"),
                budget=int(block.get("budget", 10)),
                method=block.get("method", "grid"),
                seed=seed,
                registry=reg,
            )
            winner = fit(
                partition.dev,
                target,
                algorithm=block.get("algorithm", "logistic"),
                seed=seed,
                hyperparameters=result.best,
                registry=reg,
            )
            payload = {
                "trials": [[params, scores] for params, scores in result.trials],
                "best": result.best,
                "metric": result.metric,
            }
            return winner, ("tune", payload)
        # stack
        model = stack(
            rotation,
            target,
            base_algorithms=block.get("base", []),
            meta_algorithm=block.get("meta", "logistic"),
            seed=seed,
            hyperparameters=block.get("hyperparameters"),
            registry=reg,
        )
        return model, ("stack", None)

    model, (verb, payload) = committed_model()
    events.append([verb, "ok"])
    if verb == "fit" and payload is not None:
        report.cv_scores = payload
    elif verb == "screen":
        report.leaderboard = payload
    elif verb == "tune":
        report.tuning = payload

    valid = evaluate(model, partition.valid, metrics=metrics, registry=reg)
    events.append(["evaluate", "ok"])
    report.valid_metrics = valid.to_dict()

    for repeat in range(spec.assess_repeats):
        # A repeated assess block re-commits: the model is refit before the
        # holdout guard decides, so the rejection exercised is the
        # per-holdout budget, not the per-model flag.
        target_model = model if repeat == 0 else committed_model()[0]
        evidence = assess(target_model, partition.test, metrics=metrics, registry=reg)
        events.append(["assess", "ok"])
        if report.evidence is None:
            report.evidence = evidence.to_dict()

    return report


def run_workflow(path, registry: ProvenanceRegistry | None = None) -> RunReport:
    """Load, validate and execute a workflow file."""
    return execute_workflow(load_workflow(path), registry=registry)


def classify_exit(exc: BaseException) -> int:
    """Map an error to the documented CLI exit codes.

    2: workflow file problems; 3: guard rejections; 4: data problems,
    including files that cannot be opened or decoded.
    """
    from .errors import (
        CVError,
        GuardError,
        ParseError,
        PartitionError,
        RegistryError,
        SchemaError,
    )

    if isinstance(exc, ConfigError):
        return 2
    if isinstance(exc, (GuardError, PartitionError, RegistryError, CVError)):
        return 3
    if isinstance(exc, (ParseError, SchemaError, OSError, UnicodeDecodeError)):
        return 4
    if isinstance(exc, WorkflowError):
        return 4
    return 1

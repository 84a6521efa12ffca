"""Declarative workflows: a YAML file drives split → rotate → fit/strategy →
evaluate → assess, and the run emits a JSON report.

The file format is a YAML subset: maps, lists and scalars only. Each block
names the verb it calls, and the verb's signature declares the keys it
takes and their types; a key the block does not take, or a value of the
wrong type, fails when the file is parsed. Validation errors carry the line
of the offending block where the parser can anchor one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any

import yaml

from .errors import (
    ConfigError, CVError, GuardError, ParseError, PartitionError, RegistryError, SchemaError,
    WorkflowError,
)
from .frame import from_csv
from .judge import assess, evaluate
from .learn import fit
from .registry import ProvenanceRegistry
from .rotate import cv, cv_group, cv_temporal
from .scoring import unknown_metrics
from .signatures import check_arguments, signature
from .split import split, split_group, split_temporal
from .strategy import screen, stack, tune

_LINE_KEY = "__line__"


class _LineLoader(yaml.SafeLoader):
    """SafeLoader that records the source line of every mapping and refuses
    one that repeats a key (a `<<` merge may still be overridden)."""


def _construct_mapping(loader, node, deep=False):
    explicit = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
    mapping = yaml.SafeLoader.construct_mapping(loader, node, deep=deep)
    seen = set()
    for key_node in explicit:
        key = loader.construct_object(key_node, deep=deep)
        if key in seen:
            raise ConfigError(f"key {key!r} is repeated (line {key_node.start_mark.line + 1})")
        seen.add(key)
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

# Every block a workflow may hold and the verb each kind of it calls (None
# for a block without kinds; the first kind is the default). The verb's
# signature declares the block's keys: see _keys. Verbs are named, not
# referenced, so a wrapper swapped into this module's namespace (as
# perfbench's tracer does) sees every call.
_BLOCKS = {
    "data": {None: "from_csv"},
    "split": {"random": "split", "temporal": "split_temporal", "group": "split_group"},
    "cv": {"kfold": "cv", "temporal": "cv_temporal", "group": "cv_group"},
    "model": {None: "fit"},
    "screen": {None: "screen"},
    "tune": {None: "tune"},
    "stack": {None: "stack"},
    "report": {None: "evaluate"},
}

# Keys whose verb keyword has another name.
_KEYWORDS = {"k": "folds", "base": "base_algorithms", "meta": "meta_algorithm"}

# Parameters the runner passes itself, never block keys.
_CONTEXT = {"df", "test", "target", "registry"}


def _keys(name: str, kind) -> dict:
    """key -> (verb, parameter) for each key a block of this kind takes. A
    verb's first argument is what an earlier block made, so it is no key,
    except from_csv's file; the data block also names the target."""
    verb = globals()[_BLOCKS[name][kind]]
    first, *params = signature(verb).parameters.values()
    renamed = {param: key for key, param in _KEYWORDS.items()}
    keys = {renamed.get(p.name, p.name): (verb, p) for p in params if p.name not in _CONTEXT}
    if name == "data":
        target = signature(split).parameters["target"]
        return {"path": (verb, first), **keys, "target": (split, target)}
    return keys


def _check_block(name: str, block: Any, source: str) -> dict:
    """Check a block against its verb: its kind, that its kind takes every
    key given, the keys it requires and each value's type."""
    if not isinstance(block, dict):
        raise ConfigError(f"{source}: {name!r} must be a mapping")
    kinds = _BLOCKS[name]
    kind = next(iter(kinds))
    if kind is not None:
        kind = block.get("kind", kind)
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(
                f"{source}: {name} kind must be one of {list(kinds)}, "
                f"got {kind!r}{_line(block)}"
            )
    keys = _keys(name, kind)
    taken = set(keys) if kind is None else {"kind", *keys}
    stray = [key for key in block if key not in taken and key != _LINE_KEY]
    if stray:
        where = name if kind is None else f"{name} kind {kind!r}"
        raise ConfigError(
            f"{source}: {where} takes no key {stray[0]!r}{_line(block)}; "
            f"it takes {sorted(taken)}"
        )
    for key, (verb, param) in keys.items():
        if key in block:
            check_arguments(verb, {param.name: block[key]},
                            lambda _: f"{source}: {name}.{key}", _line(block))
        elif param.default is param.empty:
            raise ConfigError(f"{source}: {name} block requires {key!r}{_line(block)}")
    return _strip_lines(block)


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


def parse_workflow(text: str, source: str = "<workflow>") -> WorkflowSpec:
    """Parse and validate a workflow document. Every block is checked
    against the table before any data is read."""
    try:
        raw = yaml.load(text, Loader=_LineLoader)
    except yaml.YAMLError as exc:
        raise ParseError(f"{source}: invalid YAML: {exc}") from exc
    except ConfigError as exc:  # a repeated key
        raise ConfigError(f"{source}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: workflow must be a mapping at the top level")

    unknown = [k for k in raw if k not in _BLOCKS and k not in ("guards", "assess", _LINE_KEY)]
    if unknown:
        raise ConfigError(f"{source}: unknown workflow keys {unknown}{_line(raw)}")
    for name in ("data", "split"):
        if name not in raw:
            raise ConfigError(f"{source}: workflow requires a {name!r} block{_line(raw)}")
    data = _check_block("data", raw["data"], source)
    split_block = _check_block("split", raw["split"], source)

    modes = [m for m in MODE_BLOCKS if m in raw]
    if len(modes) != 1:
        raise ConfigError(
            f"{source}: workflow requires exactly one of {list(MODE_BLOCKS)}, "
            f"got {modes or 'none'}{_line(raw)}"
        )
    mode = modes[0]
    mode_block = _check_block(mode, raw[mode], source)

    cv_block = raw.get("cv")
    if cv_block is not None:
        cv_block = _check_block("cv", cv_block, source)
    elif mode != "model":
        raise ConfigError(
            f"{source}: the {mode!r} strategy requires a 'cv' block{_line(raw[mode])}"
        )

    report = raw.get("report")
    if not isinstance(report, dict):  # the metric names alone, or nothing
        report = {"metrics": report}
    metrics = _check_block("report", report, source).get("metrics")
    unknown = unknown_metrics(metrics or ())
    if unknown:  # checked here so the names fail before the data is read
        raise ConfigError(f"{source}: unknown metrics: {unknown}{_line(report)}")

    guards = raw.get("guards", "on")
    if isinstance(guards, bool):  # YAML 1.1 reads bare on/off as booleans
        guards = "on" if guards else "off"
    check_arguments(ProvenanceRegistry.set_guards, {"mode": guards}, lambda _: f"{source}: guards")

    repeats = raw.get("assess", True)
    if not isinstance(repeats, int) or repeats < 0:  # a boolean is 0 or 1
        raise ConfigError(
            f"{source}: assess must be a boolean or nonnegative integer, got {repeats!r}"
        )

    return WorkflowSpec(
        data=data,
        split=split_block,
        cv=cv_block,
        mode=mode,
        mode_block=mode_block,
        report_metrics=list(metrics) if metrics else None,
        guards=guards,
        assess_repeats=int(repeats),
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
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))


def _call(name: str, block: dict, first, **context):
    """Call the verb the table names for the block's kind, with the block's
    keys as keyword arguments."""
    kinds = _BLOCKS[name]
    verb = kinds[block.get("kind", next(iter(kinds)))]
    keys = {_KEYWORDS.get(k, k): v for k, v in block.items() if k != "kind"}
    return globals()[verb](first, **context, **keys)


def _ranking(result, rows: str) -> dict:
    return {
        rows: [list(row) for row in getattr(result, rows)],
        "best": result.best,
        "metric": result.metric,
    }


def execute_workflow(
    spec: WorkflowSpec, registry: ProvenanceRegistry | None = None
) -> RunReport:
    """Run a validated workflow in a fresh (or supplied) session registry."""
    check_arguments(execute_workflow, locals())
    reg = registry if registry is not None else ProvenanceRegistry()
    reg.set_guards(spec.guards)
    report = RunReport(guards_bypassed=not reg.guards_on)
    events = report.guard_events
    target = spec.data["target"]
    metrics = spec.report_metrics

    df = from_csv(spec.data["path"], spec.data.get("schema_hints"))
    events.append(["load", "ok"])

    partition = _call("split", spec.split, df, target=target, registry=reg)
    events.append(["split", "ok"])

    rotation = None
    if spec.cv is not None:
        rotation = _call("cv", spec.cv, partition, registry=reg)
        events.append(["cv", "ok"])

    block = spec.mode_block

    def committed_model():
        """Run the mode's verb; return the model this workflow commits to
        assessment and the verb's result."""
        first = partition.train if rotation is None else rotation
        result = _call(spec.mode, block, first, target=target, registry=reg)
        # screen and tune rank candidates; the winner is refit on dev.
        if spec.mode == "screen":
            algorithm = result.best
            hp = (block.get("hyperparameters") or {}).get(algorithm)
        elif spec.mode == "tune":
            algorithm, hp = block.get("algorithm"), result.best
        else:
            return result, result
        seed = {"seed": block["seed"]} if "seed" in block else {}
        winner = fit(
            partition.dev, target, algorithm=algorithm, hyperparameters=hp,
            registry=reg, **seed,
        )
        return winner, result

    model, result = committed_model()
    events.append([_BLOCKS[spec.mode][None], "ok"])
    if spec.mode == "model":
        report.cv_scores = model.scores_
    elif spec.mode == "screen":
        report.leaderboard = _ranking(result, "rows")
    elif spec.mode == "tune":
        report.tuning = _ranking(result, "trials")

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
    check_arguments(run_workflow, locals())
    return execute_workflow(load_workflow(path), registry=registry)


def classify_exit(exc: BaseException) -> int:
    """Map an error to the documented CLI exit codes.

    2: workflow file problems; 3: guard rejections; 4: data problems,
    including files that cannot be opened or decoded.
    """
    if isinstance(exc, ConfigError):
        return 2
    if isinstance(exc, (GuardError, PartitionError, RegistryError, CVError)):
        return 3
    if isinstance(exc, (ParseError, SchemaError, OSError, UnicodeDecodeError)):
        return 4
    if isinstance(exc, WorkflowError):
        return 4
    return 1

"""The fit and predict verbs.

fit is the only way a Model comes into existence, so predict-before-fit is
unrepresentable. Fitting a rotation schedule runs preparation per fold:
each fold's transformer sees only that fold's training rows, validation
rows are transformed with train-fitted statistics, and the returned model
is refit on the full dev set with a dev-fitted transformer.
"""

from __future__ import annotations

import json
from collections import ChainMap
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import learners
from .errors import ConfigError, SchemaError
from .frame import DataFrame, _as_floats
from .prepare import (
    PreparedData,
    Transformer,
    apply,
    encode_target,
    encode_target_with_classes,
    fit_transformer,
    infer_task,
    normalize_recipe,
)
from .registry import ProvenanceRegistry, resolve
from .rng import check_seed
from .rotate import CVResult, _materialize
from .scoring import CV_METRICS, score
from .signatures import check_arguments

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Predictions:
    """One numeric column: class-1 probabilities or point predictions."""

    values: tuple[float, ...]
    row_count: int


class Model:
    """A fitted learner with lifecycle state.

    `fitted` is true from construction. `assess_count` increments only via
    assess; the assess guard requires it to be zero. `scores_` holds mean
    cross-validated metrics when the model was fit from a rotation schedule.
    """

    def __init__(
        self,
        algorithm: str,
        task: str,
        state,
        transformer: Transformer,
        target: str,
        classes,
        hyperparameters: dict,
        seed: int,
        source_split_id: str | None,
        scores_: dict | None = None,
        guards_bypassed: bool = False,
        fold_transformers_: tuple = (),
    ):
        self.algorithm = algorithm
        self.task = task
        self.state = state
        self.transformer = transformer
        self.target = target
        self.classes = classes
        self.hyperparameters = dict(hyperparameters)
        self.seed = seed
        self.source_split_id = source_split_id
        self.scores_ = scores_
        self.fitted = True
        self.assess_count = 0
        self.guards_bypassed = guards_bypassed
        self.fold_transformers_ = fold_transformers_

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.transformer.feature_names

    @property
    def source_columns(self) -> tuple[str, ...]:
        return self.transformer.source_columns

    def __repr__(self) -> str:
        return (
            f"Model(algorithm={self.algorithm!r}, task={self.task!r}, "
            f"fitted={self.fitted}, assess_count={self.assess_count})"
        )


def _fold_seed(seed: int, fold_index: int) -> int:
    # Stable per-fold stream: determinism must not depend on fold schedule.
    return int(np.random.SeedSequence([int(seed), fold_index]).generate_state(1)[0])


def _require_finite(names, values: np.ndarray) -> np.ndarray:
    """`values`, one column or a (rows, `names`) matrix, when every cell is
    finite; else SchemaError naming the first column that is not. An inf
    input cell stays inf, or turns a standardized column into NaN."""
    bad = np.flatnonzero(~np.isfinite(values).all(axis=0))
    if len(bad):
        raise SchemaError(f"column {names[bad[0]]!r} holds a non-finite value after preparation")
    return values


def feature_matrix(prepared_frame: DataFrame, feature_names) -> np.ndarray:
    """The finite (rows, features) matrix every learner trains and predicts on."""
    # Keep this (features, rows) stack transposed, not column_stack: BLAS
    # rounding can depend on the memory layout of X.
    cols = [_as_floats(prepared_frame._col(n)) for n in feature_names]
    X = np.array(cols, dtype=np.float64).T if cols else np.empty((prepared_frame.row_count, 0))
    return _require_finite(feature_names, X)


def _train_on_prepared(prepared: PreparedData, algorithm: str, hp: dict, seed: int):
    X = feature_matrix(prepared.data, prepared.state.feature_names)
    y = np.asarray(prepared.data._col(prepared.target), dtype=np.float64)
    if X.shape[1] == 0:
        raise ConfigError("no feature columns left after preparation")
    _require_finite([prepared.target], y)
    return learners.train(algorithm, X, y, hp, seed, prepared.task)


def _resolve_algorithm(algorithm: str | None, task: str) -> str:
    if algorithm is None:
        return "logistic" if task == "classification" else "linear"
    return algorithm


def fit(
    data,
    target: str | None = None,
    algorithm: str | None = None,
    seed: int = 0,
    hyperparameters: Mapping | None = None,
    recipe: Sequence | None = None,
    registry: ProvenanceRegistry | None = None,
) -> Model:
    """Train a model on registered non-test data.

    Accepts a tagged DataFrame (train/valid/dev role), a CVResult, or
    PreparedData from an explicit prepare call. Rotation input yields a
    model whose `scores_` are honest per-fold cross-validation means and
    whose parameters come from a final refit on all dev rows. Unregistered
    frames are rejected while guards are on.
    """
    check_arguments(fit, locals())
    reg = resolve(registry)
    check_seed(seed)
    if isinstance(data, DataFrame):
        return _fit_frame(data, target, algorithm, seed, hyperparameters, recipe, reg)
    if isinstance(data, CVResult):
        return _fit_rotation(data, target, algorithm, seed, hyperparameters, recipe, reg)
    if isinstance(data, PreparedData):
        # Explicit mode: prepare registered its output under the source's role.
        record, bypassed = reg.admit(data.data, "fit")
        return _fit_prepared(data, algorithm, seed, hyperparameters, record, bypassed)
    raise TypeError(
        "fit expects a DataFrame, CVResult, or PreparedData, got "
        f"{type(data).__name__}"
    )


def _fit_frame(df, target, algorithm, seed, hyperparameters, recipe, reg) -> Model:
    if target is None:
        raise ConfigError("fit requires a target column name")
    record, bypassed = reg.admit(df, "fit")
    prepared = fit_transformer(df, target, recipe)
    return _fit_prepared(prepared, algorithm, seed, hyperparameters, record, bypassed)


def _fit_prepared(prepared: PreparedData, algorithm, seed, hyperparameters, record,
                  bypassed) -> Model:
    algorithm = _resolve_algorithm(algorithm, prepared.task)
    hp = learners.resolve_hyperparameters(algorithm, hyperparameters)
    return Model(
        algorithm=algorithm,
        task=prepared.task,
        state=_train_on_prepared(prepared, algorithm, hp, seed),
        transformer=prepared.state,
        target=prepared.target,
        classes=prepared.classes,
        hyperparameters=hp,
        seed=seed,
        source_split_id=record.split_id if record else None,
        scores_=None,
        guards_bypassed=bypassed,
    )


class _CrossValidation(NamedTuple):
    """What one pass over a rotation's folds produced, run by run."""

    target: str
    task: str
    classes: tuple | None
    recipe: tuple  # normalised preparation steps
    runs: list[tuple[str, dict]]  # resolved (algorithm, hyperparameters)
    scores: list[dict[str, float]]  # mean fold metrics per run
    fold_transformers: tuple[Transformer, ...]
    oof: np.ndarray  # (dev rows, runs) out-of-fold predictions, NaN where uncovered


def _pinned(value) -> bool:
    # Values whose type and repr fix what a learner does with them.
    return type(value) in (bool, int, float, str, type(None)) or isinstance(
        value, (np.bool_, np.number)
    )


def _run_key(target, recipe, seed, algorithm, hp) -> tuple | None:
    """The key a rotation remembers a cross-validated run under, or None
    when a hyperparameter value is not pinned by its type and repr (such a
    run is trained on every call)."""
    if not all(map(_pinned, hp.values())):
        return None
    values = tuple((name, type(v), repr(v)) for name, v in sorted(hp.items()))
    # Fold seeds depend on int(seed) only: see _fold_seed.
    return (target, recipe, int(seed), algorithm, values)


def _cross_validate(c, target, runs, seed, recipe, reg) -> _CrossValidation:
    """Cross-validate every (algorithm, hyperparameters) run on the
    rotation's folds.

    The target, the rotation's registration and every run's
    hyperparameters are checked on every call, before anything trains.
    A run's fold predictions depend only on the rotation and the run, so
    the rotation remembers each run it has cross-validated (`c._runs`:
    mean scores and out-of-fold column, plus one tuple of fold
    transformers per target and recipe) and only runs it has not seen
    train, in one fold-outer pass. Entries are written after the whole
    pass succeeds; callers get copies.
    """
    target = target or c.target
    if target != c.target:
        raise ConfigError(
            f"rotation was built for target {c.target!r}, not {target!r}"
        )
    dev = c._dev_frame
    reg.admit(dev, "fit")
    check_seed(seed)
    task = infer_task(dev._col(target))
    classes = None
    if task == "classification":
        # Class mapping comes from all dev rows so every fold encodes
        # consistently even when a fold-train slice misses a class.
        _, classes = encode_target(dev._col(target), task)
    resolved = []
    for algorithm, hyperparameters in runs:
        algorithm = _resolve_algorithm(algorithm, task)
        hp = learners.resolve_hyperparameters(algorithm, hyperparameters)
        learners.check_task(algorithm, task)
        resolved.append((algorithm, hp))
    recipe = tuple(
        (step, None if cols is None else tuple(cols))
        for step, cols in normalize_recipe(recipe)
    )

    memo = c._runs
    keys = [_run_key(target, recipe, seed, algorithm, hp) for algorithm, hp in resolved]
    # Each run still to train, once: under its key, or under its position
    # when it has none.
    pending: dict = {}
    for r, key in enumerate(keys):
        if key is None or key not in memo:
            pending.setdefault(r if key is None else key, r)
    fresh: dict = {}
    if pending:
        scores, oof, fold_transformers = _fold_pass(
            c, target, task, classes, recipe, [resolved[r] for r in pending.values()], seed
        )
        for j, key in enumerate(pending):
            fresh[key] = (scores[j], oof[:, j].copy())
        fresh[(target, recipe)] = fold_transformers
        memo.update((key, v) for key, v in fresh.items() if type(key) is tuple)
    found = ChainMap(fresh, memo)
    picked = [found[r if key is None else key] for r, key in enumerate(keys)]
    return _CrossValidation(
        target, task, classes, recipe, resolved,
        [dict(run_scores) for run_scores, _ in picked],
        found[(target, recipe)],
        np.column_stack([column for _, column in picked]),
    )


def _fold_pass(c, target, task, classes, recipe, runs, seed):
    """Train every run on each fold in turn, each fold prepared once, with
    the fold's seed, so a run scores exactly as it would alone.

    Returns per-run mean scores, the (dev rows, runs) out-of-fold matrix
    and the fold transformers.
    """
    fold_metrics: list[list[dict[str, float]]] = [[] for _ in runs]
    fold_transformers: list[Transformer] = []
    oof = np.full((c._dev_frame.row_count, len(runs)), np.nan)
    for fold_index, (train_idx, valid_idx) in enumerate(c.folds):
        prepared = fit_transformer(_materialize(c, train_idx), target, recipe, task=task)
        fold_valid = _materialize(c, valid_idx)
        X_valid = feature_matrix(
            apply(prepared.state, fold_valid), prepared.state.feature_names
        )
        y_valid = encode_target_with_classes(fold_valid._col(target), classes)
        fold_seed = _fold_seed(seed, fold_index)
        for r, (algorithm, hp) in enumerate(runs):
            preds = _train_on_prepared(prepared, algorithm, hp, fold_seed).predict(X_valid)
            fold_metrics[r].append(score(task, y_valid, preds, CV_METRICS[task]))
            oof[list(valid_idx), r] = preds
        fold_transformers.append(prepared.state)

    scores = [
        {name: float(np.mean([m[name] for m in metrics])) for name in metrics[0]}
        for metrics in fold_metrics
    ]
    return scores, oof, tuple(fold_transformers)


def _refit_on_dev(c, cvr: _CrossValidation, run: int, seed, reg) -> Model:
    """The deployable model of one cross-validated run: refit on every
    non-test row with dev-fitted preparation, carrying the run's scores."""
    algorithm, hp = cvr.runs[run]
    prepared_dev = fit_transformer(c._dev_frame, cvr.target, cvr.recipe, task=cvr.task)
    return Model(
        algorithm=algorithm,
        task=cvr.task,
        state=_train_on_prepared(prepared_dev, algorithm, hp, seed),
        transformer=prepared_dev.state,
        target=cvr.target,
        classes=cvr.classes,
        hyperparameters=hp,
        seed=seed,
        source_split_id=c.source_split_id,
        scores_=cvr.scores[run],
        guards_bypassed=not reg.guards_on,
        fold_transformers_=cvr.fold_transformers,
    )


def _fit_rotation(c, target, algorithm, seed, hyperparameters, recipe, reg) -> Model:
    cvr = _cross_validate(c, target, [(algorithm, hyperparameters)], seed, recipe, reg)
    return _refit_on_dev(c, cvr, 0, seed, reg)


def require_model(m, verb: str) -> None:
    """TypeError unless `m` is a fitted Model or StackedModel."""
    from .strategy import StackedModel  # circular at import time only

    if not isinstance(m, (Model, StackedModel)):
        raise TypeError(f"{verb} requires a fitted Model, got {type(m).__name__}")


def predict(m, df: DataFrame) -> Predictions:
    """Apply a fitted model to any frame covering its fitted features.

    The only guard is that the model is fitted; predictions carry no
    provenance and feed no guarded verb.
    """
    require_model(m, "predict")
    if not isinstance(df, DataFrame):
        raise TypeError("predict expects a DataFrame")
    values = predict_values(m, df)
    return Predictions(values=tuple(float(v) for v in values), row_count=df.row_count)


def predict_values(m, df: DataFrame) -> np.ndarray:
    """Raw numeric predictions shared by predict, the scorer and strategies:
    the fitted transformer, its feature matrix, then the learner (each base
    model's, then the meta learner, for a StackedModel)."""
    from .strategy import StackedModel

    if isinstance(m, StackedModel):
        base = np.column_stack([predict_values(b, df) for b in m.base])
        out = np.asarray(m.meta.predict(base), dtype=np.float64)
    else:
        X = feature_matrix(apply(m.transformer, df), m.transformer.feature_names)
        out = np.asarray(m.state.predict(X), dtype=np.float64)
    if m.task == "classification":
        out = np.clip(out, 0.0, 1.0)
    return out


def model_to_dict(m: Model) -> dict:
    """Serialize a fitted model, lifecycle flags included.

    Deserialization restores `assess_count` from the document but never
    touches the session registry: the per-holdout assessed flag lives only
    in the registry and a reloaded model cannot reopen a spent holdout
    within the same session.
    """
    if not isinstance(m, Model):
        raise TypeError("model_to_dict expects a Model")
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "algorithm": m.algorithm,
        "task": m.task,
        "target": m.target,
        "classes": list(m.classes) if m.classes is not None else None,
        "hyperparameters": m.hyperparameters,
        "seed": m.seed,
        "source_split_id": m.source_split_id,
        "scores_": m.scores_,
        "assess_count": m.assess_count,
        "guards_bypassed": m.guards_bypassed,
        "transformer": m.transformer.to_dict(),
        "learner": m.state.to_dict(),
    }


def model_from_dict(d: dict) -> Model:
    version = d.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ConfigError(f"unsupported model document version {version!r}")
    classes = tuple(d["classes"]) if d.get("classes") is not None else None
    m = Model(
        algorithm=d["algorithm"],
        task=d["task"],
        state=learners.state_from_dict(d["algorithm"], d["learner"]),
        transformer=Transformer.from_dict(d["transformer"]),
        target=d["target"],
        classes=classes,
        hyperparameters=d["hyperparameters"],
        seed=d["seed"],
        source_split_id=d.get("source_split_id"),
        scores_=d.get("scores_"),
        guards_bypassed=bool(d.get("guards_bypassed", False)),
    )
    m.assess_count = int(d.get("assess_count", 0))
    return m


def model_to_json(m: Model) -> str:
    return json.dumps(model_to_dict(m), sort_keys=True)


def model_from_json(text: str) -> Model:
    return model_from_dict(json.loads(text))


def encode_eval_target(m, df: DataFrame) -> np.ndarray:
    if m.target not in df.column_names:
        raise SchemaError(f"frame lacks the target column {m.target!r}")
    return _require_finite([m.target], encode_target_with_classes(df._col(m.target), m.classes))

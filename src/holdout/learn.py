"""The fit and predict verbs.

fit is the only way a Model comes into existence, so predict-before-fit is
unrepresentable. Fitting a rotation schedule runs preparation per fold:
each fold's transformer sees only that fold's training rows, validation
rows are transformed with train-fitted statistics, and the returned model
is refit on the full dev set with a dev-fitted transformer.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
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
    fit_transformer,
    normalize_recipe,
    target_encoding,
)
from .registry import ProvenanceRegistry, resolve
from .rng import fold_seed
from .rotate import CVResult, _materialize
from .scoring import CV_METRICS, score
from .signatures import Count, check_arguments, check_document

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Predictions:
    """One numeric column: class-1 probabilities or point predictions."""

    values: tuple[float, ...]
    row_count: int


@dataclass(eq=False)  # identity equality and hashing
class Model:
    """A fitted learner with lifecycle state.

    `fitted` is true from construction. `assess_count` increments only via
    assess; the assess guard requires it to be zero. `scores_` holds mean
    cross-validated metrics when the model was fit from a rotation schedule.
    """

    algorithm: str
    task: str
    state: object  # the learner's state, one of learners.LEARNERS' state types
    transformer: Transformer
    target: str
    classes: tuple | None
    hyperparameters: dict
    seed: int
    source_split_id: str | None
    scores_: dict | None = None
    guards_bypassed: bool = False
    fold_transformers_: tuple = ()
    fitted: bool = field(default=True, init=False)
    assess_count: int = field(default=0, init=False)

    def __post_init__(self):
        self.hyperparameters = dict(self.hyperparameters)

    @property
    def source_columns(self) -> tuple[str, ...]:
        return self.transformer.source_columns

    def __repr__(self) -> str:
        return (
            f"Model(algorithm={self.algorithm!r}, task={self.task!r}, "
            f"fitted={self.fitted}, assess_count={self.assess_count})"
        )


@dataclass(eq=False)  # identity equality and hashing
class StackedModel:
    """Base models plus a meta learner trained on out-of-fold predictions.

    Obeys the same assess-once lifecycle as Model: assessment increments
    `assess_count` and spends the holdout.
    """

    base: tuple[Model, ...]
    meta: object  # the meta learner's state
    base_algorithms: tuple[str, ...]
    task: str
    target: str
    source_split_id: str | None
    classes: tuple | None = None
    guards_bypassed: bool = False
    fitted: bool = field(default=True, init=False)
    assess_count: int = field(default=0, init=False)

    @property
    def source_columns(self) -> tuple[str, ...]:
        return self.base[0].source_columns

    def __repr__(self) -> str:
        return (
            f"StackedModel(base={list(self.base_algorithms)}, "
            f"assess_count={self.assess_count})"
        )


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
    data: DataFrame | CVResult | PreparedData,
    target: str | None = None,
    algorithm: str | None = None,
    seed: Count = 0,
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
    if isinstance(data, DataFrame):
        return _fit_frame(data, target, algorithm, seed, hyperparameters, recipe, reg)
    if isinstance(data, CVResult):
        return _fit_rotation(data, target, algorithm, seed, hyperparameters, recipe, reg)
    if isinstance(data, PreparedData):
        # Explicit mode: prepare registered its output under the source's role.
        record, bypassed = reg.admit(data.data, "fit")
        return _fit_prepared(data, algorithm, seed, hyperparameters,
                             getattr(record, "split_id", None), bypassed)


def _fit_frame(df, target, algorithm, seed, hyperparameters, recipe, reg) -> Model:
    if target is None:
        raise ConfigError("fit requires a target column name")
    record, bypassed = reg.admit(df, "fit")
    prepared = fit_transformer(df, target, recipe)
    return _fit_prepared(prepared, algorithm, seed, hyperparameters,
                         getattr(record, "split_id", None), bypassed)


def _fit_prepared(prepared: PreparedData, algorithm, seed, hyperparameters, split_id,
                  bypassed, scores=None, fold_transformers=()) -> Model:
    """The one place a trained Model is built."""
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
        source_split_id=split_id,
        scores_=scores,
        guards_bypassed=bypassed,
        fold_transformers_=fold_transformers,
    )


class _CrossValidation(NamedTuple):
    """What one pass over a rotation's folds produced, run by run."""

    target: str
    task: str
    classes: tuple | None
    y: np.ndarray  # dev rows' labels under (task, classes)
    recipe: tuple  # normalised preparation steps
    runs: list[tuple[str, dict]]  # resolved (algorithm, hyperparameters)
    scores: list[dict[str, float]]  # mean fold metrics per run
    fold_transformers: tuple[Transformer, ...]
    oof: np.ndarray  # (dev rows, runs) out-of-fold predictions, NaN where uncovered
    bypassed: bool  # what the registry's admission of the dev frame returned


def _run_key(target, recipe, seed, algorithm, hp) -> tuple:
    """The key a rotation remembers a cross-validated run under. A
    hyperparameter is a number or a named choice, so its type and repr pin
    what a learner does with it."""
    values = tuple((name, type(v), repr(v)) for name, v in sorted(hp.items()))
    # Fold seeds depend on int(seed) only: see rng.fold_seed.
    return (target, recipe, int(seed), algorithm, values)


def _cross_validate(c, target, runs, seed, recipe, registry) -> _CrossValidation:
    """Cross-validate every (algorithm, hyperparameters) run on the
    rotation's folds.

    The target, the rotation's registration and every run's
    hyperparameters are checked on every call, before anything trains.
    A run's fold predictions depend only on the rotation and the run, so
    the rotation remembers each run it has cross-validated (`c._runs`, one
    entry per run: mean scores, out-of-fold column and the fold
    transformers its pass shares) and only runs it has not seen train, in
    one fold-outer pass. Entries are written after the whole pass
    succeeds; callers get copies.
    """
    target = target or c.target
    if target != c.target:
        raise ConfigError(
            f"rotation was built for target {c.target!r}, not {target!r}"
        )
    dev = c._dev_frame
    _, bypassed = resolve(registry).admit(dev, "fit")
    # Every fold trains and validates under the dev rows' mapping, even
    # when its training rows miss a class.
    task, classes = target_encoding(dev._col(target))
    y = encode_target(dev._col(target), classes)
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

    keys = [_run_key(target, recipe, seed, algorithm, hp) for algorithm, hp in resolved]
    pending = {key: run for key, run in zip(keys, resolved) if key not in c._runs}
    if pending:  # each run not seen yet, once
        entries = _fold_pass(c, target, task, classes, y, recipe, list(pending.values()), seed)
        c._runs.update(zip(pending, entries))
    scores, columns, fold_transformers = zip(*(c._runs[key] for key in keys))
    return _CrossValidation(
        target, task, classes, y, recipe, resolved,
        [dict(run_scores) for run_scores in scores],
        fold_transformers[0],  # the runs share target and recipe
        np.column_stack(columns),
        bypassed,
    )


def _fold_pass(c, target, task, classes, y, recipe, runs, seed) -> list[tuple]:
    """Train every run on each fold in turn, each fold prepared once, with
    the fold's seed, so a run scores exactly as it would alone.

    Returns each run's memo entry: its mean scores, its out-of-fold column
    (NaN where no fold validates a row) and the pass's fold transformers.
    """
    fold_metrics: list[list[dict[str, float]]] = [[] for _ in runs]
    fold_transformers: list[Transformer] = []
    oof = [np.full(c._dev_frame.row_count, np.nan) for _ in runs]
    for fold_index, (train_idx, valid_idx) in enumerate(c._folds):
        prepared = fit_transformer(_materialize(c, train_idx), target, recipe, (task, classes))
        fold_valid = _materialize(c, valid_idx)
        X_valid = feature_matrix(
            apply(prepared.state, fold_valid), prepared.state.feature_names
        )
        y_valid = y[valid_idx]
        seed_of_fold = fold_seed(seed, fold_index)
        for r, (algorithm, hp) in enumerate(runs):
            preds = _train_on_prepared(prepared, algorithm, hp, seed_of_fold).predict(X_valid)
            fold_metrics[r].append(score(task, y_valid, preds, CV_METRICS[task]))
            oof[r][valid_idx] = preds
        fold_transformers.append(prepared.state)

    shared = tuple(fold_transformers)
    return [
        ({name: float(np.mean([m[name] for m in metrics])) for name in metrics[0]}, column, shared)
        for metrics, column in zip(fold_metrics, oof)
    ]


def _refit_on_dev(c, cvr: _CrossValidation, run: int, seed) -> Model:
    """The deployable model of one cross-validated run: refit on every
    non-test row with dev-fitted preparation, carrying the run's scores."""
    algorithm, hp = cvr.runs[run]
    prepared = fit_transformer(c._dev_frame, cvr.target, cvr.recipe, (cvr.task, cvr.classes))
    return _fit_prepared(prepared, algorithm, seed, hp, c.source_split_id, cvr.bypassed,
                         cvr.scores[run], cvr.fold_transformers)


def _fit_rotation(c, target, algorithm, seed, hyperparameters, recipe, reg) -> Model:
    cvr = _cross_validate(c, target, [(algorithm, hyperparameters)], seed, recipe, reg)
    return _refit_on_dev(c, cvr, 0, seed)


def predict(m: Model | StackedModel, df: DataFrame) -> Predictions:
    """Apply a fitted model to any frame covering its fitted features.

    The only guard is that the model is fitted; predictions carry no
    provenance and feed no guarded verb.
    """
    check_arguments(predict, locals())
    values = predict_values(m, df)
    return Predictions(values=tuple(float(v) for v in values), row_count=df.row_count)


def predict_values(m, df: DataFrame) -> np.ndarray:
    """Raw numeric predictions shared by predict, the scorer and strategies:
    the fitted transformer, its feature matrix, then the learner (each base
    model's, then the meta learner, for a StackedModel)."""
    if isinstance(m, StackedModel):
        base = np.column_stack([predict_values(b, df) for b in m.base])
        out = np.asarray(m.meta.predict(base), dtype=np.float64)
    else:
        X = feature_matrix(apply(m.transformer, df), m.transformer.feature_names)
        out = np.asarray(m.state.predict(X), dtype=np.float64)
    if m.task == "classification":
        out = np.clip(out, 0.0, 1.0)
    return out


def _plain(value):
    """A numpy scalar as the Python number it holds, which json can write."""
    return value.item() if isinstance(value, np.generic) else value


def model_to_dict(m: Model) -> dict:
    """Serialize a fitted model, lifecycle flags included.

    Deserialization restores `assess_count` from the document but never
    touches the session registry: the per-holdout assessed flag lives only
    in the registry and a reloaded model cannot reopen a spent holdout
    within the same session.
    """
    check_arguments(model_to_dict, locals())
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "algorithm": m.algorithm,
        "task": m.task,
        "target": m.target,
        "classes": list(m.classes) if m.classes is not None else None,
        "hyperparameters": {k: _plain(v) for k, v in m.hyperparameters.items()},
        "seed": _plain(m.seed),
        "source_split_id": m.source_split_id,
        "scores_": m.scores_,
        "assess_count": m.assess_count,
        "guards_bypassed": m.guards_bypassed,
        "transformer": m.transformer.to_dict(),
        "learner": m.state.to_dict(),
    }


@dataclass(frozen=True)
class ModelDocument:
    """The keys of a `model_to_dict` document; one with a default may be left out."""

    format_version: int
    algorithm: str
    task: str
    target: str
    hyperparameters: Mapping
    seed: Count
    transformer: Mapping  # see Transformer.from_dict
    learner: Mapping  # see learners.state_from_dict
    classes: Sequence | None = None
    source_split_id: str | None = None
    scores_: Mapping | None = None
    assess_count: Count = 0  # the assess guard refuses a model above 0
    guards_bypassed: bool = False


def model_from_dict(d: Mapping) -> Model:
    """The model `model_to_dict` wrote; ConfigError for a document that is
    not JSON data (NaN and infinities are not) or differs from its declarations."""
    if isinstance(d, Mapping) and d.get("format_version") != MODEL_FORMAT_VERSION:
        raise ConfigError(f"unsupported model document version {d.get('format_version')!r}")
    check_document(ModelDocument, d, "model document")
    try:
        json.dumps(d, allow_nan=False)
    except (TypeError, ValueError, RecursionError) as e:
        raise ConfigError(f"a model document must be JSON data: {e}") from None
    doc = ModelDocument(**d)
    pair = doc.classes is not None and len(doc.classes) == 2 and all(
        isinstance(c, (str, int, float)) for c in doc.classes)  # a bool is an int
    if not {"classification": pair, "regression": doc.classes is None}.get(doc.task):
        raise ConfigError("a model document needs task 'classification' and a pair of classes "
                          "(strings, numbers or booleans), or task 'regression' and classes null; "
                          f"got {reprlib.repr(doc.task)} and {reprlib.repr(doc.classes)}")
    if doc.learner.get("task", doc.task) != doc.task:
        raise ConfigError(f"a {doc.task} model document has a learner of task "
                          f"{reprlib.repr(doc.learner['task'])}")
    learners.check_task(doc.algorithm, doc.task)
    # Checked as a verb's would be; the model keeps the document's own mapping.
    hp = learners.resolve_hyperparameters(doc.algorithm, doc.hyperparameters)
    transformer = Transformer.from_dict(doc.transformer)
    state = learners.state_from_dict(doc.algorithm, doc.learner, len(transformer.feature_names))
    for name in hp.keys() & doc.learner.keys():
        if hp[name] != doc.learner[name]:
            raise ConfigError(f"hyperparameter {name!r} is {reprlib.repr(hp[name])}, but the "
                              f"learner document records {reprlib.repr(doc.learner[name])}")
    m = Model(
        algorithm=doc.algorithm,
        task=doc.task,
        state=state,
        transformer=transformer,
        target=doc.target,
        classes=tuple(doc.classes) if doc.classes is not None else None,
        hyperparameters=doc.hyperparameters,
        seed=doc.seed,
        source_split_id=doc.source_split_id,
        scores_=doc.scores_,
        guards_bypassed=doc.guards_bypassed,
    )
    m.assess_count = doc.assess_count
    return m


def model_to_json(m: Model) -> str:
    return json.dumps(model_to_dict(m), sort_keys=True)


def model_from_json(text: str) -> Model:
    try:
        d = json.loads(text)
    except (TypeError, ValueError, RecursionError) as e:  # not JSON, or nested too deep
        raise ConfigError(f"a model document must be JSON text: {e}") from None
    return model_from_dict(d)


def encode_eval_target(m, df: DataFrame) -> np.ndarray:
    if m.target not in df.column_names:
        raise SchemaError(f"frame lacks the target column {m.target!r}")
    return _require_finite([m.target], encode_target(df._col(m.target), m.classes))

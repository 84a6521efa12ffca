"""Model-dependent data preparation fitted strictly on the frame it is given.

A Transformer captures fit-time statistics (means, stddevs, category lists)
and can later be applied to any frame with a compatible schema using only
those statistics. Fitting per fold inside the training loop is what keeps
validation rows out of the statistics.

Numeric steps run on float64 arrays, and their results equal, bit for bit,
the per-cell Python arithmetic the statistics are defined by:

- a mean is the left-to-right float sum of the present values in row
  order, divided by their count (numpy's pairwise `sum` rounds otherwise);
- the population variance sums, left to right, `d * d` for each
  deviation `d = v - mean`: one correctly rounded IEEE multiply, so no
  libm decides it (libm `pow`, behind Python's `d ** 2`, is not correctly
  rounded and differs in the last bit on a few values; see the README);
- a finite column whose sum or squared deviations overflow float64 is a
  data error naming the column; a column holding ±inf keeps inf/NaN
  statistics;
- elementwise `v - mean`, `/ std` and imputation are single IEEE operations.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import Any, Literal, Mapping, Sequence

import numpy as np

from .errors import ConfigError, SchemaError
from .frame import (
    Coded,
    Column,
    DataFrame,
    _as_floats,
    _cell,
    _first_appearance,
    _lookup,
    _missing,
    _readonly,
    _recode,
    fingerprint,
)
from .registry import ProvenanceRegistry, resolve
from .signatures import _is_number, check_arguments, check_document


# Each step kind, with what a model document holds for each column it fitted.
_STEP_PARAMS = {
    "impute_mean": ("a number", _is_number),
    "one_hot": ("a list of strings", lambda v: type(v) is list and all(type(c) is str for c in v)),
    "standardize": ("a pair of numbers",
                    lambda v: type(v) is list and len(v) == 2 and all(map(_is_number, v))),
}
STEP_KINDS = tuple(_STEP_PARAMS)
DEFAULT_RECIPE = ("impute_mean", "one_hot", "standardize")
ONE_HOT_SEPARATOR = "="
CLASSIFICATION_MAX_CLASSES = 20


@dataclass(frozen=True)
class Step:
    """One fitted preparation step.

    params maps column name to the fitted state: a mean for impute_mean,
    a (mean, stddev) pair for standardize, an ordered category list for
    one_hot.
    """

    kind: Literal[STEP_KINDS]
    params: Mapping[str, Any]

    def to_dict(self) -> dict:
        params = {
            col: list(v) if isinstance(v, (tuple, list)) else v
            for col, v in self.params.items()
        }
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_dict(cls, d) -> "Step":
        check_document(cls, d, "preparation step")
        kind, params = d["kind"], d["params"]
        what, fits = _STEP_PARAMS[kind]
        for col, v in params.items():
            if not fits(v):
                raise ConfigError(f"{kind} params of column {col!r} must be {what}, "
                                  f"got {reprlib.repr(v)}")
        return cls(kind, {col: tuple(v) if isinstance(v, list) else v for col, v in params.items()})


@dataclass(frozen=True)
class Transformer:
    """Ordered fitted steps plus the feature schema they expect and produce."""

    steps: Sequence[Step]  # held as tuples
    source_columns: Sequence[str]
    feature_names: Sequence[str]

    def to_dict(self) -> dict:
        return {
            "steps": [s.to_dict() for s in self.steps],
            "source_columns": list(self.source_columns),
            "feature_names": list(self.feature_names),
        }

    @classmethod
    def from_dict(cls, d) -> "Transformer":
        """The transformer `to_dict` wrote, its steps run as `apply` runs
        them over no rows of `source_columns`: ConfigError when a step names
        a column absent at that step, or they end in other `feature_names`."""
        check_document(cls, d, "model document",
                       lambda key: f"model document key 'transformer' is malformed: {key!r}")
        t = cls(tuple(map(Step.from_dict, d["steps"])), tuple(d["source_columns"]),
                tuple(d["feature_names"]))
        names = t.source_columns
        if not (names and t.feature_names) or len(set(names)) < len(names):
            raise ConfigError(f"a transformer needs distinct source_columns, got {list(names)}")
        working = _Working(DataFrame({c: () for c in names}), names)
        for step in t.steps:
            _apply_step(step, working)
        if tuple(working.order) != t.feature_names:
            raise ConfigError(f"the steps turn source_columns into {working.order}, "
                              f"not feature_names {list(t.feature_names)}")
        return t


@dataclass(frozen=True)
class PreparedData:
    """All-numeric, missing-free frame plus the Transformer that made it.

    The target column is present in `data` (encoded 0/1 for classification)
    but never contributes to any transformation statistic.
    """

    data: DataFrame
    state: Transformer
    target: str
    task: str
    classes: tuple | None = None


class _Working:
    """Feature columns part-way through a recipe.

    A column is a float64 array or a coded column (int, mixed and text).
    `missing` maps each column to its mask of missing cells, or None when
    no cell is missing: arithmetic on infinities also yields NaN, and such
    a value is present.
    """

    def __init__(self, df: DataFrame, names: Sequence[str]):
        self.order = list(names)
        self.values: dict[str, Column] = {}
        self.missing: dict[str, np.ndarray | None] = {}
        for name in names:
            col = df._col(name)
            if isinstance(col, Coded) and bool in set(map(type, col.values)):
                # Bool cells become 0.0/1.0 before any step runs.
                col = _recode(col, lambda v: float(v) if type(v) is bool else v)
            mask = _missing(col)
            self.set(name, col, mask if mask.any() else None)

    def set(self, name: str, col: Column, mask: np.ndarray | None) -> None:
        self.values[name], self.missing[name] = col, mask

    def kind(self, name: str) -> str:
        col = self.values[name]
        if isinstance(col, np.ndarray):
            return "numeric"
        types = set(map(type, col.values[:-1]))
        text = {t for t in types if issubclass(t, str)}
        if not text:
            return "numeric"
        if types - text:
            raise ConfigError(
                f"column {name!r} mixes text and numeric values; "
                "cannot prepare it coherently"
            )
        return "categorical"

    def floats(self, name: str) -> tuple[np.ndarray, np.ndarray | None]:
        """A numeric column as float64 plus its missing mask; a coded column
        converts each dictionary entry once with `float(v)`. Text is refused:
        it reaches here only in a column that was numeric at fit time."""
        col = self.values[name]
        if isinstance(col, Coded) and any(isinstance(v, str) for v in col.values):
            raise SchemaError(f"column {name!r} was numeric at fit time but holds text")
        return _as_floats(col), self.missing[name]

    def validate(self) -> None:
        """Reject a result that still holds missing or text cells."""
        for name in self.order:
            if self.missing[name] is not None:
                raise ConfigError(
                    f"recipe leaves missing values in column {name!r}; "
                    "add an impute_mean step"
                )
            col = self.values[name]
            if isinstance(col, Coded) and any(isinstance(v, str) for v in col.values):
                raise ConfigError(
                    f"recipe leaves categorical column {name!r} unencoded; "
                    "add a one_hot step"
                )

    def frame(self, extra: list[tuple[str, np.ndarray]], tag: str) -> DataFrame:
        names = self.order + [name for name, _ in extra]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        columns = [self.values[n] for n in self.order] + [v for _, v in extra]
        for col in columns:
            if isinstance(col, np.ndarray):
                _readonly(col)
        return DataFrame._from_storage(names, columns, tag)


def _present(values: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return values if mask is None else values[~mask]


def _sum(values: np.ndarray) -> float:
    """Left-to-right float sum of a nonempty array, starting from 0.0: builtin
    `sum` up to Python 3.11 (3.12's compensates rounding). `+ 0.0` makes a
    sum of negative zeros 0.0, as 0.0 + -0.0 is."""
    with np.errstate(all="ignore"):  # Python float addition never warns
        return float(np.cumsum(values)[-1]) + 0.0


def _mean(name: str, present: np.ndarray) -> float:
    if not len(present):
        return 0.0
    total = _sum(present)
    if not math.isfinite(total) and np.isfinite(present).all():
        raise SchemaError(
            f"column {name!r} is too large to average: the sum of its values "
            "overflows float64"
        )
    return total / len(present)


def _mean_std(name: str, present: np.ndarray) -> tuple[float, float]:
    if not len(present):
        return 0.0, 0.0
    m = _mean(name, present)
    # One IEEE multiply per deviation, not pow: see the module docstring.
    with np.errstate(all="ignore"):  # Python float arithmetic never warns
        deviations = present - m
        squares = deviations * deviations
    total = _sum(squares)
    if not math.isfinite(total) and (
        np.isinf(squares) & np.isfinite(deviations)
    ).any():
        raise SchemaError(
            f"column {name!r} is too spread out to standardize: its squared "
            "deviations overflow float64"
        )
    return m, math.sqrt(total / len(present))  # population variance


def normalize_recipe(recipe) -> list[tuple[str, list[str] | None]]:
    """Accept step names or (name, columns) pairs; None columns means
    'every applicable column at that stage'."""
    if recipe is None:
        recipe = DEFAULT_RECIPE
    out = []
    for entry in recipe:
        if isinstance(entry, str):
            entry = (entry, None)
        elif isinstance(entry, Mapping):
            stray = [key for key in entry if key not in ("step", "columns")]
            if stray:
                raise ConfigError(f"a recipe step takes 'step' and 'columns', not {stray[0]!r}")
            entry = (entry.get("step"), entry.get("columns"))
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ConfigError(
                "a recipe entry is a step name, a (step, columns) pair or a "
                f"mapping with 'step' and 'columns', got {entry!r}"
            )
        name, cols = entry
        if name not in STEP_KINDS:
            raise ConfigError(f"unknown preparation step {name!r}")
        if cols is not None:
            if not isinstance(cols, (list, tuple)):
                raise ConfigError(f"columns of step {name!r} must be a list, got {cols!r}")
            cols = [str(c) for c in cols]
        out.append((name, cols))
    if not out:
        raise ConfigError("recipe must contain at least one step")
    return out


def _apply_step(step: Step, working: _Working) -> None:
    absent = [col for col in step.params if col not in working.values]
    if absent:  # only a malformed model document names one
        raise ConfigError(f"{step.kind} params name columns absent at that step: {absent}")
    if step.kind == "impute_mean":
        for col, mean in step.params.items():
            values, mask = working.floats(col)
            if mask is not None:
                values = np.where(mask, mean, values)
            working.set(col, values, None)
        return
    if step.kind == "standardize":
        for col, (mean, std) in step.params.items():
            values, mask = working.floats(col)
            if std == 0.0:
                out = np.zeros(len(values))
                if mask is not None:
                    out[mask] = math.nan
            else:
                with np.errstate(all="ignore"):
                    out = (values - mean) / std  # missing stays NaN
            working.set(col, out, mask)
        return
    # one_hot: replace each source column with its indicator block in place;
    # unseen and missing values encode as all zeros. Each column is coded
    # once, then every category's indicator is one comparison.
    new_order: list[str] = []
    for name in working.order:
        if name not in step.params:
            new_order.append(name)
            continue
        categories = step.params[name]
        index = {cat: k for k, cat in enumerate(categories)}
        codes = _lookup(working.values.pop(name), index, -1)
        del working.missing[name]
        for cat in categories:
            col_name = f"{name}{ONE_HOT_SEPARATOR}{cat}"
            working.set(col_name, (codes == index[cat]).astype(np.float64), None)
            new_order.append(col_name)
    working.order = new_order


def infer_task(col: Column) -> str:
    if isinstance(col, Coded):
        present = set(col.values[:-1])  # 1, 1.0 and True are one class
        if any(isinstance(v, str) for v in present) or present and all(
            isinstance(v, bool) for v in present
        ):
            return "classification"
        distinct = len(present)
    else:
        distinct = len(np.unique(col[~np.isnan(col)]))
    return "classification" if 0 < distinct <= CLASSIFICATION_MAX_CLASSES else "regression"


def target_encoding(col: Column) -> tuple[str, tuple | None]:
    """The one decision of a target's encoding: its task and, for
    classification, its class mapping. Classes sort by repr, each named by
    its first cell in row order (1, 1.0 and True are one class); a lone
    class fills both places."""
    task = infer_task(col)
    if task == "regression":
        return task, None
    classes = sorted(_first_appearance(col), key=repr)
    if len(classes) > 2:
        raise ConfigError(
            f"classification supports exactly 2 classes, got {len(classes)}"
        )
    return task, (classes[0], classes[-1])


def encode_target(col: Column, classes: tuple | None) -> np.ndarray:
    """A target column's labels under a `target_encoding` mapping: regression
    values raw, `classes[0]` 0.0 and `classes[1]` 1.0, so a lone class 0.0."""
    if _missing(col).any():
        raise SchemaError("target column has missing values")
    if classes is None:
        return _as_floats(col)
    encoded = _lookup(col, {classes[1]: 1.0, classes[0]: 0.0}, math.nan)
    unseen = np.flatnonzero(np.isnan(encoded))
    if len(unseen):
        value = _cell(col, unseen[0])
        raise SchemaError(f"target value {value!r} was not seen at fit time")
    return encoded


def fit_transformer(
    df: DataFrame, target: str, recipe=None, encoding: tuple[str, tuple | None] | None = None
) -> PreparedData:
    """Fit a recipe on a frame without any registry guard (interior use); the
    target's (task, classes) `encoding` defaults to its `target_encoding`."""
    if target not in df.column_names:
        raise SchemaError(f"target column {target!r} not in frame")
    if len(df.column_names) < 2:
        raise ConfigError("frame has no feature columns besides the target")
    # Fit every step in order on the working copy and apply it in place.
    source = [n for n in df.column_names if n != target]
    working = _Working(df, source)
    fitted: list[Step] = []
    for step_name, wanted in normalize_recipe(recipe):
        wanted_kind = "categorical" if step_name == "one_hot" else "numeric"
        applicable = [n for n in working.order if working.kind(n) == wanted_kind]
        if wanted is not None:
            missing = [c for c in wanted if c not in working.order]
            if missing:
                raise ConfigError(f"step {step_name!r} names absent columns: {missing}")
            bad = [c for c in wanted if c not in applicable]
            if bad:
                raise ConfigError(
                    f"step {step_name!r} does not apply to columns {bad}"
                )
            applicable = [n for n in working.order if n in wanted]
        params: dict[str, Any] = {}
        for col in applicable:
            if step_name == "one_hot":
                # Category order: first appearance in this frame.
                params[col] = tuple(_first_appearance(working.values[col]))
            elif step_name == "impute_mean":
                params[col] = _mean(col, _present(*working.floats(col)))
            else:
                params[col] = _mean_std(col, _present(*working.floats(col)))
        fitted.append(Step(kind=step_name, params=params))
        _apply_step(fitted[-1], working)
    transformer = Transformer(tuple(fitted), tuple(source), tuple(working.order))
    y = df._col(target)
    task, classes = encoding or target_encoding(y)
    encoded = encode_target(y, classes)
    working.validate()
    data = working.frame([(target, encoded)], df.partition_tag)
    return PreparedData(
        data=data, state=transformer, target=target, task=task, classes=classes
    )


def prepare(
    df: DataFrame,
    target: str,
    recipe: Sequence | None = None,
    registry: ProvenanceRegistry | None = None,
) -> PreparedData:
    """Fit a preparation recipe on a registered non-test frame.

    The default recipe imputes numeric missing values with the column mean,
    one-hot encodes categoricals in first-appearance order, then
    standardizes numerics with the population stddev. With guards on, the
    prepared frame is registered under its source's role and split, so
    `fit` admits it, and carries its lineage, like any partition.
    """
    check_arguments(prepare, locals())
    reg = resolve(registry)
    record, bypassed = reg.admit(df, "prepare")
    prepared = fit_transformer(df, target, recipe)
    if not bypassed:
        reg.register(fingerprint(prepared.data), record.role, record.split_id)
    return prepared


def apply(t: Transformer, df: DataFrame) -> DataFrame:
    """Transform a frame using fit-time statistics only.

    The frame must contain every fitted source column; extra columns are
    ignored. Missing numerics impute with the fit-time mean, categories
    unseen at fit time one-hot to all zeros, and the output is deterministic:
    two calls give byte-identical frames.
    """
    check_arguments(apply, locals())
    missing = [c for c in t.source_columns if c not in df.column_names]
    if missing:
        raise SchemaError(f"frame lacks fitted columns: {missing}")
    working = _Working(df, t.source_columns)
    for step in t.steps:
        _apply_step(step, working)
    # Any survivor of the fitted pipeline that is still missing had no
    # impute step; fail the same way fitting would.
    working.validate()
    return working.frame([], df.partition_tag)

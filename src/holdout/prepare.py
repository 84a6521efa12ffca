"""Model-dependent data preparation fitted strictly on the frame it is given.

A Transformer captures fit-time statistics (means, stddevs, category lists)
and can later be applied to any frame with a compatible schema using only
those statistics. Fitting per fold inside the training loop is what keeps
validation rows out of the statistics.

Numeric steps run on float64 arrays, and their results equal, bit for bit,
the per-cell Python arithmetic the statistics are defined by:

- a mean is the left-to-right float sum of the present values in row
  order, divided by their count (numpy's pairwise `sum`/`mean` round
  differently, and so does builtin `sum` from Python 3.12);
- the population variance sums, left to right, `d ** 2` for each
  deviation `d = v - mean` with Python's float power, which calls libm
  `pow`. `np.float_power(d, 2.0)` is numpy's loop of C `pow` calls and
  equals it bit for bit; `np.power` is not that loop (a SIMD loop, or
  `x * x` for a scalar 2). On 1M deviations `N(0, 1) * 10**U(-3, 3)`,
  `d * d` differed in the last bit on 804 (0.08%) and `np.power` with an
  array exponent on 26,936 (2.7%);
- a finite column whose sum or squared deviations overflow float64 is a
  data error naming the column; a column holding ±inf keeps inf/NaN
  statistics;
- elementwise `v - mean`, `/ std` and imputation are single IEEE operations,
  identical in numpy and Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ConfigError, GuardError, PartitionError, SchemaError
from .frame import Column, DataFrame, _as_cells, _readonly, _store
from .registry import ProvenanceRegistry, resolve

STEP_KINDS = ("impute_mean", "one_hot", "standardize")
DEFAULT_RECIPE = ("impute_mean", "one_hot", "standardize")
ONE_HOT_SEPARATOR = "="
CLASSIFICATION_MAX_CLASSES = 20

_NONE_TYPE = type(None)


@dataclass(frozen=True)
class Step:
    """One fitted preparation step.

    params maps column name to the fitted state: a mean for impute_mean,
    a (mean, stddev) pair for standardize, an ordered category list for
    one_hot.
    """

    kind: str
    params: Mapping[str, Any]

    def to_dict(self) -> dict:
        params = {
            col: list(v) if isinstance(v, (tuple, list)) else v
            for col, v in self.params.items()
        }
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_dict(cls, d: dict) -> "Step":
        params = {
            col: tuple(v) if isinstance(v, list) else v
            for col, v in d["params"].items()
        }
        return cls(kind=d["kind"], params=params)


@dataclass(frozen=True)
class Transformer:
    """Ordered fitted steps plus the feature schema they expect and produce."""

    steps: tuple[Step, ...]
    source_columns: tuple[str, ...]
    feature_names: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "steps": [s.to_dict() for s in self.steps],
            "source_columns": list(self.source_columns),
            "feature_names": list(self.feature_names),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Transformer":
        return cls(
            steps=tuple(Step.from_dict(s) for s in d["steps"]),
            source_columns=tuple(d["source_columns"]),
            feature_names=tuple(d["feature_names"]),
        )


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

    A column is a float64 array or, for int, mixed and text columns, a
    sequence of cells. Arrays use NaN for missing, and `missing` keeps a
    mask of the cells that really are missing, because arithmetic on
    infinities also yields NaN and such a value is present, not missing.
    """

    def __init__(self, df: DataFrame, names: Sequence[str]):
        self.order = list(names)
        self.values: dict[str, np.ndarray | Sequence] = {}
        self.missing: dict[str, np.ndarray] = {}
        for name in names:
            self._load(name, df._col(name))

    def _load(self, name: str, col: Column) -> None:
        if not isinstance(col, np.ndarray):
            cells = col
            if bool in set(map(type, cells)):
                # Bool cells become 0.0/1.0 before any step runs.
                cells = [float(v) if isinstance(v, bool) else v for v in cells]
            if not set(map(type, cells)) <= {float, _NONE_TYPE}:
                self.values[name] = cells
                return
            col = np.array(cells, dtype=np.float64)
        self.values[name] = col
        mask = np.isnan(col)
        if mask.any():
            self.missing[name] = mask

    def kind(self, name: str) -> str:
        values = self.values[name]
        if isinstance(values, np.ndarray):
            return "numeric"
        types = set(map(type, values))
        text = {t for t in types if issubclass(t, str)}
        if not text:
            return "numeric"
        if types - text - {_NONE_TYPE}:
            raise ConfigError(
                f"column {name!r} mixes text and numeric values; "
                "cannot prepare it coherently"
            )
        return "categorical"

    def floats(self, name: str) -> tuple[np.ndarray, np.ndarray | None]:
        """A numeric column as float64 values plus its missing mask (None
        when nothing is missing); list cells convert with `float(v)`."""
        values = self.values[name]
        if isinstance(values, np.ndarray):
            return values, self.missing.get(name)
        mask = np.array([v is None for v in values], dtype=bool)
        floats = np.array(
            [math.nan if v is None else float(v) for v in values], dtype=np.float64
        )
        return floats, (mask if mask.any() else None)

    def set_floats(self, name: str, values: np.ndarray, mask: np.ndarray | None) -> None:
        self.values[name] = values
        if mask is None:
            self.missing.pop(name, None)
        else:
            self.missing[name] = mask

    def validate(self) -> None:
        """Reject a result that still holds missing or text cells."""
        for name in self.order:
            values = self.values[name]
            if name in self.missing:
                _raise_missing(name)
            if isinstance(values, np.ndarray):
                continue
            for v in values:
                if v is None:
                    _raise_missing(name)
                if isinstance(v, str):
                    raise ConfigError(
                        f"recipe leaves categorical column {name!r} unencoded; "
                        "add a one_hot step"
                    )

    def frame(self, extra: list[tuple[str, np.ndarray]], tag: str) -> DataFrame:
        names = self.order + [name for name, _ in extra]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        columns = [
            _readonly(v) if isinstance(v, np.ndarray) else _store(v)
            for v in (self.values[n] for n in self.order)
        ]
        columns += [_readonly(v) for _, v in extra]
        return DataFrame._from_storage(names, columns, tag)


def _raise_missing(name: str):
    raise ConfigError(
        f"recipe leaves missing values in column {name!r}; add an impute_mean step"
    )


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
    # C pow per deviation, as Python's float ** is: see the module docstring.
    with np.errstate(all="ignore"):  # Python float arithmetic never warns
        deviations = present - m
        squares = np.float_power(deviations, 2.0)
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
            name, cols = entry, None
        elif isinstance(entry, Mapping):
            name = entry.get("step")
            cols = entry.get("columns")
        else:
            name, cols = entry
        if name not in STEP_KINDS:
            raise ConfigError(f"unknown preparation step {name!r}")
        if cols is not None:
            cols = [str(c) for c in cols]
        out.append((name, cols))
    if not out:
        raise ConfigError("recipe must contain at least one step")
    return out


def _fit_steps(df: DataFrame, target: str, recipe) -> tuple[Transformer, _Working]:
    """Fit every step in order on the working copy and apply it in place.

    Returns the fitted Transformer and the transformed feature columns.
    """
    source = [n for n in df.column_names if n != target]
    working = _Working(df, source)

    fitted: list[Step] = []
    for step_name, wanted in normalize_recipe(recipe):
        kinds = {name: working.kind(name) for name in working.order}
        wanted_kind = "categorical" if step_name == "one_hot" else "numeric"
        applicable = [n for n in working.order if kinds[n] == wanted_kind]
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
                # Category order: first appearance.
                categories = dict.fromkeys(working.values[col])
                categories.pop(None, None)
                params[col] = tuple(categories)
            elif step_name == "impute_mean":
                params[col] = _mean(col, _present(*working.floats(col)))
            else:
                params[col] = _mean_std(col, _present(*working.floats(col)))
        step = Step(kind=step_name, params=params)
        fitted.append(step)
        _apply_step(step, working)

    transformer = Transformer(
        steps=tuple(fitted),
        source_columns=tuple(source),
        feature_names=tuple(working.order),
    )
    return transformer, working


def _apply_step(step: Step, working: _Working) -> None:
    if step.kind == "impute_mean":
        for col, mean in step.params.items():
            if col in working.values:
                values, mask = working.floats(col)
                if mask is not None:
                    values = np.where(mask, mean, values)
                working.set_floats(col, values, None)
        return
    if step.kind == "standardize":
        for col, (mean, std) in step.params.items():
            if col not in working.values:
                continue
            values, mask = working.floats(col)
            if std == 0.0:
                out = np.zeros(len(values))
                if mask is not None:
                    out[mask] = math.nan
            else:
                with np.errstate(all="ignore"):
                    out = (values - mean) / std  # missing stays NaN
            working.set_floats(col, out, mask)
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
        values = working.values.pop(name)
        working.missing.pop(name, None)
        cells = values.tolist() if isinstance(values, np.ndarray) else values
        index: dict = {}
        for k, cat in enumerate(categories):
            index.setdefault(cat, k)
        codes = np.array(list(map(index.get, cells, repeat(-1))), dtype=np.intp)
        for cat in categories:
            col_name = f"{name}{ONE_HOT_SEPARATOR}{cat}"
            working.values[col_name] = (codes == index[cat]).astype(np.float64)
            new_order.append(col_name)
    working.order = new_order


def infer_task(values) -> str:
    if isinstance(values, np.ndarray):
        distinct = len(np.unique(values[~np.isnan(values)]))
    else:
        present = {v for v in values if v is not None}
        if any(isinstance(v, str) for v in present):
            return "classification"
        if all(isinstance(v, bool) for v in present) and present:
            return "classification"
        distinct = len(present)
    return "classification" if 0 < distinct <= CLASSIFICATION_MAX_CLASSES else "regression"


def _regression_target(values) -> np.ndarray:
    if isinstance(values, np.ndarray):
        if np.isnan(values).any():
            raise ConfigError("target column has missing values")
        return values
    if any(v is None for v in values):
        raise ConfigError("target column has missing values")
    return np.array([float(v) for v in values], dtype=np.float64)


def encode_target(values, task: str) -> tuple[np.ndarray, tuple | None]:
    """Regression targets pass through raw; classification targets map their
    two classes (sorted by repr) onto 0.0/1.0."""
    if task == "regression":
        return _regression_target(values), None
    values = _as_cells(values)
    if any(v is None for v in values):
        raise ConfigError("target column has missing values")
    classes = sorted(set(values), key=repr)
    if len(classes) == 1:
        # Degenerate single-class frame: encode everything as class 0.
        return np.zeros(len(values)), (classes[0], classes[0])
    if len(classes) != 2:
        raise ConfigError(
            f"classification supports exactly 2 classes, got {len(classes)}"
        )
    return encode_target_with_classes(values, tuple(classes)), tuple(classes)


def encode_target_with_classes(values, classes: tuple | None) -> np.ndarray:
    """Encode a target column using a previously fitted class mapping."""
    if classes is None:
        return _regression_target(values)
    lookup = {classes[0]: 0.0, classes[1]: 1.0}
    out = []
    for v in _as_cells(values):
        if v not in lookup:
            raise SchemaError(f"target value {v!r} was not seen at fit time")
        out.append(lookup[v])
    return np.array(out, dtype=np.float64)


def fit_transformer(
    df: DataFrame, target: str, recipe=None, task: str | None = None
) -> PreparedData:
    """Fit a recipe on a frame without any registry guard (interior use)."""
    if target not in df.column_names:
        raise SchemaError(f"target column {target!r} not in frame")
    if len(df.column_names) < 2:
        raise ConfigError("frame has no feature columns besides the target")
    transformer, working = _fit_steps(df, target, recipe)
    y = df._col(target)
    task = task or infer_task(y)
    encoded, classes = encode_target(y, task)
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
    standardizes numerics with the population stddev.
    """
    if not isinstance(df, DataFrame):
        raise TypeError("prepare expects a DataFrame")
    reg = resolve(registry)
    if reg.guards_on:
        record = reg.lookup(df)
        if record is None:
            raise PartitionError(
                "prepare requires data registered by split; call split() first"
            )
        if record.role == "test":
            raise GuardError(
                "prepare rejects test-role data: partition role 'test' is not "
                "in {'train', 'valid', 'dev'}"
            )
    return fit_transformer(df, target, recipe)


def apply(t: Transformer, df: DataFrame) -> DataFrame:
    """Transform a frame using fit-time statistics only.

    The frame must contain every fitted source column; extra columns are
    ignored. Missing numerics impute with the fit-time mean, categories
    unseen at fit time one-hot to all zeros, and the output is deterministic:
    two calls give byte-identical frames.
    """
    if not isinstance(t, Transformer):
        raise TypeError("apply expects a Transformer")
    if not isinstance(df, DataFrame):
        raise TypeError("apply expects a DataFrame")
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

"""Cross-validation rotations over the dev set.

A CVResult is a schedule of (train-index, valid-index) pairs into the dev
frame. It deliberately exposes no partition accessors: the test holdout
stays on the originating Partition and is reachable only through assess.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, CVError, GuardError
from .frame import DataFrame
from .registry import ProvenanceRegistry, resolve
from .rng import generator
from .signatures import check_arguments
from .split import Partition, deal, groups, largest_remainder

_BLOCKED_ATTRS = ("train", "valid", "test", "dev")


class CVResult:
    """A k-fold rotation schedule; immutable and safely shareable.

    folds holds k (train_indices, valid_indices) pairs of sorted row
    indices into the dev frame of the originating split.

    A cross-validated run's fold predictions depend only on the rotation
    and the run, so the rotation keeps each run it has seen (its mean fold
    scores and its out-of-fold column, dev rows x 8 bytes) plus one tuple
    of fold transformers per recipe, and later `fit(c)`, `screen`, `tune`
    and `stack` calls reuse them instead of training again. It keeps no
    frames and no prepared matrices.
    """

    __slots__ = (
        "_folds", "_k", "_target", "_source_split_id", "_kind", "_dev_frame", "_runs"
    )

    def __init__(self, folds, k, target, source_split_id, kind, dev_frame):
        object.__setattr__(self, "_folds", tuple(folds))
        object.__setattr__(self, "_k", int(k))
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_source_split_id", source_split_id)
        object.__setattr__(self, "_kind", kind)
        object.__setattr__(self, "_dev_frame", dev_frame)
        object.__setattr__(self, "_runs", {})  # see learn._cross_validate

    def __setattr__(self, name, value):
        raise AttributeError("CVResult is immutable")

    def __reduce__(self):
        # A copy rebuilds through __init__, so it starts with an empty memo.
        return CVResult, (
            self._folds, self._k, self._target, self._source_split_id,
            self._kind, self._dev_frame,
        )

    @property
    def folds(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        return self._folds

    @property
    def k(self) -> int:
        return self._k

    @property
    def target(self) -> str:
        return self._target

    @property
    def source_split_id(self) -> str:
        return self._source_split_id

    @property
    def kind(self) -> str:
        return self._kind

    def __getattr__(self, name):
        if name in _BLOCKED_ATTRS:
            raise GuardError(
                f"CVResult blocks direct partition access: '.{name}' stays on "
                "the originating Partition"
            )
        raise AttributeError(name)

    def __repr__(self) -> str:
        return f"CVResult(kind={self._kind!r}, k={self._k})"


def _materialize(cv_result: CVResult, indices) -> DataFrame:
    # Interior to fit: fold frames are never registered as session partitions.
    return cv_result._dev_frame._take(list(indices), tag="dev")


def _check_partition(p: Partition, expected_kind: str, registry: ProvenanceRegistry, verb: str):
    if not isinstance(p, Partition):
        raise TypeError(f"{verb} expects a Partition")
    if p.kind != expected_kind:
        raise CVError(
            f"{verb} requires a partition of kind {expected_kind!r}, got {p.kind!r}; "
            "rotation variant must match the split variant"
        )
    if not registry.has_split(p.split_id):
        raise CVError(
            "partition is not registered in this session; re-run split before rotating"
        )


def _pair_with_rest(n: int, valid_sides) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pair each sorted valid side with the other dev rows as its train side."""
    rows = np.arange(n)
    return [(tuple(np.delete(rows, v).tolist()), tuple(v)) for v in valid_sides]


def cv(
    p: Partition,
    folds: int = 5,
    seed: int = 0,
    registry: ProvenanceRegistry | None = None,
) -> CVResult:
    """Shuffled k-fold rotation over dev; valid-set sizes differ by at most one."""
    check_arguments(cv, locals())
    reg = resolve(registry)
    _check_partition(p, "random", reg, "cv")
    n = p.dev.row_count
    if not 2 <= folds <= n:
        raise CVError(f"folds must be between 2 and {n} (dev rows), got {folds}")
    # Equal shares tie on every remainder, so the last (n mod folds) folds
    # get one extra row: 7 rows in 3 folds give [2, 2, 3].
    parts = deal(n, [1.0 / folds] * folds, generator(seed))
    out = _pair_with_rest(n, [sorted(part) for part in parts])
    return CVResult(out, folds, p.target, p.split_id, "kfold", p.dev)


def cv_temporal(
    p: Partition,
    folds: int = 5,
    window: str = "expanding",
    min_train: int = 1,
    embargo: int = 0,
    registry: ProvenanceRegistry | None = None,
) -> CVResult:
    """Ordered rotation: every fold's train rows precede its valid rows with
    an index gap strictly greater than `embargo`.

    Expanding windows grow from the start of dev; sliding windows keep a
    fixed length of `min_train` rows.
    """
    check_arguments(cv_temporal, locals())
    reg = resolve(registry)
    _check_partition(p, "temporal", reg, "cv_temporal")
    if window not in ("expanding", "sliding"):
        raise ConfigError(f"window must be 'expanding' or 'sliding', got {window!r}")
    if min_train < 1:
        raise CVError(f"min_train must be at least 1, got {min_train}")
    if embargo < 0:
        raise CVError(f"embargo must be nonnegative, got {embargo}")
    n = p.dev.row_count
    span = n - min_train - embargo
    if folds < 2 or span < folds:
        raise CVError(
            f"cannot cut {folds} validation blocks from {n} dev rows with "
            f"min_train={min_train} and embargo={embargo}"
        )
    sizes = largest_remainder(span, [1.0 / folds] * folds)  # extra rows go last
    out = []
    start = min_train + embargo
    for size in sizes:
        valid_idx = tuple(range(start, start + size))
        train_end = start - embargo
        train_begin = 0 if window == "expanding" else train_end - min_train
        train_idx = tuple(range(train_begin, train_end))
        out.append((train_idx, valid_idx))
        start += size
    return CVResult(out, folds, p.target, p.split_id, "temporal", p.dev)


def cv_group(
    p: Partition,
    folds: int = 5,
    seed: int = 0,
    registry: ProvenanceRegistry | None = None,
) -> CVResult:
    """Grouped rotation: whole groups rotate; no group appears in both the
    train and valid side of any fold."""
    check_arguments(cv_group, locals())
    reg = resolve(registry)
    _check_partition(p, "group", reg, "cv_group")
    group_rows = list(groups(p.dev.column(p.group_col)).values())
    if folds < 2 or folds > len(group_rows):
        raise CVError(
            f"folds must be between 2 and {len(group_rows)} (dev groups), got {folds}"
        )
    parts = deal(len(group_rows), [1.0 / folds] * folds, generator(seed))
    out = _pair_with_rest(
        p.dev.row_count, [sorted(r for i in part for r in group_rows[i]) for part in parts]
    )
    return CVResult(out, folds, p.target, p.split_id, "group", p.dev)

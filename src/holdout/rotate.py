"""Cross-validation rotations over the dev set.

A CVResult is a schedule of (train-index, valid-index) pairs into the dev
frame. It deliberately exposes no partition accessors: the test holdout
stays on the originating Partition and is reachable only through assess.
Each rotation verb checks its partition's kind, then the registry admits
the dev frame it cuts as `cv`.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .errors import CVError, GuardError
from .frame import DataFrame, _readonly
from .registry import ProvenanceRegistry, resolve
from .rng import generator
from .signatures import Count, Folds, Positive, check_arguments
from .split import Partition, deal, groups, largest_remainder

_BLOCKED_ATTRS = ("train", "valid", "test", "dev")


class CVResult:
    """A k-fold rotation schedule; immutable and safely shareable.

    It stores k (train, valid) pairs of sorted positions into the source split's
    dev rows as read-only intp arrays; `folds` reads them as tuples of Python ints.

    A cross-validated run's fold predictions depend only on the rotation
    and the run, so the rotation keeps each run it has seen (its mean fold
    scores, its out-of-fold column of dev rows x 8 bytes and the tuple of
    fold transformers its pass shared), and later `fit(c)`, `screen`,
    `tune` and `stack` calls reuse them instead of training again. It
    keeps no frames and no prepared matrices.
    """

    __slots__ = (
        "_folds", "_k", "_target", "_source_split_id", "_kind", "_dev_frame", "_runs"
    )

    def __init__(self, folds, k, target, source_split_id, kind, dev_frame):
        arrays = (tuple(_readonly(np.array(side, np.intp)) for side in fold) for fold in folds)
        object.__setattr__(self, "_folds", tuple(arrays))
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
        return tuple((tuple(t.tolist()), tuple(v.tolist())) for t, v in self._folds)

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
    return cv_result._dev_frame._take(indices, tag="dev")


def _check_partition(p: Partition, expected_kind: str, registry: ProvenanceRegistry | None,
                     verb: str):
    if p.kind != expected_kind:
        raise CVError(
            f"{verb} requires a partition of kind {expected_kind!r}, got {p.kind!r}; "
            "rotation variant must match the split variant"
        )
    resolve(registry).admit(p.dev, "cv")


def _pair_with_rest(n: int, valid_sides) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pair each valid side with the other dev rows as its train side, both
    as sorted positions read off a row mask (no integer sort runs)."""
    valid = np.zeros((len(valid_sides), n), dtype=bool)
    for mask, v in zip(valid, valid_sides):
        mask[v] = True
    return [(np.flatnonzero(~mask), np.flatnonzero(mask)) for mask in valid]


def cv(
    p: Partition,
    folds: Folds = 5,
    seed: Count = 0,
    registry: ProvenanceRegistry | None = None,
) -> CVResult:
    """Shuffled k-fold rotation over dev; valid-set sizes differ by at most one."""
    check_arguments(cv, locals())
    _check_partition(p, "random", registry, "cv")
    n = p.dev.row_count
    if folds > n:
        raise CVError(f"folds must be between 2 and {n} (dev rows), got {folds}")
    # Equal shares tie on every remainder, so the last (n mod folds) folds
    # get one extra row: 7 rows in 3 folds give [2, 2, 3].
    parts = deal(n, [1.0 / folds] * folds, generator(seed))
    out = _pair_with_rest(n, parts)
    return CVResult(out, folds, p.target, p.split_id, "kfold", p.dev)


def cv_temporal(
    p: Partition,
    folds: Folds = 5,
    window: Literal["expanding", "sliding"] = "expanding",
    min_train: Positive = 1,
    embargo: Count = 0,
    registry: ProvenanceRegistry | None = None,
) -> CVResult:
    """Ordered rotation: every fold's train rows precede its valid rows with
    an index gap strictly greater than `embargo`.

    Expanding windows grow from the start of dev; sliding windows keep a
    fixed length of `min_train` rows.
    """
    check_arguments(cv_temporal, locals())
    _check_partition(p, "temporal", registry, "cv_temporal")
    n = p.dev.row_count
    span = n - min_train - embargo
    if span < folds:
        raise CVError(
            f"cannot cut {folds} validation blocks from {n} dev rows with "
            f"min_train={min_train} and embargo={embargo}"
        )
    sizes = largest_remainder(span, [1.0 / folds] * folds)  # extra rows go last
    out = []
    start = min_train + embargo
    for size in sizes:
        train_end = start - embargo
        train_begin = 0 if window == "expanding" else train_end - min_train
        out.append((np.arange(train_begin, train_end), np.arange(start, start + size)))
        start += size
    return CVResult(out, folds, p.target, p.split_id, "temporal", p.dev)


def cv_group(
    p: Partition,
    folds: Folds = 5,
    seed: Count = 0,
    registry: ProvenanceRegistry | None = None,
) -> CVResult:
    """Grouped rotation: whole groups rotate; no group appears in both the
    train and valid side of any fold."""
    check_arguments(cv_group, locals())
    _check_partition(p, "group", registry, "cv_group")
    group_rows = list(groups(p.dev.column(p.group_col)).values())
    if folds > len(group_rows):
        raise CVError(
            f"folds must be between 2 and {len(group_rows)} (dev groups), got {folds}"
        )
    parts = deal(len(group_rows), [1.0 / folds] * folds, generator(seed))
    out = _pair_with_rest(
        p.dev.row_count, [np.concatenate([group_rows[i] for i in part]) for part in parts]
    )
    return CVResult(out, folds, p.target, p.split_id, "group", p.dev)

"""Assessment boundaries: random, temporal, and grouped three-way splits.

Each variant returns a Partition whose train/valid/test/dev members are
tagged and registered in the provenance registry under a deterministic
split id. Rounding uses largest-remainder allocation; remainder ties go to
the later partition (train < valid < test), which keeps sizes reproducible.
Rows are placed from integer codes read off the frame's storage, never from
per-row Python cells: equal cells (1, 1.0 and True) are one class, group or time.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import (
    GroupError,
    PartitionError,
    SchemaError,
    StratifyError,
    TemporalTieError,
)
from .frame import (Coded, DataFrame, _cell, _classes, _first_appearance, _lookup, _missing,
                    _take_train_valid_dev, fingerprint)
from .prepare import infer_task
from .registry import ProvenanceRegistry, resolve
from .rng import generator
from .signatures import Count, check_arguments

RATIO_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Partition:
    """The split result: four tagged member frames plus lineage metadata.

    train, valid and test are pairwise row-disjoint and cover the input
    (minus embargoed rows for temporal splits); dev is the row-wise union
    of train and valid.
    """

    train: DataFrame
    valid: DataFrame
    test: DataFrame
    dev: DataFrame
    target: str
    split_id: str
    seed: int
    kind: str = "random"
    time_col: str | None = field(default=None, repr=False)
    group_col: str | None = field(default=None, repr=False)


def largest_remainder(n: int, ratios) -> list[int]:
    """Integer shares of n summing to n; ties on remainders favor later parts."""
    quotas = [n * float(r) for r in ratios]
    base = [math.floor(q) for q in quotas]
    leftover = n - sum(base)
    order = sorted(
        range(len(ratios)),
        key=lambda i: (quotas[i] - base[i], i),
        reverse=True,
    )
    for i in order[:leftover]:
        base[i] += 1
    return base


def deal(count: int, shares, rng) -> list[np.ndarray]:
    """Positions 0..count-1 in one seeded shuffle, cut into consecutive intp
    slices sized by `largest_remainder(count, shares)`: every seeded split
    and rotation places its rows, a class's rows, or its groups this way."""
    perm = rng.permutation(count)
    ends = [0, *accumulate(largest_remainder(count, shares))]
    return [perm[start:end] for start, end in zip(ends, ends[1:])]


def part_labels(parts, count: int) -> np.ndarray:
    """Each of positions 0..count-1's part under `deal`, as int32 labels."""
    out = np.empty(count, dtype=np.int32)  # compared faster than intp
    for i, part in enumerate(parts):
        out[part] = i
    return out


def _validate_common(df: DataFrame, target: str, ratios) -> None:
    if df.partition_tag != "none":
        raise PartitionError(
            f"frame already carries partition tag {df.partition_tag!r}; "
            "members of a split cannot be re-split"
        )
    if target not in df.column_names:
        raise SchemaError(f"target column {target!r} not in frame")
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or not all(r > 0 for r in ratios):  # NaN is not > 0
        raise PartitionError(f"ratios must be three positive fractions, got {ratios}")
    if abs(sum(ratios) - 1.0) > RATIO_TOLERANCE:
        raise PartitionError(f"ratios must sum to 1, got {sum(ratios)!r}")
    if df.row_count < 3:
        raise PartitionError(f"need at least 3 rows to split, got {df.row_count}")


def _split_id(kind: str, seed, members) -> str:
    h = hashlib.sha256()
    h.update(kind.encode())
    h.update(str(seed).encode())
    for m in members:
        h.update(fingerprint(m).hex().encode())
    return h.hexdigest()[:16]


def _build_partition(
    df: DataFrame,
    target: str,
    idx_train,
    idx_valid,
    idx_test,
    seed: int,
    kind: str,
    registry: ProvenanceRegistry,
    time_col: str | None = None,
    group_col: str | None = None,
) -> Partition:
    for name, idx in (("train", idx_train), ("valid", idx_valid), ("test", idx_test)):
        if len(idx) == 0:
            raise PartitionError(
                f"{name} partition would be empty; adjust ratios or provide more rows"
            )
    train, valid, dev = _take_train_valid_dev(df, idx_train, idx_valid)
    test = df._take(idx_test, tag="test")
    members = {"train": train, "valid": valid, "test": test, "dev": dev}
    roles_by_content: dict = {}
    for role, member in members.items():
        twin = roles_by_content.setdefault(fingerprint(member), role)
        if twin != role:
            raise PartitionError(
                f"{twin} and {role} partitions have identical content, so "
                "provenance cannot tell them apart; deduplicate the rows"
            )
    split_id = _split_id(kind, seed, (train, valid, test))
    for role, member in members.items():
        registry.register(fingerprint(member), role, split_id)
    return Partition(
        train=train,
        valid=valid,
        test=test,
        dev=dev,
        target=target,
        split_id=split_id,
        seed=seed,
        kind=kind,
        time_col=time_col,
        group_col=group_col,
    )


def split(
    df: DataFrame,
    target: str,
    ratios: Sequence[float] = (0.6, 0.2, 0.2),
    seed: Count = 0,
    stratify: bool = False,
    registry: ProvenanceRegistry | None = None,
) -> Partition:
    """Random three-way split; same input, ratios and seed reproduce the
    same member fingerprints bit for bit.

    With stratify=True and a classification target (text, bool, or at
    most 20 distinct values: the rule of `prepare.infer_task`), per-class
    proportions in every member match the global proportions to within one
    row per class: classes are dealt in turn, in repr order of their names.
    """
    check_arguments(split, locals())
    reg = resolve(registry)
    _validate_common(df, target, ratios)
    n = df.row_count
    rng = generator(seed)

    if stratify and infer_task(df._col(target)) != "classification":
        warnings.warn(
            "stratify requested for a non-classification target; ignoring",
            stacklevel=2,
        )
        stratify = False

    if stratify:
        codes, names = _classes(df._col(target))
        if (codes < 0).any():
            raise StratifyError("cannot stratify on a target with missing values")
        dealt = []
        for c in sorted(range(len(names)), key=lambda c: repr(names[c])):
            rows = np.flatnonzero(codes == c)
            if len(rows) < 3:
                raise StratifyError(
                    f"target class {names[c]!r} has {len(rows)} rows; "
                    "stratification needs at least one row per partition"
                )
            dealt.append([rows[part] for part in deal(len(rows), ratios, rng)])
        idx_train, idx_valid, idx_test = map(np.concatenate, zip(*dealt))
    else:
        idx_train, idx_valid, idx_test = deal(n, ratios, rng)

    return _build_partition(df, target, idx_train, idx_valid, idx_test, seed, "random", reg)


def split_temporal(
    df: DataFrame,
    target: str,
    time_col: str,
    ratios: Sequence[float] = (0.6, 0.2, 0.2),
    embargo: Count = 0,
    registry: ProvenanceRegistry | None = None,
) -> Partition:
    """Ordered split: all train times precede all valid times precede all
    test times, with `embargo` rows dropped after each boundary.

    Unsorted input is sorted internally (stable, by Python order, so ints
    past 2**53 stay exact). Equal timestamps (1 and 1.0) that straddle a
    member boundary are rejected: either side would leak future information.
    """
    check_arguments(split_temporal, locals())
    reg = resolve(registry)
    _validate_common(df, target, ratios)
    if time_col not in df.column_names:
        raise SchemaError(f"time column {time_col!r} not in frame")
    col = df._col(time_col)
    if _missing(col).any():
        raise PartitionError("time column has missing values; ordering is undefined")
    kinds = set(map(type, col.values[:-1])) if isinstance(col, Coded) else {float}
    if kinds - {int, float} and kinds != {str}:
        raise PartitionError(
            "time column must be uniformly numeric or uniformly text to be totally ordered"
        )
    keys = col
    if isinstance(col, Coded):  # each row's class rank in Python order: ints past 2**53 stay exact
        ranked = sorted(_first_appearance(col))
        keys = _lookup(col, dict(zip(ranked, range(len(ranked)))), -1)

    n = df.row_count
    order = np.argsort(keys, kind="stable")
    n_train, n_valid, _ = largest_remainder(n, ratios)
    valid_start = n_train + embargo
    test_start = valid_start + n_valid + embargo
    idx_train = order[:n_train]
    idx_valid = order[valid_start : valid_start + n_valid]
    idx_test = order[test_start:]
    if len(idx_valid) < n_valid or len(idx_test) == 0:
        raise PartitionError(
            f"embargo of {embargo} rows leaves no room for valid/test members"
        )
    for upper, lower, where in (
        (idx_train, idx_valid, "train/valid"),
        (idx_valid, idx_test, "valid/test"),
    ):
        if len(upper) and len(lower) and keys[upper[-1]] == keys[lower[0]]:
            raise TemporalTieError(
                f"duplicate timestamp {_cell(col, lower[0])!r} straddles the {where} "
                "boundary; increase embargo or deduplicate timestamps"
            )

    return _build_partition(
        df, target, idx_train, idx_valid, idx_test, 0, "temporal", reg, time_col=time_col
    )


def split_group(
    df: DataFrame,
    target: str,
    group_col: str,
    ratios: Sequence[float] = (0.6, 0.2, 0.2),
    seed: Count = 0,
    registry: ProvenanceRegistry | None = None,
) -> Partition:
    """Grouped split: every group's rows land in exactly one member.

    Group-count shares approximate the ratios by largest remainder over
    groups, dealt in order of first appearance; rows keep their input order
    within each member.
    """
    check_arguments(split_group, locals())
    reg = resolve(registry)
    _validate_common(df, target, ratios)
    if group_col not in df.column_names:
        raise SchemaError(f"group column {group_col!r} not in frame")
    codes, names = _classes(df._col(group_col))
    if (codes < 0).any():
        raise GroupError("group column has missing values")
    if len(names) < 3:
        raise GroupError(f"need at least 3 distinct groups to split, got {len(names)}")
    parts = deal(len(names), ratios, generator(seed))
    if not all(map(len, parts)):
        raise GroupError(
            f"ratios {tuple(ratios)} allocate zero groups to a partition "
            f"(group counts {tuple(map(len, parts))})"
        )
    row_parts = part_labels(parts, len(names))[codes]
    idx_train, idx_valid, idx_test = (np.flatnonzero(row_parts == i) for i in range(3))

    return _build_partition(
        df, target, idx_train, idx_valid, idx_test, seed, "group", reg, group_col=group_col
    )

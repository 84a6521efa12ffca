"""Assessment boundaries: random, temporal, and grouped three-way splits.

Each variant returns a Partition whose train/valid/test/dev members are
tagged and registered in the provenance registry under a deterministic
split id. Rounding uses largest-remainder allocation; remainder ties go to
the later partition (train < valid < test), which keeps sizes reproducible.
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
from .frame import DataFrame, _take_train_valid_dev, fingerprint
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


def groups(cells) -> dict:
    """Each distinct cell mapped to its row positions, in first-appearance order."""
    rows: dict = {}
    for i, cell in enumerate(cells):
        rows.setdefault(cell, []).append(i)
    return rows


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
    row per class.
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
        # Classes by Python equality, each named by its first cell.
        classes = groups(df.column(target))
        if None in classes:
            raise StratifyError("cannot stratify on a target with missing values")
        buckets: list[list[int]] = [[], [], []]
        for v in sorted(classes, key=repr):
            rows = classes[v]
            if len(rows) < 3:
                raise StratifyError(
                    f"target class {v!r} has {len(rows)} rows; "
                    "stratification needs at least one row per partition"
                )
            for bucket, part in zip(buckets, deal(len(rows), ratios, rng)):
                bucket.extend(rows[i] for i in part)
        idx_train, idx_valid, idx_test = buckets
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

    Unsorted input is sorted internally (stable). Duplicate timestamps that
    straddle a member boundary are rejected: assigning them to either side
    would leak future information.
    """
    check_arguments(split_temporal, locals())
    reg = resolve(registry)
    _validate_common(df, target, ratios)
    if time_col not in df.column_names:
        raise SchemaError(f"time column {time_col!r} not in frame")
    times = df.column(time_col)
    if any(t is None for t in times):
        raise PartitionError("time column has missing values; ordering is undefined")
    kinds = {type(t) for t in times}
    if kinds - {int, float} and kinds != {str}:
        raise PartitionError(
            "time column must be uniformly numeric or uniformly text to be totally ordered"
        )

    n = df.row_count
    order = sorted(range(n), key=lambda i: (times[i], i))
    n_train, n_valid, _ = largest_remainder(n, ratios)
    valid_start = n_train + embargo
    test_start = valid_start + n_valid + embargo
    idx_train = order[:n_train]
    idx_valid = order[valid_start : valid_start + n_valid]
    idx_test = order[test_start:]
    if len(idx_valid) < n_valid or not idx_test:
        raise PartitionError(
            f"embargo of {embargo} rows leaves no room for valid/test members"
        )
    for upper, lower, where in (
        (idx_train, idx_valid, "train/valid"),
        (idx_valid, idx_test, "valid/test"),
    ):
        if times[upper[-1]] == times[lower[0]]:
            raise TemporalTieError(
                f"duplicate timestamp {times[lower[0]]!r} straddles the {where} "
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
    groups; rows keep their input order within each member.
    """
    check_arguments(split_group, locals())
    reg = resolve(registry)
    _validate_common(df, target, ratios)
    if group_col not in df.column_names:
        raise SchemaError(f"group column {group_col!r} not in frame")
    cells = df.column(group_col)
    if any(g is None for g in cells):
        raise GroupError("group column has missing values")
    group_rows = list(groups(cells).values())
    if len(group_rows) < 3:
        raise GroupError(f"need at least 3 distinct groups to split, got {len(group_rows)}")
    parts = deal(len(group_rows), ratios, generator(seed))
    if not all(map(len, parts)):
        raise GroupError(
            f"ratios {tuple(ratios)} allocate zero groups to a partition "
            f"(group counts {tuple(map(len, parts))})"
        )
    idx_train, idx_valid, idx_test = (
        sorted(r for i in part for r in group_rows[i]) for part in parts
    )

    return _build_partition(
        df, target, idx_train, idx_valid, idx_test, seed, "group", reg, group_col=group_col
    )

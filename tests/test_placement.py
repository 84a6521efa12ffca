"""Splits and rotations placed from column codes give the same partitions,
folds and errors as placing rows one Python cell at a time.

The reference below is the per-row placement `split`, `split_temporal`,
`split_group`, `cv` and `cv_group` used before they read class codes: cells
are grouped by Python equality in a dict (1, 1.0 and True are one class;
so are 0.0 and -0.0) and rows are sorted with a key per row. Everything
else (argument checks, dealing, member building) is the package's own.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holdout import (
    CVError,
    DataFrame,
    GroupError,
    PartitionError,
    ProvenanceRegistry,
    StratifyError,
    TemporalTieError,
    cv,
    cv_group,
    fingerprint,
    split,
    split_group,
    split_temporal,
)
from holdout.prepare import infer_task
from holdout.registry import resolve
from holdout.rng import generator
from holdout.split import _build_partition, _validate_common, deal, largest_remainder

CELLS = [None, 1, 1.0, True, 0.0, -0.0, 2**53, 2**53 + 1, "a", "b", "é"]
TIMES = [*(2**53 + k for k in range(30)), *(k + 0.5 for k in range(30)), 1, 1.0, 0.0, -0.0]
RATIOS = [(0.6, 0.2, 0.2), (0.5, 0.25, 0.25), (0.34, 0.33, 0.33), (0.8, 0.1, 0.1)]


def _groups(cells) -> dict:
    rows: dict = {}
    for i, cell in enumerate(cells):
        rows.setdefault(cell, []).append(i)
    return rows


def _reference_split(df, target, ratios, seed, stratify, registry):
    reg = resolve(registry)
    _validate_common(df, target, ratios)
    n = df.row_count
    rng = generator(seed)
    if stratify and infer_task(df._col(target)) != "classification":
        warnings.warn("stratify requested for a non-classification target; ignoring")
        stratify = False
    if stratify:
        classes = _groups(df.column(target))
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


def _reference_split_temporal(df, target, time_col, ratios, embargo, registry):
    reg = resolve(registry)
    _validate_common(df, target, ratios)
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


def _reference_split_group(df, target, group_col, ratios, seed, registry):
    reg = resolve(registry)
    _validate_common(df, target, ratios)
    cells = df.column(group_col)
    if any(g is None for g in cells):
        raise GroupError("group column has missing values")
    group_rows = list(_groups(cells).values())
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


def _reference_pair_with_rest(n, valid_sides):
    valid = np.zeros((len(valid_sides), n), dtype=bool)
    for mask, v in zip(valid, valid_sides):
        mask[v] = True
    return tuple((tuple(np.flatnonzero(~m).tolist()), tuple(np.flatnonzero(m).tolist()))
                 for m in valid)


def _reference_cv(p, folds, seed):
    n = p.dev.row_count
    if folds > n:
        raise CVError(f"folds must be between 2 and {n} (dev rows), got {folds}")
    return _reference_pair_with_rest(n, deal(n, [1.0 / folds] * folds, generator(seed)))


def _reference_cv_group(p, folds, seed):
    group_rows = list(_groups(p.dev.column(p.group_col)).values())
    if folds > len(group_rows):
        raise CVError(
            f"folds must be between 2 and {len(group_rows)} (dev groups), got {folds}"
        )
    parts = deal(len(group_rows), [1.0 / folds] * folds, generator(seed))
    return _reference_pair_with_rest(
        p.dev.row_count, [np.concatenate([group_rows[i] for i in part]) for part in parts]
    )


def _outcome(call):
    """(result, warnings) or the error's exact class and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except Exception as exc:  # compared, not swallowed
            return type(exc), str(exc)
    messages = [str(w.message) for w in caught]
    if hasattr(result, "split_id"):
        members = (result.train, result.valid, result.test, result.dev)
        return result.split_id, [fingerprint(m) for m in members], messages
    return result, messages


def _same(got, want):
    if want[0] is IndexError:
        # The per-row check indexed an empty member's last row; the member
        # is now refused by name.
        assert got[0] is PartitionError and got[1].endswith(
            "partition would be empty; adjust ratios or provide more rows")
    else:
        assert got == want


@st.composite
def _frames(draw):
    n = draw(st.integers(6, 40))

    def column(cells, size):
        pool = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=size, unique_by=repr))
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))

    # A row id keeps every member's content apart from every other's; times
    # are few and mixed, or many (ints past 2**53 among halves) or text.
    times = draw(st.sampled_from([CELLS, TIMES, [*"abcdefghijklmnopqrstuvwxyz"]]))
    cols = {"i": [float(i) for i in range(n)], "y": column(CELLS, 5),
            "g": column([*CELLS, *"cdefg"], 9), "t": column(times, 40)}
    return DataFrame(cols)


@given(_frames(), st.sampled_from(RATIOS), st.integers(0, 3), st.integers(2, 4),
       st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_placement_matches_the_per_row_reference(df, ratios, seed, folds, embargo):
    for stratify in (False, True):
        got = _outcome(lambda: split(df, "y", ratios, seed, stratify, ProvenanceRegistry()))
        want = _outcome(lambda: _reference_split(
            df, "y", ratios, seed, stratify, ProvenanceRegistry()))
        _same(got, want)
    got = _outcome(lambda: split_temporal(df, "y", "t", ratios, embargo, ProvenanceRegistry()))
    want = _outcome(lambda: _reference_split_temporal(
        df, "y", "t", ratios, embargo, ProvenanceRegistry()))
    _same(got, want)
    got = _outcome(lambda: split_group(df, "y", "g", ratios, seed, ProvenanceRegistry()))
    _same(got, _outcome(lambda: _reference_split_group(
        df, "y", "g", ratios, seed, ProvenanceRegistry())))
    for rotate, reference, make in (
        (cv_group, _reference_cv_group, lambda reg: split_group(df, "y", "g", ratios, seed, reg)),
        (cv, _reference_cv, lambda reg: split(df, "y", ratios, seed, registry=reg)),
    ):
        reg = ProvenanceRegistry()
        try:
            p = make(reg)
        except (GroupError, PartitionError):
            continue
        got = _outcome(lambda: rotate(p, folds, seed, reg).folds)
        assert got == _outcome(lambda: reference(p, folds, seed))


# Each error the per-row placement raises, met on purpose.
@pytest.mark.parametrize("make, error, message", [
    (lambda: split(DataFrame({"i": [0.0] * 6, "y": ["a", None, "a", "b", "b", "b"]}), "y",
                   stratify=True, registry=ProvenanceRegistry()),
     StratifyError, "cannot stratify on a target with missing values"),
    (lambda: split(DataFrame({"i": [*map(float, range(7))], "y": [1, 1.0, True, 0.0, -0.0, 0.0,
                                                                   "a"]}),
                   "y", stratify=True, registry=ProvenanceRegistry()),
     StratifyError, "target class 'a' has 1 rows; "
     "stratification needs at least one row per partition"),
    (lambda: split_group(DataFrame({"y": [0.0] * 6, "g": [1, 1.0, True, "a", "a", 2**53]}),
                         "y", "g", registry=ProvenanceRegistry()),
     GroupError, "ratios (0.6, 0.2, 0.2) allocate zero groups to a partition "
     "(group counts (2, 0, 1))"),
    (lambda: split_group(DataFrame({"y": [0.0] * 6, "g": [1, 1.0, True, 0.0, -0.0, 0.0]}),
                         "y", "g", registry=ProvenanceRegistry()),
     GroupError, "need at least 3 distinct groups to split, got 2"),
    (lambda: split_temporal(DataFrame({"y": [*map(float, range(5))], "t": [0, 0, 1, 1.0, 2]}),
                            "y", "t", registry=ProvenanceRegistry()),
     TemporalTieError, "duplicate timestamp 1.0 straddles the train/valid boundary; "
     "increase embargo or deduplicate timestamps"),
    (lambda: split_temporal(DataFrame({"y": [0.0] * 5, "t": [0, 1, True, 2, 3]}),
                            "y", "t", registry=ProvenanceRegistry()),
     PartitionError, "time column must be uniformly numeric or uniformly text to be "
     "totally ordered"),
    (lambda: split_temporal(DataFrame({"y": [0.0, 1.0, 2.0], "t": [1, 2, 3]}), "y", "t",
                            (0.01, 0.01, 0.98), registry=ProvenanceRegistry()),
     PartitionError, "train partition would be empty; adjust ratios or provide more rows"),
])
def test_errors_name_the_cell_and_count(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message


def test_ints_past_2_53_order_exactly():
    t = [2**53 + 1, 2**53, 2**53 + 3, 2**53 + 2, 0.5]
    p = split_temporal(DataFrame({"y": [*map(float, range(5))], "t": t}), "y", "t",
                       registry=ProvenanceRegistry())
    assert p.dev.column("t") == (0.5, 2**53, 2**53 + 1, 2**53 + 2) and p.test.column("t") == (
        2**53 + 3,)

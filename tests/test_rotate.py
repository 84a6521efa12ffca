import copy
import dataclasses
import pickle

import numpy as np
import pytest

from holdout import (
    CVError,
    ConfigError,
    DataFrame,
    GuardError,
    PartitionError,
    ProvenanceRegistry,
    cv,
    cv_group,
    cv_temporal,
    fingerprint,
    fit,
    split,
    split_group,
    split_temporal,
)
from holdout.rotate import CVResult

from conftest import make_classification_frame
from test_partition_golden import GOLDEN_ROTATIONS, ROTATIONS, SPLITS, _folds_digest, _frame


@pytest.fixture
def partition(registry):
    return split(make_classification_frame(125), "y", seed=11, registry=registry)


class TestKFold:
    def test_fold_sizes(self, registry, partition):
        c = cv(partition, 5, seed=1, registry=registry)
        n_dev = partition.dev.row_count  # 100
        assert c.k == 5
        for train_idx, valid_idx in c.folds:
            assert len(valid_idx) == n_dev // 5
            assert len(train_idx) == n_dev - n_dev // 5
            assert not set(train_idx) & set(valid_idx)
            assert sorted(set(train_idx) | set(valid_idx)) == list(range(n_dev))

    def test_uneven_folds_differ_by_at_most_one(self, registry):
        p = split(make_classification_frame(29), "y", seed=1, registry=registry)
        c = cv(p, 4, seed=1, registry=registry)
        sizes = [len(v) for _, v in c.folds]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == p.dev.row_count
        # 23 dev rows in 4 folds: remainders tie, so the extra rows go last.
        assert sizes == [5, 6, 6, 6]

    def test_rotation_coverage(self, registry, partition):
        c = cv(partition, 7, seed=3, registry=registry)
        all_valid = [i for _, v in c.folds for i in v]
        assert sorted(all_valid) == list(range(partition.dev.row_count))

    def test_deterministic(self, registry, partition):
        c1 = cv(partition, 5, seed=42, registry=registry)
        c2 = cv(partition, 5, seed=42, registry=registry)
        assert c1.folds == c2.folds

    def test_k_out_of_range(self, registry, partition):
        # The lower bound is declared (signatures.Folds), the upper depends on the data.
        with pytest.raises(ConfigError, match="^folds must be an integer of at least 2, got 1$"):
            cv(partition, 1, registry=registry)
        with pytest.raises(CVError):
            cv(partition, partition.dev.row_count + 1, registry=registry)

    def test_unregistered_partition_rejected(self, partition):
        fresh = ProvenanceRegistry()
        with pytest.raises(PartitionError, match="cv requires data registered by split"):
            cv(partition, 5, registry=fresh)

    def test_a_swapped_dev_is_refused(self, registry, partition):
        # The registry admits the frame the rotation cuts, not its split id.
        swapped = dataclasses.replace(partition, dev=partition.test)
        with pytest.raises(GuardError, match="cv admits only dev-role data, got role 'test'"):
            cv(swapped, 5, registry=registry)

    def test_guards_off_admits_an_unregistered_partition(self, registry, partition):
        fresh = ProvenanceRegistry()
        fresh.set_guards("off")
        assert cv(partition, 5, registry=fresh).folds == cv(partition, 5, registry=registry).folds

    def test_partition_access_blocked(self, registry, partition):
        c = cv(partition, 5, registry=registry)
        for attr in ("train", "valid", "test", "dev"):
            with pytest.raises(GuardError, match="originating Partition"):
                getattr(c, attr)

    def test_no_hidden_public_accessor(self, registry, partition):
        c = cv(partition, 5, registry=registry)
        public = [a for a in dir(c) if not a.startswith("_")]
        assert set(public) == {"folds", "k", "target", "source_split_id", "kind"}

    def test_immutable(self, registry, partition):
        c = cv(partition, 5, registry=registry)
        with pytest.raises(AttributeError):
            c.k = 7

    def test_stored_fold_sides_are_readonly_intp_arrays(self, registry, partition):
        c = cv(partition, 5, registry=registry)
        for fold in c._folds:
            for side in fold:
                assert isinstance(side, np.ndarray) and side.dtype == np.intp
                with pytest.raises(ValueError, match="read-only"):
                    side[0] = 0
        # Sides passed in are copied: a caller's array cannot reach them.
        train, valid = np.arange(50, 100), np.arange(50)
        twin = CVResult([(train, valid)], 2, c.target, c.source_split_id, c.kind,
                        c._dev_frame)
        valid[0] = 99
        assert twin.folds[0][1][0] == 0

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_the_schedule_with_an_empty_memo(
        self, registry, partition, duplicate
    ):
        c = cv(partition, 5, seed=1, registry=registry)
        fit(c, "y", algorithm="logistic", seed=1, registry=registry)
        twin = duplicate(c)
        assert (twin.folds, twin.k, twin.target, twin.source_split_id, twin.kind) == (
            c.folds, c.k, c.target, c.source_split_id, c.kind
        )
        with pytest.raises(ValueError, match="read-only"):
            twin._folds[0][1][0] = 0  # unpickled arrays come back writeable
        assert c._runs and twin._runs == {}
        assert twin._dev_frame == c._dev_frame
        assert fingerprint(twin._dev_frame) == fingerprint(partition.dev)
        with pytest.raises(ValueError, match="read-only"):
            twin._dev_frame._col("x0")[0] = 5.0
        with pytest.raises(GuardError, match="originating Partition"):
            twin.test
        with pytest.raises(AttributeError, match="immutable"):
            twin.k = 7
        # The unpickled dev frame still resolves to its registered record,
        # so the copy rotates under the guards like the original.
        assert registry.lookup(twin._dev_frame).role == "dev"
        model = fit(twin, "y", algorithm="logistic", seed=1, registry=registry)
        assert model.scores_ == fit(c, "y", algorithm="logistic", seed=1,
                                    registry=registry).scores_

    def test_profile_mismatch(self, registry):
        df = DataFrame(
            {
                "t": [float(i) for i in range(30)],
                "x": [float(i % 3) for i in range(30)],
                "y": [float(i) for i in range(30)],
            }
        )
        p = split_temporal(df, "y", "t", registry=registry)
        with pytest.raises(CVError, match="kind"):
            cv(p, 3, registry=registry)
        with pytest.raises(CVError, match="kind"):
            cv_group(p, 3, registry=registry)


class TestTemporalRotation:
    @pytest.fixture
    def temporal_partition(self, registry):
        # dev gets 125 * 0.8 = 100 rows: 125 ordered rows split 0.6/0.2/0.2.
        df = DataFrame(
            {
                "t": [float(i) for i in range(125)],
                "x": [float(i % 5) for i in range(125)],
                "y": [float(i % 11) for i in range(125)],
            }
        )
        return split_temporal(df, "y", "t", ratios=(0.6, 0.2, 0.2), registry=registry)

    def test_expanding_schedule(self, registry, temporal_partition):
        c = cv_temporal(
            temporal_partition, 4, window="expanding", min_train=20, registry=registry
        )
        expected_valid_starts = [20, 40, 60, 80]
        for (train_idx, valid_idx), start in zip(c.folds, expected_valid_starts):
            assert valid_idx == tuple(range(start, start + 20))
            assert train_idx == tuple(range(0, start))

    def test_sliding_schedule(self, registry, temporal_partition):
        c = cv_temporal(
            temporal_partition, 4, window="sliding", min_train=20, registry=registry
        )
        for train_idx, valid_idx in c.folds:
            assert len(train_idx) == 20
            assert max(train_idx) == min(valid_idx) - 1

    def test_embargo_gap(self, registry, temporal_partition):
        c = cv_temporal(
            temporal_partition, 3, window="expanding", min_train=20, embargo=5,
            registry=registry,
        )
        for train_idx, valid_idx in c.folds:
            assert min(valid_idx) - max(train_idx) > 5
            assert len(train_idx) >= 20

    def test_insufficient_rows(self, registry, temporal_partition):
        with pytest.raises(CVError):
            cv_temporal(temporal_partition, 200, min_train=20, registry=registry)
        with pytest.raises(CVError):
            cv_temporal(temporal_partition, 4, min_train=99, registry=registry)

    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            ({"window": "rolling"}, ConfigError,
             "^window must be one of 'expanding', 'sliding', got 'rolling'$"),
            ({"min_train": 0}, ConfigError, "min_train must be a positive integer, got 0"),
            ({"embargo": -1}, ConfigError, "embargo must be a non-negative integer"),
        ],
        ids=["window", "min_train", "embargo"],
    )
    def test_bad_settings_rejected(self, registry, temporal_partition, kwargs, error, message):
        with pytest.raises(error, match=message):
            cv_temporal(temporal_partition, 4, registry=registry, **kwargs)

    def test_no_future_leakage_property(self, registry, temporal_partition):
        c = cv_temporal(temporal_partition, 5, min_train=10, embargo=3, registry=registry)
        times = temporal_partition.dev.column("t")
        for train_idx, valid_idx in c.folds:
            assert max(times[i] for i in train_idx) < min(times[i] for i in valid_idx)


class TestGroupRotation:
    @pytest.fixture
    def group_partition(self, registry):
        groups = [g for g in "abcdefghij" for _ in range(3)]  # 10 groups x 3 rows
        df = DataFrame(
            {
                "g": groups,
                "x": [float(i) for i in range(30)],
                "y": [i % 2 for i in range(30)],
            }
        )
        return split_group(df, "y", "g", ratios=(0.6, 0.2, 0.2), seed=4, registry=registry)

    def test_whole_groups_per_fold(self, registry, group_partition):
        c = cv_group(group_partition, 3, seed=1, registry=registry)
        dev_groups = group_partition.dev.column("g")
        for train_idx, valid_idx in c.folds:
            train_groups = {dev_groups[i] for i in train_idx}
            valid_groups = {dev_groups[i] for i in valid_idx}
            assert not train_groups & valid_groups

    def test_group_integrity_brute_force(self, registry, group_partition):
        # Every group lands wholly in train or wholly in valid, each fold.
        c = cv_group(group_partition, 3, seed=2, registry=registry)
        dev_groups = group_partition.dev.column("g")
        rows_of = {}
        for i, g in enumerate(dev_groups):
            rows_of.setdefault(g, set()).add(i)
        for train_idx, valid_idx in c.folds:
            t, v = set(train_idx), set(valid_idx)
            for g, rows in rows_of.items():
                assert rows <= t or rows <= v

    def test_valid_groups_partition_dev_groups(self, registry, group_partition):
        c = cv_group(group_partition, 3, seed=5, registry=registry)
        dev_groups = group_partition.dev.column("g")
        seen = []
        for _, valid_idx in c.folds:
            seen.extend({dev_groups[i] for i in valid_idx})
        assert sorted(seen) == sorted(set(dev_groups))

    def test_k_exceeds_groups(self, registry, group_partition):
        n_groups = len(set(group_partition.dev.column("g")))
        with pytest.raises(CVError):
            cv_group(group_partition, n_groups + 1, registry=registry)

    def test_fold_valid_holds_expected_group_count(self, registry, group_partition):
        # 6 dev groups when ratios allocate 6 to train+valid; k=3 -> 2 each.
        dev_group_count = len(set(group_partition.dev.column("g")))
        c = cv_group(group_partition, 3, seed=1, registry=registry)
        dev_groups = group_partition.dev.column("g")
        counts = [len({dev_groups[i] for i in valid_idx}) for _, valid_idx in c.folds]
        assert sum(counts) == dev_group_count
        assert max(counts) - min(counts) <= 1


@pytest.mark.parametrize("name", sorted(ROTATIONS))
def test_public_folds_are_tuples_of_python_ints(name):
    source, rotate = ROTATIONS[name]
    reg = ProvenanceRegistry()
    c = rotate(SPLITS[source](_frame(), reg), reg)
    folds = c.folds
    assert type(folds) is tuple and len(folds) == c.k
    for fold in folds:
        assert type(fold) is tuple and len(fold) == 2
        for side in fold:
            assert type(side) is tuple
            assert all(type(i) is int for i in side)
    assert [[list(side) for side in fold] for fold in folds] == [
        [side.tolist() for side in fold] for fold in c._folds
    ]
    assert _folds_digest(c) == GOLDEN_ROTATIONS[name]

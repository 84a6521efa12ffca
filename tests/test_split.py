import warnings

import pytest

from holdout import (
    DataFrame,
    GroupError,
    PartitionError,
    SchemaError,
    StratifyError,
    TemporalTieError,
    fingerprint,
    split,
    split_group,
    split_temporal,
)
from holdout.split import largest_remainder

from conftest import make_classification_frame


def members(p):
    return p.train, p.valid, p.test


def row_multiset(df):
    return sorted(df.row(i) for i in range(df.row_count))


class TestLargestRemainder:
    def test_exact(self):
        assert largest_remainder(10, (0.6, 0.2, 0.2)) == [6, 2, 2]

    def test_tie_goes_to_later_index(self):
        assert largest_remainder(6, (0.5, 0.25, 0.25)) == [3, 1, 2]

    def test_sums(self):
        for n in range(1, 40):
            assert sum(largest_remainder(n, (0.57, 0.31, 0.12))) == n


class TestRandomSplit:
    def test_sizes(self, registry):
        df = make_classification_frame(10)
        p = split(df, "y", ratios=(0.6, 0.2, 0.2), seed=1, registry=registry)
        assert tuple(m.row_count for m in members(p)) == (6, 2, 2)

    def test_deterministic_fingerprints(self, registry):
        df = make_classification_frame(30)
        p1 = split(df, "y", seed=42, registry=registry)
        p2 = split(df, "y", seed=42, registry=registry)
        for a, b in zip(members(p1), members(p2)):
            assert fingerprint(a) == fingerprint(b)
        assert p1.split_id == p2.split_id

    def test_different_seed_different_members(self, registry):
        df = make_classification_frame(30)
        p1 = split(df, "y", seed=1, registry=registry)
        p2 = split(df, "y", seed=2, registry=registry)
        assert fingerprint(p1.train) != fingerprint(p2.train)

    def test_disjoint_and_covering(self, registry):
        df = make_classification_frame(25)
        p = split(df, "y", seed=3, registry=registry)
        combined = []
        for m in members(p):
            combined.extend(row_multiset(m))
        assert sorted(combined) == row_multiset(df)

    def test_dev_is_train_union_valid(self, registry):
        df = make_classification_frame(20)
        p = split(df, "y", seed=5, registry=registry)
        assert row_multiset(p.dev) == sorted(row_multiset(p.train) + row_multiset(p.valid))
        assert p.dev.partition_tag == "dev"

    def test_tags_and_registration(self, registry):
        df = make_classification_frame(20)
        p = split(df, "y", seed=5, registry=registry)
        for m, role in zip(members(p) + (p.dev,), ("train", "valid", "test", "dev")):
            assert m.partition_tag == role
            rec = registry.lookup(m)
            assert rec.role == role and rec.split_id == p.split_id

    def test_bad_ratios(self, registry):
        df = make_classification_frame(10)
        with pytest.raises(PartitionError):
            split(df, "y", ratios=(0.5, 0.5, 0.5), registry=registry)
        with pytest.raises(PartitionError):
            split(df, "y", ratios=(0.8, 0.2, 0.0), registry=registry)

    def test_already_tagged_rejected(self, registry):
        df = make_classification_frame(20)
        p = split(df, "y", seed=1, registry=registry)
        with pytest.raises(PartitionError, match="re-split"):
            split(p.train, "y", registry=registry)

    def test_too_few_rows(self, registry):
        df = DataFrame({"x": [1.0, 2.0], "y": [0, 1]})
        with pytest.raises(PartitionError):
            split(df, "y", registry=registry)

    def test_unknown_target(self, registry):
        df = make_classification_frame(10)
        with pytest.raises(SchemaError):
            split(df, "label", registry=registry)

    def test_resplit_resets_assessed(self, registry):
        df = make_classification_frame(20)
        p = split(df, "y", seed=1, registry=registry)
        registry.mark_assessed(fingerprint(p.test))
        split(df, "y", seed=1, registry=registry)  # same content re-registered
        assert registry.lookup(p.test).assessed is False


class TestStratify:
    def test_proportions_within_one_row(self, registry):
        # 40 rows, 30/10 class imbalance.
        df = DataFrame(
            {
                "x": [float(i) for i in range(40)],
                "y": [0] * 30 + [1] * 10,
            }
        )
        p = split(df, "y", ratios=(0.5, 0.25, 0.25), seed=7, stratify=True, registry=registry)
        for m, share in zip(members(p), (0.5, 0.25, 0.25)):
            ones = sum(1 for v in m.column("y") if v == 1)
            zeros = sum(1 for v in m.column("y") if v == 0)
            assert abs(ones - 10 * share) < 1.0 + 1e-9
            assert abs(zeros - 30 * share) < 1.0 + 1e-9

    def test_small_class_rejected(self, registry):
        df = DataFrame({"x": [1.0, 2.0, 3.0, 4.0, 5.0], "y": [0, 0, 0, 1, 1]})
        with pytest.raises(StratifyError):
            split(df, "y", stratify=True, registry=registry)

    def test_text_target_with_many_classes_is_stratified(self, registry):
        # 25 text classes of 6 rows: a classification target for
        # prepare.infer_task, so stratification applies (no warning) and
        # each class splits 4/1/1.
        labels = [f"c{i % 25}" for i in range(150)]
        df = DataFrame({"x": [float(i) for i in range(150)], "y": labels})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = split(df, "y", stratify=True, seed=3, registry=registry)
        for m, per_class in zip((p.train, p.valid, p.test), (4, 1, 1)):
            counts = {c: m.column("y").count(c) for c in set(labels)}
            assert set(counts.values()) == {per_class}

    def test_regression_target_warns_and_ignores(self, registry):
        df = DataFrame(
            {"x": [float(i) for i in range(30)], "y": [float(i) * 1.1 for i in range(30)]}
        )
        with pytest.warns(UserWarning, match="stratify"):
            p = split(df, "y", stratify=True, seed=1, registry=registry)
        assert p.train.row_count == 18


class TestTemporalSplit:
    def make(self, n=100):
        return DataFrame(
            {
                "t": [float(i) for i in range(1, n + 1)],
                "x": [float(i % 7) for i in range(n)],
                "y": [float(i) for i in range(n)],
            }
        )

    def test_plain_ordering(self, registry):
        p = split_temporal(self.make(), "y", "t", ratios=(0.6, 0.2, 0.2), registry=registry)
        assert p.train.column("t") == tuple(float(i) for i in range(1, 61))
        assert p.valid.column("t") == tuple(float(i) for i in range(61, 81))
        assert p.test.column("t") == tuple(float(i) for i in range(81, 101))

    def test_embargo_arithmetic(self, registry):
        p = split_temporal(
            self.make(), "y", "t", ratios=(0.6, 0.2, 0.2), embargo=5, registry=registry
        )
        assert min(p.valid.column("t")) == 66.0
        assert min(p.test.column("t")) == 91.0
        total = p.train.row_count + p.valid.row_count + p.test.row_count
        assert total == 90

    def test_embargo_gap_property(self, registry):
        p = split_temporal(self.make(), "y", "t", embargo=5, registry=registry)
        assert min(p.valid.column("t")) - max(p.train.column("t")) > 5
        assert min(p.test.column("t")) - max(p.valid.column("t")) > 5

    def test_unsorted_input_sorted_internally(self, registry):
        base = self.make(50)
        reversed_df = base._take(list(range(49, -1, -1)))
        p = split_temporal(reversed_df, "y", "t", registry=registry)
        assert max(p.train.column("t")) < min(p.valid.column("t"))

    def test_tie_at_boundary_rejected(self, registry):
        df = DataFrame(
            {
                "t": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.0, 7.0, 8.0, 9.0],
                "y": [float(i) for i in range(10)],
                "x": [0.0] * 10,
            }
        )
        # ratios put the train/valid cut between rows 6 and 7 (times 6.0, 6.0).
        with pytest.raises(TemporalTieError):
            split_temporal(df, "y", "t", ratios=(0.6, 0.2, 0.2), registry=registry)

    def test_tie_inside_member_allowed(self, registry):
        df = DataFrame(
            {
                "t": [1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
                "y": [float(i) for i in range(10)],
                "x": [0.0] * 10,
            }
        )
        p = split_temporal(df, "y", "t", ratios=(0.6, 0.2, 0.2), registry=registry)
        assert p.train.row_count == 6

    def test_missing_time_rejected(self, registry):
        df = DataFrame({"t": [1.0, None, 3.0], "y": [1, 2, 3]})
        with pytest.raises(PartitionError, match="missing"):
            split_temporal(df, "y", "t", registry=registry)

    def test_excessive_embargo_rejected(self, registry):
        with pytest.raises(PartitionError, match="embargo"):
            split_temporal(self.make(20), "y", "t", embargo=10, registry=registry)


class TestGroupSplit:
    def make(self):
        # 6 groups of 2 rows each.
        groups = ["a", "a", "b", "b", "c", "c", "d", "d", "e", "e", "f", "f"]
        return DataFrame(
            {
                "g": groups,
                "x": [float(i) for i in range(12)],
                "y": [i % 2 for i in range(12)],
            }
        )

    def test_group_counts_largest_remainder(self, registry):
        p = split_group(self.make(), "y", "g", ratios=(0.5, 0.25, 0.25), seed=1, registry=registry)
        counts = tuple(len(set(m.column("g"))) for m in members(p))
        assert counts == (3, 1, 2)

    def test_no_group_spans_members(self, registry):
        p = split_group(self.make(), "y", "g", ratios=(0.5, 0.25, 0.25), seed=3, registry=registry)
        seen = {}
        for m, name in zip(members(p), ("train", "valid", "test")):
            for g in set(m.column("g")):
                assert g not in seen, f"group {g} in both {seen.get(g)} and {name}"
                seen[g] = name

    def test_two_groups_rejected(self, registry):
        df = DataFrame({"g": ["a", "a", "b", "b"], "y": [0, 1, 0, 1]})
        with pytest.raises(GroupError):
            split_group(df, "y", "g", registry=registry)

    def test_missing_group_rejected(self, registry):
        df = DataFrame({"g": ["a", None, "b", "c"], "y": [0, 1, 0, 1]})
        with pytest.raises(GroupError):
            split_group(df, "y", "g", registry=registry)

    def test_deterministic(self, registry):
        p1 = split_group(self.make(), "y", "g", seed=9, registry=registry)
        p2 = split_group(self.make(), "y", "g", seed=9, registry=registry)
        assert fingerprint(p1.train) == fingerprint(p2.train)
        assert fingerprint(p1.test) == fingerprint(p2.test)

    def test_rows_cover_input(self, registry):
        df = self.make()
        p = split_group(df, "y", "g", seed=2, registry=registry)
        combined = []
        for m in members(p):
            combined.extend(row_multiset(m))
        assert sorted(combined) == row_multiset(df)


def test_nan_ratio_rejected():
    df = make_classification_frame(30)
    for ratios in ((float("nan"), 0.5, 0.5), (0.5, float("nan"), 0.5)):
        with pytest.raises(PartitionError, match="positive"):
            split(df, "y", ratios=ratios)

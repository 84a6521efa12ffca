import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holdout.errors import ConfigError
from holdout.scoring import (
    _tied_ranks,
    accuracy,
    log_loss,
    mae,
    metric_names,
    r2,
    rmse,
    roc_auc,
    score,
)


def brute_force_auc(labels, scores):
    """Pair-counting oracle: P(pos outranks neg), ties count half."""
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    if not pos or not neg:
        return 0.5
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0, 1], [0.2, 0.8]) == 1.0

    def test_all_tied_scores(self):
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_hand_case_five_sixths(self):
        got = roc_auc([0, 0, 1, 1, 1], [0.1, 0.4, 0.35, 0.8, 0.9])
        assert abs(got - 5.0 / 6.0) < 1e-12

    def test_reversed_ranking(self):
        assert roc_auc([1, 0], [0.2, 0.8]) == 0.0

    def test_single_class_degenerate(self):
        assert roc_auc([1, 1], [0.2, 0.8]) == 0.5
        assert roc_auc([0, 0], [0.2, 0.8]) == 0.5

    def test_matches_brute_force_on_random_frames(self):
        rng = np.random.Generator(np.random.Philox(77))
        for _ in range(300):
            n = int(rng.integers(2, 51))
            labels = [int(v) for v in rng.integers(0, 2, n)]
            # Quantized scores force plenty of exact ties.
            scores = [round(float(v), 1) for v in rng.random(n)]
            got = roc_auc(labels, scores)
            want = brute_force_auc(labels, scores)
            assert abs(got - want) < 1e-12


def _reference_tied_ranks(values):
    """The per-element loop the library first shipped: a run extends while
    the next sorted value == the run's first, so NaN never ties and ±0.0 do."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


def _reference_auc(labels, scores):
    t = np.asarray(labels, dtype=np.float64)
    pos = t >= 0.5
    n_pos = int(pos.sum())
    n_neg = len(t) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    pos_rank_sum = float(_reference_tied_ranks(np.asarray(scores, dtype=np.float64))[pos].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


SCORE_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(
    scores=st.lists(SCORE_CELLS, min_size=0, max_size=60),
    labels=st.lists(st.sampled_from([0, 1]), min_size=60, max_size=60),
)
@settings(max_examples=300, deadline=None)
def test_tied_ranks_and_auc_equal_reference(scores, labels):
    values = np.array(scores, dtype=np.float64)
    assert _tied_ranks(values).tobytes() == _reference_tied_ranks(values).tobytes()
    if scores:
        labels = labels[: len(scores)]
        assert roc_auc(labels, scores).hex() == _reference_auc(labels, scores).hex()


class TestOtherMetrics:
    def test_accuracy_threshold(self):
        assert accuracy([0, 1, 1, 0], [0.4, 0.6, 0.3, 0.2]) == 0.75

    def test_log_loss_clamps(self):
        val = log_loss([1, 0], [0.0, 1.0])  # would be inf unclamped
        assert math.isfinite(val)
        # Both terms clamp to ~-log(1e-15) = 34.54; float rounding of
        # 1-(1-1e-15) shifts the second term slightly.
        assert abs(val - (-math.log(1e-15))) < 1e-3

    def test_log_loss_hand_value(self):
        want = -(math.log(0.8) + math.log(0.7)) / 2
        assert abs(log_loss([1, 0], [0.8, 0.3]) - want) < 1e-12

    def test_rmse_mae_r2_against_numpy(self):
        rng = np.random.Generator(np.random.Philox(3))
        y = rng.normal(size=40)
        p = y + rng.normal(scale=0.3, size=40)
        assert abs(rmse(y, p) - float(np.sqrt(np.mean((y - p) ** 2)))) < 1e-12
        assert abs(mae(y, p) - float(np.mean(np.abs(y - p)))) < 1e-12
        want_r2 = 1 - np.sum((y - p) ** 2) / np.sum((y - np.mean(y)) ** 2)
        assert abs(r2(y, p) - float(want_r2)) < 1e-12

    def test_r2_constant_target(self):
        assert r2([2.0, 2.0], [2.0, 2.0]) == 1.0
        assert r2([2.0, 2.0], [1.0, 3.0]) == 0.0

    def test_perfect_regression(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert r2([1.0, 2.0], [1.0, 2.0]) == 1.0


class TestScoreDispatch:
    def test_default_sets(self):
        assert metric_names("classification") == ("accuracy", "roc_auc", "log_loss")
        assert metric_names("regression") == ("rmse", "mae", "r2")

    def test_explicit_selection(self):
        out = score("classification", [0, 1], [0.1, 0.9], ["roc_auc"])
        assert set(out) == {"roc_auc"}

    def test_unknown_metric(self):
        with pytest.raises(ConfigError, match="unknown"):
            score("classification", [0, 1], [0.1, 0.9], ["f1"])

    @pytest.mark.parametrize(
        "task, name",
        [("classification", "rmse"), ("classification", "r2"),
         ("regression", "accuracy"), ("regression", "roc_auc"), ("regression", "log_loss")],
    )
    def test_metric_of_the_other_task_rejected(self, task, name):
        with pytest.raises(ConfigError, match=f"'{name}'.* {task} task"):
            score(task, [0, 1, 1], [0.2, 0.8, 0.4], [name])

    def test_unknown_metric_named_before_the_other_task(self):
        with pytest.raises(ConfigError, match=r"unknown metrics: \['f1'\]"):
            score("classification", [0, 1], [0.1, 0.9], ["rmse", "f1"])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigError):
            score("classification", [], [])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            score("regression", [1.0], [1.0, 2.0])

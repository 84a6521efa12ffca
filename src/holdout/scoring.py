"""Shared scoring routines used by evaluation, assessment and the strategy verbs."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

LOG_LOSS_CLAMP = 1e-15

CLASSIFICATION_METRICS = ("accuracy", "roc_auc", "log_loss")
REGRESSION_METRICS = ("rmse", "mae", "r2")

# Cross-validated fits report these on scores_.
CV_METRICS = {
    "classification": ("accuracy", "roc_auc"),
    "regression": ("rmse", "r2"),
}

# Higher is better for the primary metric of each task.
PRIMARY_METRIC = {"classification": "roc_auc", "regression": "r2"}


def _as_arrays(y_true, y_score) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(y_true, dtype=np.float64)
    s = np.asarray(y_score, dtype=np.float64)
    if t.shape != s.shape:
        raise ConfigError(f"shape mismatch: {t.shape} labels vs {s.shape} scores")
    if t.size == 0:
        raise ConfigError("cannot score an empty frame")
    return t, s


def accuracy(y_true, y_score) -> float:
    t, s = _as_arrays(y_true, y_score)
    return float(np.mean((s >= 0.5) == (t >= 0.5)))


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; runs of equal values share the average of their ranks.
    A run starts where sorted neighbours differ: NaN never ties, ±0.0 do."""
    order = np.argsort(values, kind="mergesort")
    v = values[order]
    starts = np.flatnonzero(np.concatenate(([len(v) > 0], v[1:] != v[:-1])))
    counts = np.diff(np.append(starts, len(v)))
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((2 * starts + counts + 1) / 2.0, counts)  # mean of a run's ranks
    return ranks


def roc_auc(y_true, y_score) -> float:
    """Rank-based AUC with ties averaged.

    Equals the probability that a random positive outranks a random
    negative, counting ties as half. Degenerate single-class inputs return
    0.5 so fold averages stay finite.
    """
    t, s = _as_arrays(y_true, y_score)
    pos = t >= 0.5
    n_pos = int(pos.sum())
    n_neg = len(t) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    ranks = _tied_ranks(s)
    pos_rank_sum = float(ranks[pos].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def log_loss(y_true, y_score) -> float:
    t, s = _as_arrays(y_true, y_score)
    p = np.clip(s, LOG_LOSS_CLAMP, 1.0 - LOG_LOSS_CLAMP)
    return float(-np.mean(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)))


def rmse(y_true, y_pred) -> float:
    t, p = _as_arrays(y_true, y_pred)
    return float(math.sqrt(np.mean((t - p) ** 2)))


def mae(y_true, y_pred) -> float:
    t, p = _as_arrays(y_true, y_pred)
    return float(np.mean(np.abs(t - p)))


def r2(y_true, y_pred) -> float:
    t, p = _as_arrays(y_true, y_pred)
    ss_res = float(np.sum((t - p) ** 2))
    ss_tot = float(np.sum((t - np.mean(t)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


_METRIC_FUNCS = {
    "accuracy": accuracy,
    "roc_auc": roc_auc,
    "log_loss": log_loss,
    "rmse": rmse,
    "mae": mae,
    "r2": r2,
}


def metric_names(task: str) -> tuple[str, ...]:
    return CLASSIFICATION_METRICS if task == "classification" else REGRESSION_METRICS


def unknown_metrics(names) -> list[str]:
    """The names that neither task's metric table holds."""
    return [n for n in names if n not in _METRIC_FUNCS]


def score(task: str, y_true, y_pred, metrics=None) -> dict[str, float]:
    """Compute the named metrics (default set depends on the task); a name
    of the other task's table is rejected, not computed."""
    allowed = metric_names(task)
    names = tuple(metrics) if metrics else allowed
    unknown = unknown_metrics(names)
    if unknown:
        raise ConfigError(f"unknown metrics: {unknown}")
    foreign = [n for n in names if n not in allowed]
    if foreign:
        raise ConfigError(
            f"metrics {foreign} do not apply to a {task} task; choose from {list(allowed)}"
        )
    return {name: _METRIC_FUNCS[name](y_true, y_pred) for name in names}

"""Desk-scale leakage demonstrations.

Each demo pairs the honest protocol (model chosen without test feedback,
one terminal assessment) against a leaky protocol run with guards off, over
many synthetic replicates, and reports the mean paired inflation with a
one-sided sign-test p-value. Only the direction of the effect is claimed;
magnitudes at this scale are noise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .frame import DataFrame
from .judge import assess, evaluate
from .learn import fit
from .registry import ProvenanceRegistry
from .rng import generator
from .rotate import cv
from .signatures import Count, check_arguments
from .split import split
from .strategy import screen

DEMO_KINDS = ("seed_selection", "screen_selection", "duplicate_injection")

# Two well-separated Gaussians: honest accuracy ~0.75-0.80 leaves visible
# headroom for inflation.
DEMO_ROWS = 200
DEMO_FEATURES = 5
DEMO_SHIFT = 1.0

# Small forests keep seed-to-seed variance visible and replicates cheap.
FOREST_DEMO_HP = {"n_trees": 8, "max_depth": 4}
SCREEN_ALGOS = ("logistic", "decision_tree", "random_forest", "knn")
SCREEN_HP = {"random_forest": {"n_trees": 10, "max_depth": 4}}


def two_gaussian_frame(
    n: int = DEMO_ROWS,
    n_features: int = DEMO_FEATURES,
    shift: float = DEMO_SHIFT,
    seed: int = 0,
) -> DataFrame:
    """Balanced binary classification data; the first two features carry
    the class signal, the rest are noise."""
    rng = generator(seed)
    half = n // 2
    labels = np.array([0] * half + [1] * (n - half))
    X = rng.normal(size=(n, n_features))
    X[labels == 1, 0] += shift
    X[labels == 1, 1] += shift
    columns = {f"f{j}": X[:, j] for j in range(n_features)}
    columns["y"] = labels
    return DataFrame(columns)


def sign_test_p(positives: int, n: int) -> float:
    """One-sided exact binomial tail: P(X >= positives) for X ~ Bin(n, 1/2)."""
    if n == 0:
        return 1.0
    total = sum(math.comb(n, i) for i in range(positives, n + 1))
    return total / 2.0**n


def _summarize(kind: str, metric: str, diffs: list[float], extra: dict | None = None) -> dict:
    arr = np.asarray(diffs)
    positives = int((arr > 0).sum())
    negatives = int((arr < 0).sum())
    ties = int((arr == 0).sum())
    p = sign_test_p(positives, positives + negatives)
    report = {
        "kind": kind,
        "metric": metric,
        "replicates": len(diffs),
        "mean_inflation": float(arr.mean()),
        "positive": positives,
        "negative": negatives,
        "ties": ties,
        "p_value": p,
        "direction_confirmed": bool(arr.mean() > 0 and p < 0.05),
    }
    if extra:
        report.update(extra)
    return report


def _replicate_seeds(seed: int, replicates: int) -> list[int]:
    ss = np.random.SeedSequence(seed)
    return [int(child.generate_state(1)[0]) for child in ss.spawn(replicates)]


def _seed_selection_once(rep_seed: int, n_seeds: int) -> float:
    df = two_gaussian_frame(seed=rep_seed)

    honest_reg = ProvenanceRegistry()
    s = split(df, "y", seed=rep_seed, registry=honest_reg)
    honest_model = fit(
        s.dev, "y", algorithm="random_forest", seed=0,
        hyperparameters=FOREST_DEMO_HP, registry=honest_reg,
    )
    honest = assess(honest_model, s.test, registry=honest_reg)["roc_auc"]

    leaky_reg = ProvenanceRegistry()
    leaky_reg.set_guards("off")
    s2 = split(df, "y", seed=rep_seed, registry=leaky_reg)
    best = -math.inf
    for model_seed in range(n_seeds):
        m = fit(
            s2.dev, "y", algorithm="random_forest", seed=model_seed,
            hyperparameters=FOREST_DEMO_HP, registry=leaky_reg,
        )
        best = max(best, evaluate(m, s2.test, registry=leaky_reg)["roc_auc"])
    return best - honest


def _screen_selection_once(rep_seed: int) -> float:
    df = two_gaussian_frame(seed=rep_seed)

    honest_reg = ProvenanceRegistry()
    s = split(df, "y", seed=rep_seed, registry=honest_reg)
    rotation = cv(s, 3, seed=rep_seed, registry=honest_reg)
    board = screen(
        rotation, "y", algorithms=SCREEN_ALGOS, seed=0,
        hyperparameters=SCREEN_HP, registry=honest_reg,
    )
    winner = fit(
        s.dev, "y", algorithm=board.best, seed=0,
        hyperparameters=SCREEN_HP.get(board.best), registry=honest_reg,
    )
    honest = assess(winner, s.test, registry=honest_reg)["roc_auc"]

    leaky_reg = ProvenanceRegistry()
    leaky_reg.set_guards("off")
    s2 = split(df, "y", seed=rep_seed, registry=leaky_reg)
    best = -math.inf
    for algo in SCREEN_ALGOS:
        m = fit(
            s2.dev, "y", algorithm=algo, seed=0,
            hyperparameters=SCREEN_HP.get(algo), registry=leaky_reg,
        )
        best = max(best, evaluate(m, s2.test, registry=leaky_reg)["roc_auc"])
    return best - honest


def _append_rows(df: DataFrame, other: DataFrame, indices) -> DataFrame:
    columns = {}
    for name in df.column_names:
        cells = other.column(name)
        extra = tuple(cells[i] for i in indices)
        columns[name] = df.column(name) + extra
    return DataFrame(columns)


def _duplicate_injection_once(rep_seed: int, algorithm: str, hp: dict | None) -> float:
    df = two_gaussian_frame(seed=rep_seed)

    honest_reg = ProvenanceRegistry()
    s = split(df, "y", seed=rep_seed, registry=honest_reg)
    honest_model = fit(
        s.dev, "y", algorithm=algorithm, seed=0, hyperparameters=hp,
        registry=honest_reg,
    )
    honest = assess(honest_model, s.test, registry=honest_reg)["accuracy"]

    leaky_reg = ProvenanceRegistry()
    leaky_reg.set_guards("off")
    s2 = split(df, "y", seed=rep_seed, registry=leaky_reg)
    rng = generator(rep_seed)
    n_dup = max(1, int(round(0.10 * s2.test.row_count)))
    picked = sorted(int(i) for i in rng.choice(s2.test.row_count, size=n_dup, replace=False))
    contaminated = _append_rows(s2.dev, s2.test, picked)
    leaky_model = fit(
        contaminated, "y", algorithm=algorithm, seed=0, hyperparameters=hp,
        registry=leaky_reg,
    )
    leaky = evaluate(leaky_model, s2.test, registry=leaky_reg)["accuracy"]
    return leaky - honest


def demo_leakage(kind: str, replicates: int = 50, seed: Count = 0, n_seeds: int = 10) -> dict:
    """Run one leakage demonstration and report the paired effect."""
    check_arguments(demo_leakage, locals())
    if kind not in DEMO_KINDS:
        raise ConfigError(f"unknown demo kind {kind!r}; expected one of {list(DEMO_KINDS)}")
    if replicates < 20:
        raise ConfigError(
            f"need at least 20 replicates for a meaningful sign test, got {replicates}"
        )
    if n_seeds < 1:  # the leaky arm picks the best of n_seeds fits
        raise ConfigError(f"n_seeds must be at least 1, got {n_seeds}")
    rep_seeds = _replicate_seeds(seed, replicates)

    if kind == "seed_selection":
        diffs = [_seed_selection_once(rs, n_seeds) for rs in rep_seeds]
        return _summarize(kind, "roc_auc", diffs, {"n_seeds": n_seeds})

    if kind == "screen_selection":
        diffs = [_screen_selection_once(rs) for rs in rep_seeds]
        return _summarize(kind, "roc_auc", diffs, {"algorithms": list(SCREEN_ALGOS)})

    # duplicate_injection: memorization inflation, capacity-dependent.
    tree_diffs = [_duplicate_injection_once(rs, "decision_tree", None) for rs in rep_seeds]
    logistic_diffs = [_duplicate_injection_once(rs, "logistic", None) for rs in rep_seeds]
    tree_report = _summarize(kind, "accuracy", tree_diffs)
    logistic_report = _summarize(kind, "accuracy", logistic_diffs)
    return {
        "kind": kind,
        "metric": "accuracy",
        "replicates": replicates,
        "inflation": {
            "decision_tree": tree_report["mean_inflation"],
            "logistic": logistic_report["mean_inflation"],
        },
        "p_value": {
            "decision_tree": tree_report["p_value"],
            "logistic": logistic_report["p_value"],
        },
        "capacity_ordering_confirmed": bool(
            tree_report["mean_inflation"] >= logistic_report["mean_inflation"]
        ),
        "direction_confirmed": tree_report["direction_confirmed"],
    }

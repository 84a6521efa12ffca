"""Desk-scale leakage demonstrations.

Each demo pairs the honest protocol (model chosen without test feedback,
one terminal assessment) against a leaky protocol run with guards off, over
many synthetic replicates, and reports the mean paired inflation with a
one-sided sign-test p-value. Only the direction of the effect is claimed;
magnitudes at this scale are noise.
"""

from __future__ import annotations

import math
from typing import Literal, get_args

import numpy as np

from .errors import ConfigError
from .frame import DataFrame
from .judge import assess, evaluate
from .learn import fit
from .registry import ProvenanceRegistry
from .rng import generator, replicate_seeds
from .rotate import cv
from .signatures import Count, Positive, check_arguments
from .split import split
from .strategy import screen

DemoKind = Literal["seed_selection", "screen_selection", "duplicate_injection"]
DEMO_KINDS = get_args(DemoKind)

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


def _summarize(kind: str, metric: str, diffs: list[float]) -> dict:
    arr = np.asarray(diffs)
    positives = int((arr > 0).sum())
    negatives = int((arr < 0).sum())
    ties = int((arr == 0).sum())
    p = sign_test_p(positives, positives + negatives)
    return {
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


def _arms(rep_seed: int):
    """The replicate's frame split with its seed twice, as (partition, registry)
    pairs: the honest arm guarded, the leaky arm with guards off."""
    df = two_gaussian_frame(seed=rep_seed)
    registries = [ProvenanceRegistry(), ProvenanceRegistry()]
    registries[1].set_guards("off")
    return [(split(df, "y", seed=rep_seed, registry=reg), reg) for reg in registries]


def _assessed(s, reg, metric: str, algorithm: str, hp: dict | None = None) -> float:
    """The honest arm's one score: a seed-0 fit on dev, assessed once."""
    model = fit(s.dev, "y", algorithm=algorithm, seed=0, hyperparameters=hp, registry=reg)
    return assess(model, s.test, registry=reg)[metric]


def _best_on_test(s, reg, metric: str, candidates) -> float:
    """The leaky arm's score: the best test score over (algorithm, seed,
    hyperparameters) fits on dev."""
    models = (fit(s.dev, "y", algorithm=algorithm, seed=seed, hyperparameters=hp, registry=reg)
              for algorithm, seed, hp in candidates)
    return max(evaluate(m, s.test, registry=reg)[metric] for m in models)


def _seed_selection_once(rep_seed: int, n_seeds: int) -> float:
    honest, leaky = _arms(rep_seed)
    seeds = [("random_forest", seed, FOREST_DEMO_HP) for seed in range(n_seeds)]
    return (_best_on_test(*leaky, "roc_auc", seeds)
            - _assessed(*honest, "roc_auc", "random_forest", FOREST_DEMO_HP))


def _screen_selection_once(rep_seed: int) -> float:
    (s, reg), leaky = _arms(rep_seed)
    rotation = cv(s, 3, seed=rep_seed, registry=reg)
    best = screen(
        rotation, "y", algorithms=SCREEN_ALGOS, seed=0, hyperparameters=SCREEN_HP, registry=reg,
    ).best
    algorithms = [(algorithm, 0, SCREEN_HP.get(algorithm)) for algorithm in SCREEN_ALGOS]
    return (_best_on_test(*leaky, "roc_auc", algorithms)
            - _assessed(s, reg, "roc_auc", best, SCREEN_HP.get(best)))


def _duplicate_injection_once(rep_seed: int, algorithm: str) -> float:
    honest, (s, reg) = _arms(rep_seed)
    n_dup = max(1, round(0.10 * s.test.row_count))
    picked = sorted(generator(rep_seed).choice(s.test.row_count, size=n_dup, replace=False))
    contaminated = DataFrame({
        name: s.dev.column(name) + tuple(s.test.column(name)[i] for i in picked)
        for name in s.dev.column_names
    })
    model = fit(contaminated, "y", algorithm=algorithm, seed=0, registry=reg)
    leaky = evaluate(model, s.test, registry=reg)["accuracy"]
    return leaky - _assessed(*honest, "accuracy", algorithm)


def demo_leakage(kind: DemoKind, replicates: int = 50, seed: Count = 0,
                 n_seeds: Positive = 10) -> dict:
    """Run one leakage demonstration and report the paired effect."""
    check_arguments(demo_leakage, locals())
    if replicates < 20:
        raise ConfigError(
            f"need at least 20 replicates for a meaningful sign test, got {replicates}"
        )
    rep_seeds = replicate_seeds(seed, replicates)

    if kind == "seed_selection":
        diffs = [_seed_selection_once(rs, n_seeds) for rs in rep_seeds]
        return {**_summarize(kind, "roc_auc", diffs), "n_seeds": n_seeds}

    if kind == "screen_selection":
        diffs = [_screen_selection_once(rs) for rs in rep_seeds]
        return {**_summarize(kind, "roc_auc", diffs), "algorithms": list(SCREEN_ALGOS)}

    # duplicate_injection: memorization inflation, capacity-dependent.
    reports = {
        algorithm: _summarize(kind, "accuracy",
                              [_duplicate_injection_once(rs, algorithm) for rs in rep_seeds])
        for algorithm in ("decision_tree", "logistic")
    }
    tree, logistic = reports["decision_tree"], reports["logistic"]
    return {
        "kind": kind,
        "metric": "accuracy",
        "replicates": replicates,
        "inflation": {algorithm: r["mean_inflation"] for algorithm, r in reports.items()},
        "p_value": {algorithm: r["p_value"] for algorithm, r in reports.items()},
        "capacity_ordering_confirmed": bool(tree["mean_inflation"] >= logistic["mean_inflation"]),
        "direction_confirmed": tree["direction_confirmed"],
    }

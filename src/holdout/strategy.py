"""Strategy verbs built from the kernel primitives: screen, tune, stack.

Every trial inside a strategy consumes the same rotation folds, talks to
the shared scorer directly, and never sees test-role data; the registry's
assessment state is untouched by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

import numpy as np

from . import learners
from .errors import ConfigError
from .learn import StackedModel, _cross_validate, _refit_on_dev
from .prepare import infer_task
from .registry import ProvenanceRegistry
from .rng import generator
from .rotate import CVResult
from .scoring import PRIMARY_METRIC
from .signatures import Count, Positive, check_arguments


@dataclass(frozen=True)
class Leaderboard:
    """Algorithms ranked by mean cross-validated primary metric, descending;
    metric ties break by algorithm name."""

    rows: tuple[tuple[str, dict], ...]
    best: str
    metric: str


@dataclass(frozen=True)
class TuningResult:
    """Hyperparameter trials with their mean cross-validated metrics; best
    attains the maximum primary metric, ties going to the earliest trial."""

    trials: tuple[tuple[dict, dict], ...]
    best: dict
    metric: str


def _runs(algorithms: list, hyperparameters) -> list[tuple[str, Mapping | None]]:
    """One (algorithm, hyperparameters) run per algorithm. A hyperparameters
    key that names no algorithm in the list would be ignored, so it fails."""
    per_algo = dict(hyperparameters or {})
    stray = [name for name in per_algo if name not in algorithms]
    if stray:
        raise ConfigError(
            f"hyperparameters key {stray[0]!r} is not one of {algorithms}; nothing would use it"
        )
    return [(algo, per_algo.get(algo)) for algo in algorithms]


def screen(
    c: CVResult,
    target: str | None = None,
    algorithms: Sequence[str] = (),
    seed: Count = 0,
    hyperparameters: Mapping[str, Mapping] | None = None,
    registry: ProvenanceRegistry | None = None,
) -> Leaderboard:
    """Cross-validated comparison of algorithms on identical folds.

    Returns a Leaderboard ordered by the task's primary metric. Screening
    happens entirely in the iterate zone: the registry's assessed flags are
    unchanged afterwards. All candidates share one pass over the folds and
    none is refit on dev. Every candidate's hyperparameters are checked
    before any training, so an unknown one fails fast.
    """
    check_arguments(screen, locals())
    algorithms = list(algorithms)
    if not algorithms:
        raise ConfigError("screen requires at least one algorithm")
    cvr = _cross_validate(c, target, _runs(algorithms, hyperparameters), seed, None, registry)
    metric = PRIMARY_METRIC[cvr.task]
    ranked = sorted(zip(algorithms, cvr.scores), key=lambda row: (-row[1][metric], row[0]))
    return Leaderboard(rows=tuple(ranked), best=ranked[0][0], metric=metric)


def _grid_trials(space: Mapping[str, Sequence], budget: int) -> list[dict]:
    # Lexicographic: sorted parameter names, values in their given order.
    names = sorted(space)
    combos = itertools.product(*(list(space[n]) for n in names))
    return [dict(zip(names, combo)) for combo in itertools.islice(combos, budget)]


def _random_trials(space: Mapping[str, Sequence], budget: int, seed: int) -> list[dict]:
    rng = generator(seed)
    values = {n: list(space[n]) for n in sorted(space)}
    return [
        {n: v[int(rng.integers(0, len(v)))] for n, v in values.items()} for _ in range(budget)
    ]


def tune(
    c: CVResult,
    target: str | None = None,
    algorithm: str | None = "logistic",
    space: Mapping[str, Sequence] | None = None,
    budget: Positive = 10,
    method: Literal["grid", "random"] = "grid",
    seed: Count = 0,
    registry: ProvenanceRegistry | None = None,
) -> TuningResult:
    """Hyperparameter search over identical folds.

    Grid enumerates the cross-product of the space in lexicographic order,
    capped at `budget`; random draws `budget` seeded samples. Every trial
    scores exactly as a cross-validated fit would; trials share one pass
    over the folds and none is refit on dev. Every trial's hyperparameters
    are checked before any training, so an unknown one fails fast.
    """
    check_arguments(tune, locals())
    if not space:
        raise ConfigError("tune requires a nonempty search space")
    for name, values in space.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(
                f"search dimension {name!r} must be a nonempty list of values, got {values!r}"
            )
    trial_params = (_grid_trials(space, budget) if method == "grid"
                    else _random_trials(space, budget, seed))

    cvr = _cross_validate(
        c, target, [(algorithm, params) for params in trial_params], seed, None, registry
    )
    metric = PRIMARY_METRIC[cvr.task]
    trials = list(zip(trial_params, cvr.scores))
    best_index = max(
        range(len(trials)), key=lambda i: (trials[i][1][metric], -i)
    )
    return TuningResult(
        trials=tuple(trials), best=dict(trials[best_index][0]), metric=metric
    )


def stack(
    c: CVResult,
    target: str | None = None,
    base_algorithms: Sequence[str] = (),
    meta_algorithm: str = "logistic",
    seed: Count = 0,
    hyperparameters: Mapping[str, Mapping] | None = None,
    registry: ProvenanceRegistry | None = None,
) -> StackedModel:
    """Out-of-fold stacking: the meta learner trains only on predictions a
    base model made for rows its fold excluded from training.

    Final base models are refit on the full dev set; the meta learner keeps
    the out-of-fold fit and trains on its defaults, so `hyperparameters`
    names base algorithms only.
    """
    check_arguments(stack, locals())
    base_algorithms = list(base_algorithms)
    if len(base_algorithms) < 2:
        raise ConfigError("stack requires at least 2 base algorithms")
    runs = _runs(base_algorithms, hyperparameters)
    meta_hp = learners.resolve_hyperparameters(meta_algorithm, None)
    learners.check_task(meta_algorithm, infer_task(c._dev_frame._col(c.target)))
    cvr = _cross_validate(c, target, runs, seed, None, registry)
    covered = ~np.isnan(cvr.oof).any(axis=1)
    meta_state = learners.train(
        meta_algorithm, cvr.oof[covered], cvr.y[covered], meta_hp, seed, cvr.task
    )
    base_models = tuple(
        _refit_on_dev(c, cvr, r, seed) for r in range(len(base_algorithms))
    )
    return StackedModel(
        base=base_models,
        meta=meta_state,
        base_algorithms=tuple(base_algorithms),
        task=cvr.task,
        target=cvr.target,
        source_split_id=c.source_split_id,
        classes=cvr.classes,
        guards_bypassed=cvr.bypassed,
    )

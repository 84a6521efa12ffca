"""Native learners: logistic and linear regression, CART, random forest, kNN.

Every learner trains on a float64 matrix, predicts a single numeric column
(class-1 probability for classification, a point estimate for regression),
and is deterministic given its seed. State is plain data so fitted models
serialize to JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .rng import check_seed, generator

ALGORITHMS = ("logistic", "linear", "decision_tree", "random_forest", "knn")

DEFAULT_HYPERPARAMETERS: dict[str, dict] = {
    "logistic": {"learning_rate": 0.1, "max_iter": 2000, "tol": 1e-8, "l2": 0.0},
    "linear": {"ridge": 0.0},
    "decision_tree": {"max_depth": 6, "min_leaf": 2},
    "random_forest": {"n_trees": 50, "max_depth": 6, "min_leaf": 2, "max_features": "sqrt"},
    "knn": {"k": 5},
}


# Each hyperparameter's domain: (type, lower bound, bound allowed, other
# choices). An int is a whole number, 6 and 6.0 alike; a float is finite.
HYPERPARAMETER_DOMAINS: dict[str, tuple[type, float, bool, tuple]] = {
    "learning_rate": (float, 0.0, False, ()),
    "max_iter": (int, 1, True, ()),
    "tol": (float, 0.0, True, ()),
    "l2": (float, 0.0, True, ()),
    "ridge": (float, 0.0, True, ()),
    "max_depth": (int, 0, True, ()),
    "min_leaf": (int, 1, True, ()),
    "n_trees": (int, 1, True, ()),
    "max_features": (int, 1, True, ("sqrt",)),
    "k": (int, 1, True, ()),
}


def _in_domain(value, kind: type, bound: float, allowed: bool, choices: tuple) -> bool:
    if isinstance(value, (str, bool)):
        return value in choices
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        return False  # not a number, or int() of inf or NaN
    whole = kind is float or not isinstance(value, (float, np.floating)) or number == value
    return whole and math.isfinite(number) and (number >= bound if allowed else number > bound)


def resolve_hyperparameters(algorithm: str, overrides) -> dict:
    """The algorithm's defaults with `overrides` applied, each value checked
    against its domain before any training."""
    if algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; expected one of {list(ALGORITHMS)}"
        )
    if overrides is not None and not isinstance(overrides, Mapping):
        raise ConfigError(
            f"hyperparameters for {algorithm!r} must be a mapping, got {overrides!r}"
        )
    hp = dict(DEFAULT_HYPERPARAMETERS[algorithm])
    for key, value in (overrides or {}).items():
        if key not in hp:
            raise ConfigError(f"unknown hyperparameter {key!r} for {algorithm!r}")
        kind, bound, allowed, choices = domain = HYPERPARAMETER_DOMAINS[key]
        if not _in_domain(value, *domain):
            expected = f"{'a whole' if kind is int else 'a finite'} number "
            expected += f"{'>=' if allowed else '>'} {bound}"
            expected += "".join(f" or {c!r}" for c in choices)
            raise ConfigError(
                f"hyperparameter {key!r} for {algorithm!r} must be {expected}, got {value!r}"
            )
        hp[key] = value
    return hp


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) where z >= 0 and e^z / (1 + e^z) elsewhere: e never
    overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass
class LogisticState:
    weights: list[float]
    bias: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(X @ np.asarray(self.weights) + self.bias)

    def to_dict(self) -> dict:
        return {"weights": self.weights, "bias": self.bias}


def fit_logistic(X: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> LogisticState:
    """Full-batch gradient descent on the log-loss, optional L2 penalty.
    Labels are 0.0 or 1.0 (`encode_target`), so a row's loss is the log of
    its own label's probability. A mean is np.mean's pairwise sum over n."""
    n, p = X.shape
    w = np.zeros(p)
    b = 0.0
    lr = float(hp["learning_rate"])
    l2 = float(hp["l2"])
    tol = float(hp["tol"])
    positive = y == 1.0
    prev_loss = math.inf
    for _ in range(int(hp["max_iter"])):
        prob = _sigmoid(X @ w + b)
        r = prob - y
        w -= lr * (X.T @ r / n + l2 * w)
        b -= lr * (float(np.add.reduce(r)) / n)
        likelihood = np.where(positive, prob, 1.0 - prob) + 1e-12
        loss = -float(np.add.reduce(np.log(likelihood))) / n + 0.5 * l2 * float(w @ w)
        if abs(prev_loss - loss) < tol:
            break
        prev_loss = loss
    return LogisticState(weights=[float(v) for v in w], bias=float(b))


@dataclass
class LinearState:
    weights: list[float]
    bias: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ np.asarray(self.weights) + self.bias

    def to_dict(self) -> dict:
        return {"weights": self.weights, "bias": self.bias}


def fit_linear(X: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> LinearState:
    """Least squares via the normal equations; falls back to a small ridge
    term when the Gram matrix is singular."""
    n, p = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    gram = Xb.T @ Xb
    rhs = Xb.T @ y
    ridge = float(hp["ridge"])
    if ridge > 0.0:
        gram = gram + ridge * np.eye(p + 1)
    try:
        coef = np.linalg.solve(gram, rhs)
        if not np.all(np.isfinite(coef)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        coef = np.linalg.solve(gram + 1e-8 * np.eye(p + 1), rhs)
    return LinearState(weights=[float(v) for v in coef[:-1]], bias=float(coef[-1]))


# Trees are nested dicts: {"feature", "threshold", "left", "right"} or {"value"}.


def _best_split(Xt, ranks, y, rows, features, criterion, min_leaf):
    """Scan candidate thresholds of every feature at once with cumulative
    sums along the sorted (features x rows) block.

    Returns (cost, feature, threshold) or None. Ties resolve to the first
    feature in `features` order and the lowest threshold, so tree growth is
    deterministic.
    """
    n = len(rows)
    features = features[:, None]
    sorted_rows = rows[np.argsort(ranks[features, rows], axis=1, kind="stable")]
    vs = Xt[features, sorted_rows]
    ys = y[sorted_rows]
    csum = np.cumsum(ys, axis=1)
    csq = np.cumsum(ys * ys, axis=1)
    left_n = np.arange(1, n, dtype=np.float64)
    right_n = n - left_n
    left_mean = csum[:, :-1] / left_n
    right_mean = (csum[:, -1:] - csum[:, :-1]) / right_n
    if criterion == "gini":
        left_imp = 2.0 * left_mean * (1.0 - left_mean)
        right_imp = 2.0 * right_mean * (1.0 - right_mean)
    else:  # variance
        left_imp = csq[:, :-1] / left_n - left_mean**2
        right_imp = (csq[:, -1:] - csq[:, :-1]) / right_n - right_mean**2
    cost = (left_n * left_imp + right_n * right_imp) / n
    allowed = (vs[:, 1:] != vs[:, :-1]) & (left_n >= min_leaf) & (right_n >= min_leaf)
    cost = np.where(allowed, cost, np.inf)
    best = None
    for j, i in enumerate(np.argmin(cost, axis=1)):
        if not np.isfinite(cost[j, i]):
            continue
        if best is None or cost[j, i] < best[0] - 1e-15:
            lower, upper = vs[j, i], vs[j, i + 1]
            # Between adjacent doubles the midpoint can round onto `upper`.
            midpoint = (lower + upper) / 2.0
            threshold = float(lower if midpoint == upper else midpoint)
            best = (float(cost[j, i]), int(features[j, 0]), threshold)
    return best


def _grow_trees(X, y, hp, task, samples, n_subsample=None) -> list[dict]:
    """One CART tree per (rng, rows) sample: gini impurity for classification,
    variance for regression, grown depth first, each node drawing its
    `n_subsample` features from the tree's rng.

    Columns are ranked once per fit: equal values share a rank (0.0 and -0.0
    too) and NaN ranks last, so a node's stable sort of its ranks is a stable
    sort of its values. 16-bit ranks, sorted by radix, hold 65,535 rows.
    """
    Xt = np.ascontiguousarray(X.T)  # feature-major
    ranks = np.empty(Xt.shape, np.uint16 if len(X) <= 65_535 else np.int64)
    for col, out in zip(Xt, ranks):
        out[:] = np.unique(col, return_inverse=True)[1]
    criterion = "gini" if task == "classification" else "variance"
    fit = (Xt, ranks, y, criterion, int(hp["max_depth"]), int(hp["min_leaf"]), n_subsample)
    return [_grow_tree(fit, rows, 0, rng) for rng, rows in samples]


def _grow_tree(fit: tuple, rows: np.ndarray, depth: int, rng) -> dict:
    Xt, ranks, y, criterion, max_depth, min_leaf, n_subsample = fit
    y_rows = y[rows]
    leaf_value = float(y_rows.sum() / len(rows))  # np.mean: NaN when empty
    if depth >= max_depth or len(rows) < 2 * min_leaf or y_rows.min() == y_rows.max():
        return {"value": leaf_value}
    p = len(Xt)
    features = np.arange(p)
    if n_subsample is not None and n_subsample < p:
        features = np.sort(rng.choice(p, size=n_subsample, replace=False))
    found = _best_split(Xt, ranks, y, rows, features, criterion, min_leaf)
    if found is None:
        return {"value": leaf_value}
    cost, feature, threshold = found
    if criterion == "gini":
        impurity = 2.0 * leaf_value * (1.0 - leaf_value)
    else:
        impurity = float((y_rows**2).sum() / len(rows) - leaf_value**2)
    left = Xt[feature, rows] <= threshold
    return {
        "feature": feature,
        "threshold": threshold,
        "gain": max(0.0, float(len(rows) * (impurity - cost))),
        "left": _grow_tree(fit, rows[left], depth + 1, rng),
        "right": _grow_tree(fit, rows[~left], depth + 1, rng),
    }


def _tree_predict(node: dict, X: np.ndarray) -> np.ndarray:
    """Route row indices down the tree; NaN fails `<=`, so it goes right."""
    out = np.empty(len(X))
    stack = [(node, np.arange(len(X)))]
    while stack:
        node, rows = stack.pop()
        if "value" in node:
            out[rows] = node["value"]
        elif len(rows):
            left = X[rows, node["feature"]] <= node["threshold"]
            stack += [(node["left"], rows[left]), (node["right"], rows[~left])]
    return out


def _tree_gains(nodes: list[dict], gains: dict[int, float]) -> dict[int, float]:
    for node in nodes:
        if "value" not in node:
            gains[node["feature"]] = gains.get(node["feature"], 0.0) + node["gain"]
            _tree_gains([node["left"], node["right"]], gains)
    return gains


@dataclass
class TreeState:
    root: dict
    task: str

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _tree_predict(self.root, X)

    def feature_gains(self) -> dict[int, float]:
        return _tree_gains([self.root], {})

    def to_dict(self) -> dict:
        return {"root": self.root, "task": self.task}


def fit_decision_tree(X: np.ndarray, y: np.ndarray, hp: dict, seed: int, task: str) -> TreeState:
    """CART over every row, no feature sampling."""
    [root] = _grow_trees(X, y, hp, task, [(generator(seed), np.arange(len(y)))])
    return TreeState(root=root, task=task)


@dataclass
class ForestState:
    trees: list[dict]
    task: str

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.array([_tree_predict(t, X) for t in self.trees]).mean(axis=0)

    def feature_gains(self) -> dict[int, float]:
        return _tree_gains(self.trees, {})

    def to_dict(self) -> dict:
        return {"trees": self.trees, "task": self.task}


def fit_random_forest(X: np.ndarray, y: np.ndarray, hp: dict, seed: int, task: str) -> ForestState:
    """Bagged CART ensemble with per-split feature subsampling (default √p)."""
    n, p = X.shape
    # A node samples features only when fewer than p are asked for.
    if hp["max_features"] == "sqrt":
        n_subsample = round(math.sqrt(p))
    else:
        n_subsample = int(hp["max_features"])
    # Each tree draws its bootstrap rows, then grows, from its own stream.
    rngs = generator(seed).spawn(int(hp["n_trees"]))
    samples = ((rng, rng.integers(0, n, size=n)) for rng in rngs)
    return ForestState(trees=_grow_trees(X, y, hp, task, samples, n_subsample), task=task)


# Queries per distance block: bounds the (block x train rows x features)
# temporary instead of materialising it for every query at once.
KNN_QUERY_BLOCK = 64


def _nearest(dists: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest values, in stable-sort order:
    equal to `np.argsort(dists, axis=1, kind="mergesort")[:, :k]`, ties
    to the lower index and NaN last, without sorting whole rows.

    A row's k-th smallest value comes from `np.partition`. The row keeps
    every value below it and, of the values tied with it, the lowest
    indices that bring the count to k; a stable sort orders those k.
    """
    if not 1 <= k <= dists.shape[1]:  # degenerate k: the plain definition
        return np.argsort(dists, axis=1, kind="mergesort")[:, :k]
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1 : k]
    nan_kth = np.isnan(kth)
    nan = np.isnan(dists)
    with np.errstate(invalid="ignore"):
        below = (dists < kth) | (nan_kth & ~nan)
        tied = np.where(nan_kth, nan, dists == kth)
    keep = below | tied
    # Only rows with more ties than room need the lowest-index ones picked.
    over = np.flatnonzero(keep.sum(axis=1) > k)
    room = k - below[over].sum(axis=1, keepdims=True)
    keep[over] = below[over] | (tied[over] & (np.cumsum(tied[over], axis=1) <= room))
    chosen = (np.flatnonzero(keep) % dists.shape[1]).reshape(len(dists), k)
    order = np.argsort(np.take_along_axis(dists, chosen, axis=1), axis=1, kind="mergesort")
    return np.take_along_axis(chosen, order, axis=1)


@dataclass(eq=False)  # array fields: == on them would be ambiguous
class KnnState:
    k: int
    task: str
    train_X: np.ndarray = field(repr=False)
    train_y: np.ndarray = field(repr=False)

    def __post_init__(self):
        # C order, as parsed JSON lists give: the distance sums depend on it.
        self.train_X = np.array(self.train_X, dtype=np.float64, order="C")
        self.train_y = np.array(self.train_y, dtype=np.float64)

    def predict(self, X: np.ndarray) -> np.ndarray:
        k = min(self.k, len(self.train_y))
        m = len(X)
        out = np.empty(m)
        for start in range(0, m, KNN_QUERY_BLOCK):
            # The last block is a full one ending at row m, overlapping its
            # predecessor: a lone query row would take numpy's other
            # summation path for the feature sum and change the last bit.
            block = slice(max(0, min(start, m - KNN_QUERY_BLOCK)), start + KNN_QUERY_BLOCK)
            q = X[block]
            dists = np.sqrt(((q[:, None, :] - self.train_X[None, :, :]) ** 2).sum(axis=2))
            out[block] = self.train_y[_nearest(dists, k)].mean(axis=1)
        return out

    def to_dict(self) -> dict:
        return {"k": self.k, "task": self.task, "train_X": self.train_X.tolist(),
                "train_y": self.train_y.tolist()}


def fit_knn(X: np.ndarray, y: np.ndarray, hp: dict, seed: int, task: str) -> KnnState:
    return KnnState(k=int(hp["k"]), task=task, train_X=X, train_y=y)


# The one task an algorithm is restricted to; the others learn both.
_ONLY_TASK = {"logistic": "classification", "linear": "regression"}


def check_task(algorithm: str, task: str) -> None:
    """Reject an algorithm that cannot learn this task, before any training."""
    only = _ONLY_TASK.get(algorithm)
    if only is not None and task != only:
        raise ConfigError(f"{algorithm} supports {only} targets only")


def train(algorithm: str, X: np.ndarray, y: np.ndarray, hp: dict, seed: int, task: str):
    check_seed(seed)
    check_task(algorithm, task)
    if algorithm == "logistic":
        return fit_logistic(X, y, hp, seed)
    if algorithm == "linear":
        return fit_linear(X, y, hp, seed)
    if algorithm == "decision_tree":
        return fit_decision_tree(X, y, hp, seed, task)
    if algorithm == "random_forest":
        return fit_random_forest(X, y, hp, seed, task)
    if algorithm == "knn":
        return fit_knn(X, y, hp, seed, task)
    raise ConfigError(f"unknown algorithm {algorithm!r}")


def state_from_dict(algorithm: str, d: dict):
    if algorithm == "logistic":
        return LogisticState(weights=list(d["weights"]), bias=float(d["bias"]))
    if algorithm == "linear":
        return LinearState(weights=list(d["weights"]), bias=float(d["bias"]))
    if algorithm == "decision_tree":
        return TreeState(root=d["root"], task=d["task"])
    if algorithm == "random_forest":
        return ForestState(trees=d["trees"], task=d["task"])
    if algorithm == "knn":
        return KnnState(
            k=int(d["k"]), task=d["task"], train_X=d["train_X"], train_y=d["train_y"]
        )
    raise ConfigError(f"unknown algorithm {algorithm!r}")

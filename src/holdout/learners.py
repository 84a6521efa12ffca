"""Native learners: logistic and linear regression, CART, random forest, kNN.

Every learner trains on a float64 matrix, predicts a single numeric column
(class-1 probability for classification, a point estimate for regression),
and is deterministic given its seed. State is plain data so fitted models
serialize to JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .rng import generator

ALGORITHMS = ("logistic", "linear", "decision_tree", "random_forest", "knn")

DEFAULT_HYPERPARAMETERS: dict[str, dict] = {
    "logistic": {"learning_rate": 0.1, "max_iter": 2000, "tol": 1e-8, "l2": 0.0},
    "linear": {"ridge": 0.0},
    "decision_tree": {"max_depth": 6, "min_leaf": 2},
    "random_forest": {"n_trees": 50, "max_depth": 6, "min_leaf": 2, "max_features": "sqrt"},
    "knn": {"k": 5},
}


def resolve_hyperparameters(algorithm: str, overrides) -> dict:
    if algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; expected one of {list(ALGORITHMS)}"
        )
    hp = dict(DEFAULT_HYPERPARAMETERS[algorithm])
    for key, value in (overrides or {}).items():
        if key not in hp:
            raise ConfigError(f"unknown hyperparameter {key!r} for {algorithm!r}")
        hp[key] = value
    return hp


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class LogisticState:
    weights: list[float]
    bias: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(X @ np.asarray(self.weights) + self.bias)

    def to_dict(self) -> dict:
        return {"weights": self.weights, "bias": self.bias}


def fit_logistic(X: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> LogisticState:
    """Full-batch gradient descent on the log-loss, optional L2 penalty."""
    n, p = X.shape
    w = np.zeros(p)
    b = 0.0
    lr = float(hp["learning_rate"])
    l2 = float(hp["l2"])
    prev_loss = math.inf
    for _ in range(int(hp["max_iter"])):
        prob = _sigmoid(X @ w + b)
        grad_w = X.T @ (prob - y) / n + l2 * w
        grad_b = float(np.mean(prob - y))
        w -= lr * grad_w
        b -= lr * grad_b
        eps = 1e-12
        loss = float(
            -np.mean(y * np.log(prob + eps) + (1 - y) * np.log(1 - prob + eps))
            + 0.5 * l2 * float(w @ w)
        )
        if abs(prev_loss - loss) < float(hp["tol"]):
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


def _best_split(X, y, rows, features, criterion, min_leaf):
    """Scan candidate thresholds of every feature at once with cumulative
    sums down the sorted (rows x features) block.

    Returns (cost, feature, threshold) or None. Ties resolve to the first
    feature in `features` order and the lowest threshold, so tree growth is
    deterministic.
    """
    n = len(rows)
    v = X[np.ix_(rows, features)]
    order = np.argsort(v, axis=0, kind="mergesort")
    vs = np.take_along_axis(v, order, axis=0)
    ys = y[rows][order]
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    total, total_sq = csum[-1], csq[-1]
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    left_mean = csum[:-1] / left_n
    right_mean = (total - csum[:-1]) / right_n
    if criterion == "gini":
        left_imp = 2.0 * left_mean * (1.0 - left_mean)
        right_imp = 2.0 * right_mean * (1.0 - right_mean)
    else:  # variance
        left_imp = csq[:-1] / left_n - left_mean**2
        right_imp = (total_sq - csq[:-1]) / right_n - right_mean**2
    cost = (left_n * left_imp + right_n * right_imp) / n
    allowed = (vs[1:] != vs[:-1]) & (left_n >= min_leaf) & (right_n >= min_leaf)
    cost = np.where(allowed, cost, np.inf)
    best = None
    for j, i in enumerate(np.argmin(cost, axis=0)):
        if not np.isfinite(cost[i, j]):
            continue
        if best is None or cost[i, j] < best[0] - 1e-15:
            threshold = float((vs[i, j] + vs[i + 1, j]) / 2.0)
            best = (float(cost[i, j]), int(features[j]), threshold)
    return best


def _node_impurity(y_rows: np.ndarray, criterion: str) -> float:
    mean = float(np.mean(y_rows))
    if criterion == "gini":
        return 2.0 * mean * (1.0 - mean)
    return float(np.mean(y_rows**2) - mean**2)


def _grow_tree(X, y, rows, depth, hp, criterion, rng, n_subsample):
    leaf_value = float(np.mean(y[rows]))
    if (
        depth >= int(hp["max_depth"])
        or len(rows) < 2 * int(hp["min_leaf"])
        or np.all(y[rows] == y[rows[0]])
    ):
        return {"value": leaf_value}
    p = X.shape[1]
    if n_subsample is not None and n_subsample < p:
        features = np.sort(rng.choice(p, size=n_subsample, replace=False))
    else:
        features = np.arange(p)
    found = _best_split(X, y, rows, features, criterion, int(hp["min_leaf"]))
    if found is None:
        return {"value": leaf_value}
    cost, feature, threshold = found
    mask = X[rows, feature] <= threshold
    left_rows = rows[mask]
    right_rows = rows[~mask]
    gain = len(rows) * (_node_impurity(y[rows], criterion) - cost)
    return {
        "feature": feature,
        "threshold": threshold,
        "gain": max(0.0, float(gain)),
        "left": _grow_tree(X, y, left_rows, depth + 1, hp, criterion, rng, n_subsample),
        "right": _grow_tree(X, y, right_rows, depth + 1, hp, criterion, rng, n_subsample),
    }


def _tree_predict_one(node: dict, x: np.ndarray) -> float:
    while "value" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["value"]


def _tree_predict(node: dict, X: np.ndarray) -> np.ndarray:
    return np.array([_tree_predict_one(node, x) for x in X])


def _tree_gains(node: dict, gains: dict[int, float]) -> None:
    if "value" in node:
        return
    gains[node["feature"]] = gains.get(node["feature"], 0.0) + node["gain"]
    _tree_gains(node["left"], gains)
    _tree_gains(node["right"], gains)


@dataclass
class TreeState:
    root: dict
    task: str

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _tree_predict(self.root, X)

    def feature_gains(self) -> dict[int, float]:
        gains: dict[int, float] = {}
        _tree_gains(self.root, gains)
        return gains

    def to_dict(self) -> dict:
        return {"root": self.root, "task": self.task}


def fit_decision_tree(X: np.ndarray, y: np.ndarray, hp: dict, seed: int, task: str) -> TreeState:
    """CART with gini impurity (classification) or variance (regression)."""
    criterion = "gini" if task == "classification" else "variance"
    rows = np.arange(len(y))
    root = _grow_tree(X, y, rows, 0, hp, criterion, generator(seed), None)
    return TreeState(root=root, task=task)


@dataclass
class ForestState:
    trees: list[dict]
    task: str

    def predict(self, X: np.ndarray) -> np.ndarray:
        preds = np.array([_tree_predict(t, X) for t in self.trees])
        return preds.mean(axis=0)

    def feature_gains(self) -> dict[int, float]:
        gains: dict[int, float] = {}
        for t in self.trees:
            _tree_gains(t, gains)
        return gains

    def to_dict(self) -> dict:
        return {"trees": self.trees, "task": self.task}


def fit_random_forest(X: np.ndarray, y: np.ndarray, hp: dict, seed: int, task: str) -> ForestState:
    """Bagged CART ensemble with per-split feature subsampling (default √p)."""
    criterion = "gini" if task == "classification" else "variance"
    n, p = X.shape
    max_features = hp["max_features"]
    if max_features == "sqrt":
        n_subsample = max(1, int(round(math.sqrt(p))))
    else:
        n_subsample = max(1, min(int(max_features), p))
    seeds = np.random.SeedSequence(seed).spawn(int(hp["n_trees"]))
    trees = []
    for tree_seq in seeds:
        rng = generator(tree_seq)
        rows = rng.integers(0, n, size=n)  # bootstrap sample
        root = _grow_tree(X, y, rows, 0, hp, criterion, rng, n_subsample)
        trees.append(root)
    return ForestState(trees=trees, task=task)


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

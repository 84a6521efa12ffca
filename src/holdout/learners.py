"""Native learners: logistic and linear regression, CART, random forest, kNN.

Every learner trains on a float64 matrix, predicts a single numeric column
(class-1 probability for classification, a point estimate for regression),
and is deterministic given its seed. State is plain data so fitted models
serialize to JSON. `LEARNERS` declares each algorithm once: how it trains,
its state (whose fields declare its document) and whether a document fits
a model. A fit's `task` annotation names the one task it is limited to, if
any, and its keyword-only parameters declare its hyperparameters, their
defaults and, through the `signatures` table, their domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Mapping, NamedTuple, Sequence, get_args

import numpy as np

from .errors import ConfigError
from .rng import generator, sorted_choices
from .signatures import (Count, Depth, Penalty, Rate, Size, check_arguments, check_document,
                         signature)


def _learner(algorithm: str) -> Learner:
    if algorithm not in LEARNERS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; expected one of {list(LEARNERS)}")
    return LEARNERS[algorithm]


def resolve_hyperparameters(algorithm: str, overrides) -> dict:
    """The algorithm's defaults with `overrides` applied, each value checked
    against its fit's annotation before any training and kept as given."""
    fit = _learner(algorithm).fit
    if overrides is not None and not isinstance(overrides, Mapping):
        raise ConfigError(f"hyperparameters for {algorithm!r} must be a mapping, got {overrides!r}")
    defaults = {name: p.default for name, p in signature(fit).parameters.items()
                if p.kind is p.KEYWORD_ONLY}
    overrides = overrides or {}
    for key in overrides:
        if key not in defaults:
            raise ConfigError(f"unknown hyperparameter {key!r} for {algorithm!r}")
    check_arguments(fit, overrides, lambda key: f"hyperparameter {key!r} for {algorithm!r}")
    return {**defaults, **overrides}


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) where z >= 0 and e^z / (1 + e^z) elsewhere: e never
    overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass
class _Affine:
    """Weights and a bias: the state of the linear family."""

    weights: Sequence[float]
    bias: float

    def importances(self) -> dict[int, float]:
        return {i: abs(float(w)) for i, w in enumerate(self.weights)}

    def to_dict(self) -> dict:
        return {"weights": self.weights, "bias": self.bias}


class LogisticState(_Affine):
    def predict(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(X @ np.asarray(self.weights, dtype=np.float64) + self.bias)


def fit_logistic(X: np.ndarray, y: np.ndarray, seed: int, task: Literal["classification"], *,
                 learning_rate: Rate = 0.1, max_iter: Size = 2000, tol: Penalty = 1e-8,
                 l2: Penalty = 0.0) -> LogisticState:
    """Full-batch gradient descent on the log-loss, optional L2 penalty.
    Labels are 0.0 or 1.0 (`encode_target`), so a row's loss is the log of
    its own label's probability. A mean is np.mean's pairwise sum over n."""
    n, p = X.shape
    w = np.zeros(p)
    b = 0.0
    lr, l2, tol = float(learning_rate), float(l2), float(tol)
    positive = y == 1.0
    prev_loss = math.inf
    for _ in range(int(max_iter)):
        prob = _sigmoid(X @ w + b)
        r = prob - y
        w -= lr * (X.T @ r / n + l2 * w)
        b -= lr * (float(np.add.reduce(r)) / n)
        likelihood = np.where(positive, prob, 1.0 - prob) + 1e-12
        loss = -float(np.add.reduce(np.log(likelihood))) / n + 0.5 * l2 * float(w @ w)
        if abs(prev_loss - loss) < tol:
            break
        prev_loss = loss
    return LogisticState(weights=w.tolist(), bias=b)


class LinearState(_Affine):
    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ np.asarray(self.weights, dtype=np.float64) + self.bias


def fit_linear(X: np.ndarray, y: np.ndarray, seed: int, task: Literal["regression"], *,
               ridge: Penalty = 0.0) -> LinearState:
    """Least squares via the normal equations; falls back to a small ridge
    term when the Gram matrix is singular."""
    n, p = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    gram = Xb.T @ Xb
    rhs = Xb.T @ y
    ridge = float(ridge)
    if ridge > 0.0:
        gram = gram + ridge * np.eye(p + 1)
    try:
        coef = np.linalg.solve(gram, rhs)
        if not np.all(np.isfinite(coef)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        coef = np.linalg.solve(gram + 1e-8 * np.eye(p + 1), rhs)
    return LinearState(weights=coef[:-1].tolist(), bias=float(coef[-1]))


@dataclass
class _Leaf:
    value: float


@dataclass
class _Split:  # rows with X[:, feature] <= threshold go left
    feature: Count
    threshold: float
    gain: float  # impurity decrease, summed per feature by importances()
    left: Mapping  # a _Leaf or a _Split
    right: Mapping


def _trees_fit(trees, features: int) -> bool:
    """Whether every split of `trees` reads a feature below `features`;
    ConfigError for a node neither a _Leaf nor a _Split. Not recursive."""
    stack = list(trees)
    while stack:
        node = stack.pop()
        split = isinstance(node, Mapping) and "value" not in node
        check_document(_Split if split else _Leaf, node, "tree node")
        if split:
            if node["feature"] >= features:
                return False
            stack += node["left"], node["right"]
    return True


def _best_splits(fit: tuple, nodes, features) -> list:
    """(cost, feature, threshold) or None for each node (a row array): the
    best threshold over its row of `features`, found with cumulative sums
    along its sorted (features x rows) block. Ties resolve to the first
    feature in `features` order and the lowest threshold.

    Each node sorts and cumulates its own block. The blocks lie end to end
    in the fit's buffers, and every other step is one elementwise pass.
    """
    Xt, ranks, y, criterion, min_leaf, (floats, order, barred, ramp) = fit
    f = features.shape[1]
    if not f:  # no feature column, no threshold
        return [None] * len(nodes)
    sizes = [len(rows) for rows in nodes]
    lengths = np.repeat(sizes, f)  # cells of each (node, feature) row
    ends = np.cumsum(lengths)
    starts, last, size = ends - lengths, ends - 1, int(ends[-1])
    # take(out=...) buffers its output unless indices are clipped; none is out of range.
    for rows, feats, a, n in zip(nodes, features, starts[::f].tolist(), sizes):
        ranked = ranks.take(feats, axis=0).take(rows, axis=1).argsort(axis=1, kind="stable")
        rows.take(ranked, out=order[a:a + f * n].reshape(f, n), mode="clip")
    order, barred = order[:size], barred[:size]
    csum, vs, left_n, right_n, left_mean, right_mean, csq, right_sq = floats[:, :size]
    y.take(order, out=csum, mode="clip")
    sums = (csum,) if criterion == "gini" else (csum, np.multiply(csum, csum, out=csq))
    for a, n, offsets in zip(starts[::f].tolist(), sizes, features * len(y)):
        for cells in sums:
            block = cells[a:a + f * n].reshape(f, n)
            np.add.accumulate(block, axis=1, out=block)
        block = order[a:a + f * n].reshape(f, n)
        np.add(block, offsets[:, None], out=block)  # cells of Xt
    Xt.take(order, out=vs, mode="clip")
    row = np.repeat(np.arange(len(lengths)), lengths)  # each cell's (node, feature) row
    np.take(starts.astype(np.float64), row, out=left_n, mode="clip")
    np.subtract(ramp[:size], left_n, out=left_n)  # 1, 2, ... n along each row
    np.take(lengths.astype(np.float64), row, out=right_n, mode="clip")
    right_n -= left_n
    right_n[last] = 1.0  # a row's last cell is no candidate: no 0 / 0, and n is off there
    np.divide(csum, left_n, out=left_mean)
    np.take(csum[last], row, out=right_mean, mode="clip")
    right_mean -= csum
    right_mean /= right_n
    if criterion == "gini":  # 2.0 * mean * (1.0 - mean) on each side
        left_imp, right_imp = left_mean, right_mean
        for mean in left_mean, right_mean:
            np.subtract(1.0, mean, out=csum)
            mean *= 2.0
            mean *= csum
    else:  # variance: mean square - mean**2 on each side
        left_imp, right_imp = csq, right_sq
        np.take(csq[last], row, out=right_imp, mode="clip")
        right_imp -= csq
        right_imp /= right_n
        left_imp /= left_n
        left_imp -= np.square(left_mean, out=left_mean)
        right_imp -= np.square(right_mean, out=right_mean)
    cost = np.multiply(left_imp, left_n, out=left_imp)
    cost += np.multiply(right_imp, right_n, out=right_imp)
    cost /= np.add(left_n, right_n, out=csum)  # n
    # No threshold between equal values, nor one leaving a side under
    # min_leaf rows: the first min_leaf - 1 and last min_leaf cells of a row.
    np.equal(vs[1:], vs[:-1], out=barred[:-1])
    barred[starts[:, None] + np.arange(min_leaf - 1)] = True
    barred[last[:, None] - np.arange(min_leaf)] = True
    np.copyto(cost, np.inf, where=barred)
    # Each row's first lowest cost, as np.argmin finds it; a row with no
    # finite one (a NaN is np.argmin's lowest) offers nothing.
    lowest = np.minimum.reduceat(cost, starts)
    hits = np.flatnonzero(np.equal(cost, lowest.take(row, out=right_imp, mode="clip"), out=barred))
    chosen = np.full(len(starts), -1)
    finite = np.isfinite(lowest)
    chosen[finite] = hits[np.searchsorted(hits, starts[finite])]
    costs, chosen = cost[chosen].tolist(), chosen.tolist()
    found = []
    for k, feats in enumerate(features.tolist()):
        best = None
        for j, feature in enumerate(feats, k * f):
            i = chosen[j]
            if i >= 0 and (best is None or costs[j] < best[0] - 1e-15):
                lower, upper = float(vs[i]), float(vs[i + 1])
                # Between adjacent doubles the midpoint can round onto `upper`;
                # near the float64 limit it overflows, silently for Python floats.
                midpoint = (lower + upper) / 2.0
                overflowed = math.isinf(midpoint) and math.isfinite(lower)
                threshold = lower if midpoint == upper or overflowed else midpoint
                best = (costs[j], feature, threshold)
        found.append(best)
    return found


def _grow_trees(X, y, task, max_depth, min_leaf, samples, n_subsample=None) -> list[dict]:
    """One CART tree per (rng, rows) sample: gini impurity for classification,
    variance for regression, each node drawing its `n_subsample` features
    from the tree's rng.

    A tree draws its nodes' feature subsets a block at a time from its own
    stream (`sorted_choices`): the same subsets, in the same order, as one
    `np.sort(rng.choice(...))` per node. A block can reach past the tree's
    last node, but nothing reads a tree's rng once it is grown, so no tree
    moves. A tree searches fewer than 2**max_depth nodes, so a block holds
    that many subsets, and at most 64: past that a subset costs little
    less, while an unused one still costs its draws.

    Trees grow a frontier at a time. Each keeps a depth-first stack of
    pending nodes. In each round a tree that samples features gives its
    next node in pre-order that needs a search, so its rng draws come in
    the order a recursive grower makes them; a tree that samples none
    gives every pending node. `_best_splits` then searches the whole
    frontier in consecutive batches of at most X.size cells, the cells of
    one unsampled root search.

    Columns are ranked once per fit: equal values share a rank (0.0 and -0.0
    too) and NaN ranks last, so a node's stable sort of its ranks is a stable
    sort of its values. 16-bit ranks, sorted by radix, hold 65,535 rows.
    """
    Xt = np.ascontiguousarray(X.T)  # feature-major
    ranks = np.empty(Xt.shape, np.uint16 if len(X) <= 65_535 else np.int64)
    for col, out in zip(Xt, ranks):
        out[:] = np.unique(col, return_inverse=True)[1]
    criterion = "gini" if task == "classification" else "variance"
    max_depth, min_leaf, p = int(max_depth), int(min_leaf), len(Xt)
    fit = (Xt, ranks, y, criterion, min_leaf, (np.empty((8, Xt.size)), np.empty(Xt.size, np.intp),
                                               np.empty(Xt.size, bool), np.arange(1.0, Xt.size + 1)))
    sampled = n_subsample is not None and n_subsample < p
    f = n_subsample if sampled else p
    # A pending node: its rows, its depth and the dict and key it is stored under.
    trees = [(sorted_choices(rng, p, f, 1 << min(max_depth, 6)) if sampled else None,
              [(rows, 0, {}, "root")]) for rng, rows in samples]
    roots = [stack[0][2] for _, stack in trees]
    while True:
        frontier = []
        for subsets, stack in trees:
            while stack:
                rows, depth, parent, key = stack.pop()
                y_rows = y.take(rows)
                total = np.add.reduce(y_rows)
                leaf_value = float(total / len(rows))  # np.mean: NaN when empty
                if depth >= max_depth or len(rows) < 2 * min_leaf or (
                        total == 0.0 or total == len(rows) if criterion == "gini"  # labels are 0.0 or 1.0
                        else np.minimum.reduce(y_rows) == np.maximum.reduce(y_rows)):
                    parent[key] = {"value": leaf_value}
                    continue
                features = next(subsets) if sampled else np.arange(p)
                frontier.append((rows, features, depth, parent, key, leaf_value, stack))
                if sampled:
                    break
        if not frontier:
            return [root["root"] for root in roots]
        # Each batch: the longest run of frontier nodes, from the first not
        # yet searched, that holds at most X.size cells.
        cells, found = np.cumsum([0] + [f * len(node[0]) for node in frontier]), []
        while len(found) < len(frontier):
            stop = np.searchsorted(cells, cells[len(found)] + Xt.size, "right") - 1
            rows, features = zip(*(node[:2] for node in frontier[len(found):stop]))
            found += _best_splits(fit, rows, np.array(features))
        while frontier:  # last first, so each node's rows go once it is split
            (rows, _, depth, parent, key, leaf_value, stack), best = frontier.pop(), found.pop()
            if best is None:
                parent[key] = {"value": leaf_value}
                continue
            cost, feature, threshold = best
            if criterion == "gini":
                impurity = 2.0 * leaf_value * (1.0 - leaf_value)
            else:
                impurity = float((y[rows]**2).sum() / len(rows) - leaf_value**2)
            left = Xt[feature].take(rows) <= threshold
            parent[key] = node = {"feature": feature, "threshold": threshold,
                                  "gain": max(0.0, float(len(rows) * (impurity - cost))),
                                  "left": None, "right": None}
            stack += (rows[~left], depth + 1, node, "right"), (rows[left], depth + 1, node, "left")


def _tree_predict(node: dict, Xt: np.ndarray) -> np.ndarray:
    """Route row indices down the tree, reading feature-major `Xt`; NaN
    fails `<=`, so it goes right."""
    out = np.empty(Xt.shape[1])
    stack = [(node, np.arange(Xt.shape[1]))]
    while stack:
        node, rows = stack.pop()
        if "value" in node:
            out[rows] = node["value"]
        elif len(rows):
            left = Xt[node["feature"]].take(rows) <= node["threshold"]
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
    root: Mapping
    task: str

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _tree_predict(self.root, np.ascontiguousarray(X.T))

    def importances(self) -> dict[int, float]:
        return _tree_gains([self.root], {})

    def to_dict(self) -> dict:
        return {"root": self.root, "task": self.task}


def fit_decision_tree(X: np.ndarray, y: np.ndarray, seed: int, task: str, *,
                      max_depth: Depth = 6, min_leaf: Size = 2) -> TreeState:
    """CART over every row, no feature sampling."""
    [root] = _grow_trees(X, y, task, max_depth, min_leaf, [(generator(seed), np.arange(len(y)))])
    return TreeState(root=root, task=task)


@dataclass
class ForestState:
    trees: Sequence
    task: str

    def predict(self, X: np.ndarray) -> np.ndarray:
        Xt = np.ascontiguousarray(X.T)
        return np.array([_tree_predict(t, Xt) for t in self.trees]).mean(axis=0)

    def importances(self) -> dict[int, float]:
        return _tree_gains(self.trees, {})

    def to_dict(self) -> dict:
        return {"trees": self.trees, "task": self.task}


def fit_random_forest(X: np.ndarray, y: np.ndarray, seed: int, task: str, *, n_trees: Size = 50,
                      max_depth: Depth = 6, min_leaf: Size = 2,
                      max_features: Size | Literal["sqrt"] = "sqrt") -> ForestState:
    """Bagged CART ensemble with per-split feature subsampling (default √p)."""
    n, p = X.shape
    # A node samples features only when fewer than p are asked for.
    if max_features == "sqrt":
        n_subsample = round(math.sqrt(p))
    else:
        n_subsample = int(max_features)
    # Each tree draws its bootstrap rows, then grows, from its own stream.
    rngs = generator(seed).spawn(int(n_trees))
    samples = ((rng, rng.integers(0, n, size=n)) for rng in rngs)
    trees = _grow_trees(X, y, task, max_depth, min_leaf, samples, n_subsample)
    return ForestState(trees=trees, task=task)


# Distance cells (queries x train rows) computed per block: two float64
# buffers of this size are kNN prediction's only temporaries, whatever the
# number of features, and at 256 KiB each they stay in cache.
KNN_BLOCK_CELLS = 1 << 15


def _nearest(dists: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest values (1 <= k <= its length),
    in stable-sort order: equal to `np.argsort(dists, axis=1,
    kind="mergesort")[:, :k]`, ties to the lower index and NaN last, without
    sorting whole rows.

    A row's k-th smallest value comes from `np.partition`. The row keeps
    every value below it and, of the values tied with it, the lowest
    indices that bring the count to k; a stable sort orders those k.
    """
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
    train_X: Sequence[Sequence[float]] = field(repr=False)  # held as float64 arrays
    train_y: Sequence[float] = field(repr=False)

    def __post_init__(self):
        # Column-major, so each feature's training column is contiguous.
        self.train_X = np.array(self.train_X, dtype=np.float64, order="F")
        self.train_y = np.array(self.train_y, dtype=np.float64)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean target of each query row's k nearest training rows.

        A squared distance is summed over features left to right, one
        feature at a time, so a row's prediction is the same bits in any
        memory layout and in any batch, a lone row included.
        """
        n, p = self.train_X.shape
        k = min(self.k, n)
        m = len(X)
        out = np.empty(m)
        block = max(1, KNN_BLOCK_CELLS // n)
        total = np.empty((min(block, m), n))
        d = np.empty_like(total)
        for start in range(0, m, block):
            q = X[start : start + block]
            t, s = total[: len(q)], d[: len(q)]
            t.fill(0.0)
            for f in range(p):
                np.subtract(q[:, f, None], self.train_X[:, f], out=s)
                np.multiply(s, s, out=s)
                t += s
            np.sqrt(t, out=t)
            out[start : start + block] = self.train_y[_nearest(t, k)].mean(axis=1)
        return out

    def importances(self) -> None:
        return None  # no per-feature parameters

    def to_dict(self) -> dict:
        return {"k": self.k, "task": self.task, "train_X": self.train_X.tolist(),
                "train_y": self.train_y.tolist()}


def fit_knn(X: np.ndarray, y: np.ndarray, seed: int, task: str, *, k: Size = 5) -> KnnState:
    return KnnState(k=int(k), task=task, train_X=X, train_y=y)


class Learner(NamedTuple):
    """One algorithm: how it trains and reloads."""

    fit: Callable  # (X, y, seed, task, **hyperparameters) -> state
    state: type  # rebuilt from its `to_dict()` as state(**document)
    fits: Callable  # (document, features) -> whether it predicts from that many


def _affine_fits(d, features: int) -> bool:
    return len(d["weights"]) == features


LEARNERS: dict[str, Learner] = {
    "logistic": Learner(fit_logistic, LogisticState, _affine_fits),
    "linear": Learner(fit_linear, LinearState, _affine_fits),
    "decision_tree": Learner(fit_decision_tree, TreeState,
                             lambda d, features: _trees_fit([d["root"]], features)),
    "random_forest": Learner(
        fit_random_forest, ForestState,
        lambda d, features: len(d["trees"]) > 0 and _trees_fit(d["trees"], features),
    ),
    "knn": Learner(fit_knn, KnnState, lambda d, features: (
        d["k"] >= 1 and len(d["train_X"]) == len(d["train_y"]) > 0
        and all(len(row) == features for row in d["train_X"]))),
}


def check_task(algorithm: str, task: str) -> None:
    """Reject an algorithm that cannot learn this task, before any training."""
    only = get_args(signature(_learner(algorithm).fit).parameters["task"].annotation)
    if only and task not in only:
        raise ConfigError(f"{algorithm} supports {only[0]} targets only")


def train(algorithm: str, X: np.ndarray, y: np.ndarray, hp: dict, seed: int, task: str):
    check_task(algorithm, task)
    return LEARNERS[algorithm].fit(X, y, seed, task, **hp)


def state_from_dict(algorithm: str, d, features: int):
    """The learner state a `to_dict()` document describes; ConfigError when
    it differs from its state's declaration or does not fit `features`."""
    learner = _learner(algorithm)
    where = f"{algorithm!r} learner document"
    check_document(learner.state, d, where, lambda key: f"learner key {key!r}")
    if not learner.fits(d, features):
        raise ConfigError(f"{where} does not fit a model of {features} features")
    return learner.state(**d)

"""Golden learner vectors: fitted trees and kNN predictions pinned across
versions.

The digests below were produced by the per-feature CART split scan and
the all-pairs kNN distance tensor. Data are Philox draws rounded to one
decimal, so feature values and kNN distances tie often. Any faster split
search or query blocking must reproduce them exactly.
"""

import hashlib
import json

import numpy as np
import pytest

from holdout.learners import resolve_hyperparameters, train


def _data(seed, n, p):
    rng = np.random.Generator(np.random.Philox(seed))
    X = np.round(rng.normal(size=(n, p)), 1)
    noise = rng.normal(size=n)
    y_class = (X[:, 0] - 0.5 * X[:, 1] + noise > 0).astype(np.float64)
    y_reg = np.round(X @ np.linspace(1.0, -1.0, p) + 0.5 * noise, 2)
    return X, y_class, y_reg


X, Y_CLASS, Y_REG = _data(31, 160, 6)
Q = np.round(
    np.random.Generator(np.random.Philox(32)).normal(size=(70, 6)), 1
)
# Queries equal to training rows give zero-distance ties.
Q[:5] = X[10:15]


def _state_digest(state):
    return hashlib.sha256(
        json.dumps(state.to_dict(), sort_keys=True).encode()
    ).hexdigest()


TREES = {
    ("decision_tree", "classification", 1):
        "5bafbe3995d7c8d7dc26e88cdde747728b9d5c57dc211b888051874ee7354158",
    ("decision_tree", "classification", 2):
        "c8d906e2f53baf589c29c6405902244211964e99d200945c5522968147e34435",
    ("decision_tree", "classification", 8):
        "d93ecc541add5d91ff9b2fec6abf1d31a01366d89bca1a8a4e7b804e8f4626da",
    ("decision_tree", "regression", 1):
        "f9e40191668fc0fbad7f6162d700c21171567e8f092649647f76ecf054315498",
    ("decision_tree", "regression", 2):
        "1421adae1b6dc24d41959ba8a4cc5021ce007d874ab7ef20eb873ecba216334f",
    ("decision_tree", "regression", 8):
        "9d06d00b65e2a0f7ee6e3f18e8e4a1c30d8a70dee4f96731964bef23ba8fcb0b",
    ("random_forest", "classification", 2):
        "6888e410002a2db5e8fd71489bd252399d2fa2948a29ba644bbeafcd375094f3",
    ("random_forest", "regression", 2):
        "e9b3f33fbcd9e33bd70fec1ff0f9968cb4b1dda886f5b0bb4b0f96322d49b4c1",
}

KNN = {
    ("classification", 1):
        "f3e857404cd0df58be5524ff70029e278009bed9edba2eb7da49db06f2b0667a",
    ("classification", 5):
        "8dd005dbc6b3f58d0fbb109ce539d9df0d2af9a42834e1efe7c085cb2aef069f",
    ("regression", 5):
        "59395d6d2702e483b3caf6946966829ed49be37dc787664968160bbf237b874d",
    ("regression", 200):
        "e303095b2a9afc202597ebf2a418c037536541d8463d768097b58fdcb95c2fc8",
}


def _targets(task):
    return Y_CLASS if task == "classification" else Y_REG


@pytest.mark.parametrize("algorithm, task, min_leaf", sorted(TREES))
def test_tree_state_golden(algorithm, task, min_leaf):
    overrides = {"min_leaf": min_leaf}
    if algorithm == "random_forest":
        overrides["n_trees"] = 12
    hp = resolve_hyperparameters(algorithm, overrides)
    state = train(algorithm, X, _targets(task), hp, 7, task)
    assert _state_digest(state) == TREES[(algorithm, task, min_leaf)]


@pytest.mark.parametrize("task, k", sorted(KNN))
def test_knn_predict_golden(task, k):
    state = train("knn", X, _targets(task), {"k": k}, 0, task)
    out = np.asarray(state.predict(Q), dtype=np.float64)
    assert out.shape == (len(Q),)
    assert hashlib.sha256(out.tobytes()).hexdigest() == KNN[(task, k)]

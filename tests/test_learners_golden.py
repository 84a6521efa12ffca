"""Golden learner vectors: fitted trees, tree and forest predictions, kNN
predictions and logistic weights and predictions pinned across versions.

The digests below were produced by the per-feature CART split scan, the
all-pairs kNN distance tensor and the masked-sigmoid gradient loop. Data
are Philox draws rounded to one decimal, so feature values and kNN
distances tie often. Any faster split search, query blocking or gradient
loop must reproduce them exactly.
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
# NaN satisfies no `x <= threshold`, so a NaN cell routes a query right.
Q_NAN = Q.copy()
Q_NAN[::3, 0] = np.nan
Q_NAN[1::4, 2:4] = np.nan


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

TREE_PREDICTIONS = {
    ("decision_tree", "classification"):
        "05f930271dd9c46f0f8cb847ad48ec85562b906f0118b82219c8d8dc398bf816",
    ("decision_tree", "regression"):
        "5d58879bac3e9e5d072d92de3ba8fac8df838ade26abf041226554ca1e4b1c23",
    ("random_forest", "classification"):
        "76880c94d92820b64f6f92d3ae99c6d70e3e72b188ba8574d17562b062e66be4",
    ("random_forest", "regression"):
        "86887c4494f73d21cf999ae89cdaee3f0ed922b610e458f8e5424b63cf65be23",
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


def _fit_tree(algorithm, task, min_leaf):
    overrides = {"min_leaf": min_leaf}
    if algorithm == "random_forest":
        overrides["n_trees"] = 12
    hp = resolve_hyperparameters(algorithm, overrides)
    return train(algorithm, X, _targets(task), hp, 7, task)


@pytest.mark.parametrize("algorithm, task, min_leaf", sorted(TREES))
def test_tree_state_golden(algorithm, task, min_leaf):
    state = _fit_tree(algorithm, task, min_leaf)
    assert _state_digest(state) == TREES[(algorithm, task, min_leaf)]


@pytest.mark.parametrize("algorithm, task", sorted(TREE_PREDICTIONS))
def test_tree_predict_golden(algorithm, task):
    state = _fit_tree(algorithm, task, 2)
    out = np.asarray(state.predict(np.vstack([Q, Q_NAN])), dtype=np.float64)
    assert out.shape == (2 * len(Q),)
    digest = hashlib.sha256(out.tobytes()).hexdigest()
    assert digest == TREE_PREDICTIONS[(algorithm, task)]
    empty = state.predict(np.empty((0, X.shape[1])))
    assert empty.shape == (0,) and empty.dtype == np.float64


@pytest.mark.parametrize("task, k", sorted(KNN))
def test_knn_predict_golden(task, k):
    state = train("knn", X, _targets(task), {"k": k}, 0, task)
    out = np.asarray(state.predict(Q), dtype=np.float64)
    assert out.shape == (len(Q),)
    assert hashlib.sha256(out.tobytes()).hexdigest() == KNN[(task, k)]


# Name -> (hyperparameter overrides, labels), each noted with how it stops.
LOGISTIC_FITS = {
    "l2_0": ({}, Y_CLASS),  # stops on tol after 1,245 iterations
    "l2_0.05": ({"l2": 0.05}, Y_CLASS),  # stops on tol after 498
    "early_tol": ({"tol": 1e-4, "learning_rate": 0.5}, Y_CLASS),  # tol after 67
    "max_iter": ({"max_iter": 40, "learning_rate": 2.0}, Y_CLASS),  # all 40
    "all_zero": ({"max_iter": 300}, np.zeros_like(Y_CLASS)),  # all 300
}

LOGISTIC_STATES = {
    "l2_0":
        "18a473eb029b0afe5ee46e8b463f0bf11e87d52f13a6b655b0fe2a3f32678e2a",
    "l2_0.05":
        "b4a3352aa32b03bb61a2dae153bcca0b902c6dbc272ab922d402b36fe031b02e",
    "early_tol":
        "9ecb8a78f6d0ce4a202615263f3fd8df250c0ff9e55d252eb57df21f248f9871",
    "max_iter":
        "291fdafdce022fb8e30ab3bef68e2c16c8e414d5fa1b270875e2e3c415e2ab06",
    "all_zero":
        "d33d538ab5e88d618c6b7b6000f2d12d6b4611d7937bd1328b632cbb982a5650",
}

LOGISTIC_PREDICTIONS = {
    "l2_0":
        "1ec137f8db99fea83d7cc2c312f26f73b86103544b0f85ff3c793e58f8953090",
    "l2_0.05":
        "a1bbce82fb61cdc0a75367ee63506599094b7476fb4b86d32877aa581cc94713",
    "early_tol":
        "7545332f25c623048e5fb420c2c3b1f8573d6ea5b9b7871b5688d579843cf8c3",
    "max_iter":
        "91960b2b96891c263bd27a552d76813b710a3144b29666144c7736b6aca467e1",
    "all_zero":
        "2638cd656b5030904a2b38d8805b1ea562d8beec58209f618d88d7cb683361b2",
}


def _fit_logistic(name):
    overrides, y = LOGISTIC_FITS[name]
    return train("logistic", X, y, resolve_hyperparameters("logistic", overrides), 0,
                 "classification")


@pytest.mark.parametrize("name", sorted(LOGISTIC_FITS))
def test_logistic_state_golden(name):
    state = _fit_logistic(name)
    coef = np.array(state.weights + [state.bias], dtype=np.float64)
    assert hashlib.sha256(coef.tobytes()).hexdigest() == LOGISTIC_STATES[name]


@pytest.mark.parametrize("name", sorted(LOGISTIC_FITS))
def test_logistic_predict_golden(name):
    # 40 * Q saturates the sigmoid on both sides.
    out = np.asarray(_fit_logistic(name).predict(np.vstack([Q, 40.0 * Q])), dtype=np.float64)
    assert out.shape == (2 * len(Q),)
    assert hashlib.sha256(out.tobytes()).hexdigest() == LOGISTIC_PREDICTIONS[name]

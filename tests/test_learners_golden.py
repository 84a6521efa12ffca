"""Golden learner vectors: fitted trees, tree and forest predictions, kNN
predictions and logistic weights and predictions pinned across versions.

The digests below were produced by the per-feature CART split scan, kNN
distances summed feature by feature from left to right, and the
masked-sigmoid gradient loop. Data are Philox draws rounded to one decimal,
so feature values and kNN distances tie often; the 12- and 20-feature kNN
data add distances that tie in exact arithmetic, so a different summation
order would show. Any faster split search, distance kernel or gradient loop
must reproduce them exactly.
"""

import hashlib
import json

import numpy as np
import pytest

from holdout import DataFrame, ProvenanceRegistry, fit, predict, split
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


def _wide_knn_data(p):
    """p features where the summation order of a distance shows: thirty
    permutations of one vector lie at one true distance from the origin,
    far from ninety rounded rows, and each training row appears twice."""
    rng = np.random.Generator(np.random.Philox(60 + p))
    v = rng.normal(size=p)
    A = np.vstack([[rng.permutation(v) for _ in range(30)],
                   np.round(rng.normal(2.0, size=(90, p)), 1)])
    A = np.vstack([A, A])
    y_class = (rng.normal(size=len(A)) > 0).astype(np.float64)
    y_reg = np.round(rng.normal(size=len(A)), 2)
    Q = np.vstack([np.zeros((5, p)), np.round(rng.normal(0.5, size=(60, p)), 1), A[:5]])
    return A, {"classification": y_class, "regression": y_reg}, Q


# (features, task, k) -> digest of KnnState.predict on F-ordered queries.
WIDE_KNN_STATES = {
    (12, "classification", 1):
        "312f491b0555b99f179c82bef982f8336c9a29a90b4c8897d4d78900d8efdc46",
    (12, "classification", 5):
        "55e132c9668a953a497c85c202cb01d62b98136c2d68ac369acead559b13b602",
    (12, "regression", 1):
        "4ef876ad591f3191a7841345ca22df8a54a8e688b3a003fa50f48feda4422952",
    (12, "regression", 5):
        "175bcd5492132207391b88a21169ff1f9dc36d63ab70fa0fdaf9f5d15a4423a9",
    (20, "classification", 1):
        "313b453a5b2a967ab50a99132a826037fd24da01482568dac1c2de83bfd9112b",
    (20, "classification", 5):
        "2b2bb25d4381c24205fc125ef3fa82154aecef9d7d21322d15dec9319d5feb63",
    (20, "regression", 1):
        "abe9248a6b9f62ce49bfeaea8abeefb36f726a83f551a7282362b748e34578b5",
    (20, "regression", 5):
        "7b99574a66b3b7689a924d77187db970f160dc208ac59dc631eb4188f4bbe114",
}

# (features, task, k) -> digest of `predict` through a fitted model on a frame.
WIDE_KNN_FRAMES = {
    (12, "classification", 1):
        "39153a5e72ee954ebee0534e65ac66e33e4714fdfc9d6279dcbe5fc261e36251",
    (12, "classification", 5):
        "d43bb26242ad1f6581bd4dd6bfed6f577f263e6c17f300ba208070920e3f43b4",
    (12, "regression", 1):
        "bf40bb8823937f2ddaa1d31cd1ade54b89b6b10b597fd0b305c37e608ba47bb4",
    (12, "regression", 5):
        "7fdd454fe3ccb10033823025028926a15ae368e55631534e2ca3112f87df4983",
    (20, "classification", 1):
        "6bc4d9f7f53fe3869b1382291621a12e4ed6d796c87e748782501900b38fe0f1",
    (20, "classification", 5):
        "680903aa4c897d8f263a823a2f141d45342881389f8b7e0a5fd60a7c93ee228a",
    (20, "regression", 1):
        "b5684d1a8626bee7fc3103da6eb1e551e507ee6c818f82efb1e16260ba32f348",
    (20, "regression", 5):
        "d38c5386a18ccb70c3df3e28d66846ad48cdc436aa6c97f9eceee3754cb1f8f9",
}


def _digest(values):
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("p, task, k", sorted(WIDE_KNN_STATES))
def test_wide_knn_state_predict_golden(p, task, k):
    A, y, Q = _wide_knn_data(p)
    state = train("knn", np.asfortranarray(A), y[task], {"k": k}, 0, task)
    assert _digest(state.predict(np.asfortranarray(Q))) == WIDE_KNN_STATES[(p, task, k)]


@pytest.mark.parametrize("p, task, k", sorted(WIDE_KNN_FRAMES))
def test_wide_knn_frame_predict_golden(p, task, k):
    A, y, Q = _wide_knn_data(p)
    columns = {f"x{j}": A[:, j] for j in range(p)}
    columns["y"] = y[task].astype(int).tolist() if task == "classification" else y[task]
    registry = ProvenanceRegistry()
    part = split(DataFrame(columns), "y", seed=2, registry=registry)
    # Mean imputation leaves complete columns as they are, so ties stay exact.
    model = fit(part.train, "y", algorithm="knn", hyperparameters={"k": k},
                recipe=["impute_mean"], registry=registry)
    queries = DataFrame({f"x{j}": Q[:, j] for j in range(p)})
    assert _digest(predict(model, queries).values) == WIDE_KNN_FRAMES[(p, task, k)]

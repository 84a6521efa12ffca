"""Logistic regression against a reference gradient loop.

The reference below is a copy of the loop and sigmoid the library first
shipped: the sigmoid gathers and scatters the non-negative and negative
entries under boolean masks, each iteration takes two `np.mean`s of
`prob - y`, and the loss logs both `prob` and `1 - prob` for every row.
Over finite features and 0/1 labels, the only labels `encode_target`
produces, fitted weights, bias and predictions must equal it byte for
byte, which covers every iterate and the iteration the loop stops at.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from holdout.learners import resolve_hyperparameters, train


def _reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_fit(X, y, hp):
    n, p = X.shape
    w = np.zeros(p)
    b = 0.0
    lr = float(hp["learning_rate"])
    l2 = float(hp["l2"])
    prev_loss = math.inf
    for _ in range(int(hp["max_iter"])):
        prob = _reference_sigmoid(X @ w + b)
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
    return w, b


# Few distinct values, so rows tie and z is often exactly 0.0 or -0.0.
TIED_CELLS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0])
ANY_CELL = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def _logistic_problem(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    p = draw(st.integers(min_value=1, max_value=5))
    cell = draw(st.sampled_from([TIED_CELLS, ANY_CELL]))
    X = np.array(draw(st.lists(cell, min_size=n * p, max_size=n * p))).reshape(n, p)
    labels = draw(st.sampled_from([[0.0, 1.0], [0.0], [1.0]]))
    y = np.array(draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n)))
    overrides = {
        "learning_rate": draw(st.sampled_from([0.1, 1.0, 5.0])),
        "tol": draw(st.sampled_from([0.0, 1e-8, 1e-3])),
        "l2": draw(st.sampled_from([0.0, 0.1])),
        "max_iter": draw(st.integers(min_value=1, max_value=400)),
    }
    return X, y, overrides


@given(problem=_logistic_problem())
@settings(max_examples=120, deadline=None)
def test_logistic_equals_reference(problem):
    X, y, overrides = problem
    hp = resolve_hyperparameters("logistic", overrides)
    state = train("logistic", X, y, hp, 0, "classification")
    w, b = _reference_fit(X, y, hp)
    assert np.array(state.weights).tobytes() == w.tobytes()
    assert np.float64(state.bias).tobytes() == np.float64(b).tobytes()
    # Scaled rows push z far past where exp underflows, on both sides.
    Q = np.vstack([X, 1e3 * X])
    expected = _reference_sigmoid(Q @ w + b)
    assert np.asarray(state.predict(Q), dtype=np.float64).tobytes() == expected.tobytes()

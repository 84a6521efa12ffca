import functools
import operator

import numpy as np
import pytest

from holdout import DataFrame, ProvenanceRegistry


@pytest.fixture
def registry():
    return ProvenanceRegistry()


@pytest.fixture
def toy_frame():
    # 12 rows, separable-ish binary target, one noise feature.
    return DataFrame(
        {
            "x1": [0.1, 0.4, 0.2, 0.3, 0.2, 0.1, 1.8, 1.9, 2.2, 2.1, 1.7, 2.4],
            "x2": [1.0, 0.8, 1.2, 0.9, 1.1, 1.3, -0.2, 0.1, -0.4, 0.0, -0.3, -0.1],
            "y": [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
        }
    )


def make_classification_frame(n=60, seed=0, n_features=3):
    rng = np.random.Generator(np.random.Philox(seed))
    half = n // 2
    y = [0] * half + [1] * (n - half)
    columns = {}
    for j in range(n_features):
        shift = 1.5 if j < 2 else 0.0
        columns[f"x{j}"] = [
            float(rng.normal(loc=shift * label)) for label in y
        ]
    columns["y"] = y
    return DataFrame(columns)


def make_regression_frame(n=60, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    noise = rng.normal(scale=0.1, size=n)
    y = 2.0 * x1 - 1.0 * x2 + 0.5 + noise
    return DataFrame({"x1": x1, "x2": x2, "y": y})


def left_sum(values):
    """Float sum strictly left to right from 0.0, the order `prepare`'s
    statistics are defined by (builtin `sum` compensates from Python 3.12)."""
    return functools.reduce(operator.add, values, 0.0)

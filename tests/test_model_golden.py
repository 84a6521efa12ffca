"""Golden model outputs: each algorithm's serialized model, its intrinsic
importances, and a stacked model's permutation importances, pinned across
versions.

Every model is fit on the 60-row classification frame of `conftest` (the
regression frame for `linear`), split with seed 4; the stack uses the
3-fold rotation with seed 1. A change to how models, learner states or
importances are declared must reproduce these values exactly.
"""

import hashlib

import pytest

from holdout import ConfigError, cv, explain, fit, model_to_json, split, stack

from conftest import make_classification_frame, make_regression_frame

HYPERPARAMETERS = {"random_forest": {"n_trees": 5}}

MODEL_JSON_SHA256 = {
    "logistic": "4430ba0ca12030fe5c493473108c1e03e35462fa4925d44f792e978816291cd4",
    "linear": "95cc8af205c20b51107fdeada10b2a31a681fc2e6022050a69c0161bfd23e3bf",
    "decision_tree": "98face0e0e924ff9361c30457d0e9e6b3cc390f50576e52c0e8a9079ec6b1685",
    "random_forest": "afcda0eef4be3f432627fffa50aec0e003f7a2e48cdfb004cafc0c0d2b1daa33",
    "knn": "a792bf9fc7b37855ad1d842efa7089c007449deed3609ec7213bc212a640cac8",
}

INTRINSIC = {
    "logistic": {"x0": 1.4185500636315973, "x1": 1.7029496197199523, "x2": 0.3552462490611987},
    "linear": {"x1": 1.762834511116534, "x2": 1.0829988326715023},
    "decision_tree": {"x0": 5.147619047619046, "x1": 10.352380952380951, "x2": 0.0},
    "random_forest": {"x0": 40.522431901715784, "x1": 26.03335675407287,
                      "x2": 4.233100233100233},
}

STACK_PERMUTATION = {"x0": 0.14814814814814814, "x1": 0.28703703703703703, "x2": 0.0}


def _model(registry, algorithm):
    frame = make_regression_frame(60) if algorithm == "linear" else make_classification_frame(60)
    p = split(frame, "y", seed=4, registry=registry)
    return fit(p.train, "y", algorithm=algorithm,
               hyperparameters=HYPERPARAMETERS.get(algorithm), registry=registry)


@pytest.fixture
def stacked(registry):
    p = split(make_classification_frame(60), "y", seed=4, registry=registry)
    c = cv(p, 3, seed=1, registry=registry)
    return p, stack(c, "y", base_algorithms=["logistic", "decision_tree"], seed=1,
                    registry=registry)


@pytest.mark.parametrize("algorithm", sorted(MODEL_JSON_SHA256))
def test_model_json(registry, algorithm):
    text = model_to_json(_model(registry, algorithm))
    assert hashlib.sha256(text.encode()).hexdigest() == MODEL_JSON_SHA256[algorithm]


@pytest.mark.parametrize("algorithm", sorted(INTRINSIC))
def test_intrinsic_importances(registry, algorithm):
    ex = explain(_model(registry, algorithm), registry=registry)
    assert ex.method == "intrinsic"
    assert dict(ex.values) == INTRINSIC[algorithm]


def test_knn_has_no_intrinsic_importances(registry):
    with pytest.raises(ConfigError, match="'knn' has no intrinsic importances"):
        explain(_model(registry, "knn"), registry=registry)


def test_stacked_model_has_no_intrinsic_importances(registry, stacked):
    _, model = stacked
    with pytest.raises(ConfigError, match="stacked models have no intrinsic importances"):
        explain(model, registry=registry)


def test_stacked_model_permutation_importances(registry, stacked):
    p, model = stacked
    ex = explain(model, p.valid, repeats=3, seed=2, registry=registry)
    assert ex.method == "permutation"
    assert dict(ex.values) == STACK_PERMUTATION

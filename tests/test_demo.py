import json

import pytest
from click.testing import CliRunner

from holdout import ConfigError, demo_leakage
from holdout.cli import main
from holdout.demo import sign_test_p, two_gaussian_frame


def test_replicate_floor():
    with pytest.raises(ConfigError, match="20"):
        demo_leakage("seed_selection", replicates=5)


def test_unknown_kind():
    with pytest.raises(ConfigError, match=(
            r"^kind must be one of 'seed_selection', 'screen_selection', "
            r"'duplicate_injection', got 'label_peek'$")):
        demo_leakage("label_peek", replicates=20)


@pytest.mark.parametrize(
    "option, message",
    [
        # A bare ValueError traceback with exit 1, from the SeedSequence.
        (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
        # Exit 0 with "mean_inflation": -Infinity, which is not JSON.
        (["--n-seeds", "0"], "n_seeds must be a positive integer, got 0"),
    ],
    ids=["seed -1", "n-seeds 0"],
)
def test_cli_demo_refuses_bad_settings_with_exit_2(option, message):
    args = ["demo", "seed_selection", "--replicates", "20", *option]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    payload = json.loads(result.stderr)
    assert (payload["error"], payload["message"]) == ("ConfigError", message)


def test_sign_test_exact_values():
    assert sign_test_p(0, 0) == 1.0
    assert sign_test_p(10, 10) == pytest.approx(2.0**-10)
    assert sign_test_p(0, 4) == 1.0
    assert sign_test_p(3, 4) == pytest.approx(5.0 / 16.0)


def test_two_gaussian_frame_shape():
    df = two_gaussian_frame(n=50, n_features=4, seed=1)
    assert df.row_count == 50
    assert df.column_names == ("f0", "f1", "f2", "f3", "y")
    labels = df.column("y")
    assert sum(labels) == 25


def test_duplicate_injection_report_shape():
    report = demo_leakage("duplicate_injection", replicates=20, seed=1)
    assert set(report["inflation"]) == {"decision_tree", "logistic"}
    assert report["metric"] == "accuracy"
    assert isinstance(report["capacity_ordering_confirmed"], bool)


def test_seed_selection_report_shape():
    report = demo_leakage("seed_selection", replicates=20, seed=2, n_seeds=4)
    assert report["replicates"] == 20
    assert report["positive"] + report["negative"] + report["ties"] == 20
    assert 0.0 <= report["p_value"] <= 1.0


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


# Each kind's full report at replicates=20, seed=3, n_seeds=4. A change to
# how the demos are built must reproduce every value exactly.
DEMO_GOLDEN = {
    "seed_selection": {
        "kind": "seed_selection", "metric": "roc_auc", "replicates": 20,
        "mean_inflation": 0.03441195839614537, "positive": 14, "negative": 0, "ties": 6,
        "p_value": 6.103515625e-05, "direction_confirmed": True, "n_seeds": 4,
    },
    "screen_selection": {
        "kind": "screen_selection", "metric": "roc_auc", "replicates": 20,
        "mean_inflation": 0.004581054910002274, "positive": 2, "negative": 0, "ties": 18,
        "p_value": 0.25, "direction_confirmed": False,
        "algorithms": ["logistic", "decision_tree", "random_forest", "knn"],
    },
    "duplicate_injection": {
        "kind": "duplicate_injection", "metric": "accuracy", "replicates": 20,
        "inflation": {"decision_tree": 0.01499999999999999, "logistic": -0.00500000000000001},
        "p_value": {"decision_tree": 0.0245208740234375, "logistic": 0.91015625},
        "capacity_ordering_confirmed": True, "direction_confirmed": True,
    },
}


@pytest.mark.parametrize("kind", sorted(DEMO_GOLDEN))
def test_demo_report_golden(kind):
    report = _strict_json(json.dumps(demo_leakage(kind, replicates=20, seed=3, n_seeds=4)))
    assert report == DEMO_GOLDEN[kind]
    args = ["demo", kind, "--replicates", "20", "--seed", "3", "--n-seeds", "4"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0
    assert _strict_json(result.stdout) == report

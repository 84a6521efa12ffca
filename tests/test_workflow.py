import csv
import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from holdout import (
    ConfigError,
    DataFrame,
    ParseError,
    ProvenanceRegistry,
    RunReport,
    assess,
    cv,
    cv_group,
    cv_temporal,
    evaluate,
    fit,
    from_csv,
    run_workflow,
    screen,
    split,
    split_group,
    split_temporal,
    stack,
    tune,
)
from holdout.cli import main
from holdout.workflow import parse_workflow

from conftest import make_classification_frame


def write_csv(path, df):
    cols = df.columns()
    names = list(cols)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(df.row_count):
            fh.write(",".join(str(cols[n][i]) for n in names) + "\n")


@pytest.fixture
def data_csv(tmp_path):
    p = tmp_path / "data.csv"
    write_csv(p, make_classification_frame(100, seed=6))
    return p


MODEL_BLOCK = "model:\n  algorithm: logistic\n  seed: 42\n"
SPLIT_BLOCK = "split:\n  kind: random\n  ratios: [0.6, 0.2, 0.2]\n  seed: 42\n"


def workflow_text(data_path, extra="", mode_block=MODEL_BLOCK):
    return (
        "data:\n"
        f"  path: {data_path}\n"
        "  target: y\n"
        "split:\n"
        "  kind: random\n"
        "  ratios: [0.6, 0.2, 0.2]\n"
        "  seed: 42\n"
        "cv:\n"
        "  kind: kfold\n"
        "  k: 3\n"
        "  seed: 42\n"
        f"{mode_block}"
        "report:\n"
        "  metrics: [accuracy, roc_auc]\n"
        f"{extra}"
    )


@pytest.fixture
def workflow_file(tmp_path, data_csv):
    p = tmp_path / "wf.yaml"
    p.write_text(workflow_text(data_csv))
    return p


class TestParsing:
    def test_valid_spec(self, data_csv):
        spec = parse_workflow(workflow_text(data_csv))
        assert spec.mode == "model"
        assert spec.guards == "on"
        assert spec.assess_repeats == 1

    def test_yaml_syntax_error_is_line_anchored(self):
        with pytest.raises(ParseError, match="line"):
            parse_workflow("data:\n  path: [unclosed\n")

    def test_missing_data_block(self):
        with pytest.raises(ConfigError, match="data"):
            parse_workflow("split:\n  kind: random\nmodel:\n  algorithm: logistic\n")

    def test_two_mode_blocks_rejected(self, data_csv):
        text = workflow_text(data_csv) + "screen:\n  algorithms: [logistic]\n"
        with pytest.raises(ConfigError, match="exactly one"):
            parse_workflow(text)

    def test_no_mode_block_rejected(self, data_csv):
        text = (
            "data:\n"
            f"  path: {data_csv}\n"
            "  target: y\n"
            "split:\n"
            "  kind: random\n"
        )
        with pytest.raises(ConfigError, match="exactly one"):
            parse_workflow(text)

    def test_unknown_top_level_key_cites_line(self, data_csv):
        with pytest.raises(ConfigError, match="unknown workflow keys"):
            parse_workflow(workflow_text(data_csv) + "notes: hi\n")

    def test_strategy_requires_cv(self, data_csv):
        text = (
            "data:\n"
            f"  path: {data_csv}\n"
            "  target: y\n"
            "split:\n"
            "  kind: random\n"
            "screen:\n"
            "  algorithms: [logistic, knn]\n"
        )
        with pytest.raises(ConfigError, match="requires a 'cv'"):
            parse_workflow(text)

    def test_guards_yaml_boolean_spelling(self, data_csv):
        spec = parse_workflow(workflow_text(data_csv, extra="guards: off\n"))
        assert spec.guards == "off"

    @pytest.mark.parametrize(
        "line, typo",
        [
            ("  seed: 42\nreport", "  seed: '42'\nreport"),
            ("  k: 3\n", "  k: true\n"),
            # Used to pass the parser and fail at fit, after the data was read.
            ("  seed: 42\nreport", "  seed: -1\nreport"),
            # Used to pass the parser and fail as a guard rejection (exit 3).
            (SPLIT_BLOCK[7:], "  kind: temporal\n  time_col: x0\n  embargo: -1\n"),
        ],
        ids=["model.seed", "cv.k", "model.seed -1", "split.embargo -1"],
    )
    def test_value_types_checked(self, data_csv, line, typo):
        text = workflow_text(data_csv)
        assert line in text
        with pytest.raises(ConfigError, match="must be"):
            parse_workflow(text.replace(line, typo, 1))

    @pytest.mark.parametrize(
        "old, new, key, line",
        [
            ("report:", "model:\n  algorithm: knn\nreport:", "model", 15),  # a whole block
            ("  seed: 42\ncv", "  seed: 1\n  seed: 2\ncv", "seed", 8),  # a key in a block
        ],
        ids=["block", "key in a block"],
    )
    def test_repeated_key_cites_line(self, data_csv, old, new, key, line):
        text = workflow_text(data_csv).replace(old, new, 1)
        with pytest.raises(ConfigError, match=rf"key '{key}' is repeated \(line {line}\)"):
            parse_workflow(text)

    def test_merge_key_may_be_overridden(self, data_csv):
        text = workflow_text(data_csv).replace(
            "  seed: 42\ncv", "  <<: {seed: 1}\n  seed: 2\ncv", 1)
        assert parse_workflow(text).split["seed"] == 2

    def test_data_path_must_be_text(self, data_csv):
        text = workflow_text(data_csv).replace(str(data_csv), "7")
        with pytest.raises(ConfigError, match="data.path must be a string"):
            parse_workflow(text)

    def test_bad_split_kind_cites_line(self, data_csv):
        text = workflow_text(data_csv).replace("kind: random", "kind: sideways", 1)
        with pytest.raises(ConfigError, match=r"line \d+"):
            parse_workflow(text)

    def test_bad_cv_kind_cites_line(self, data_csv):
        text = workflow_text(data_csv).replace("kind: kfold", "kind: rolling", 1)
        with pytest.raises(ConfigError, match=r"'rolling' \(line \d+\)"):
            parse_workflow(text)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("  target: y\n", "  target: y\n  schema_hint: {x0: text}\n", "schema_hint"),
            ("  seed: 42\ncv:", "  seeed: 42\ncv:", "seeed"),
            ("  k: 3\n", "  folds: 3\n", "folds"),
            (MODEL_BLOCK, "model:\n  algoritm: knn\n", "algoritm"),
            (MODEL_BLOCK, "screen:\n  algorithms: [knn]\n  hyperparameter: {knn: {k: 3}}\n",
             "hyperparameter"),
            (MODEL_BLOCK, "tune:\n  algorithm: knn\n  space: {k: [1, 3]}\n  budjet: 2\n",
             "budjet"),
            (MODEL_BLOCK, "stack:\n  base: [logistic, knn]\n  meta_algorithm: knn\n",
             "meta_algorithm"),
            ("  metrics: [accuracy, roc_auc]\n", "  metric: [accuracy]\n", "metric"),
            ("  kind: random\n", "  kind: random\n  group_col: x0\n", "group_col"),
            ("  kind: kfold\n", "  kind: kfold\n  window: sliding\n", "window"),
        ],
        ids=["data", "split", "cv", "model", "screen", "tune", "stack", "report",
             "group_col under random", "window under kfold"],
    )
    def test_key_the_block_does_not_take_cites_line(self, data_csv, old, new, key):
        text = workflow_text(data_csv)
        assert old in text
        with pytest.raises(ConfigError, match=rf"'{key}' \(line \d+\)"):
            parse_workflow(text.replace(old, new, 1))

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("  target: y\n", "", "target"),
            (SPLIT_BLOCK, "split:\n  kind: temporal\n", "time_col"),
            (SPLIT_BLOCK, "split:\n  kind: group\n", "group_col"),
        ],
    )
    def test_parameter_without_default_is_a_required_key(self, data_csv, old, new, key):
        text = workflow_text(data_csv)
        assert old in text
        with pytest.raises(ConfigError, match=rf"requires '{key}' \(line \d+\)"):
            parse_workflow(text.replace(old, new, 1))

    @pytest.mark.parametrize(
        "new", ["  metrics: [accuracy, acuracy]\n", "  metrics: [rsme]\n"]
    )
    def test_unknown_metric_name_cites_line(self, data_csv, new):
        text = workflow_text(data_csv).replace("  metrics: [accuracy, roc_auc]\n", new)
        with pytest.raises(ConfigError, match=r"unknown metrics: \['\w+'\] \(line \d+\)"):
            parse_workflow(text)


class TestExecution:
    def test_full_run_report(self, workflow_file):
        report = run_workflow(workflow_file)
        assert report.cv_scores is not None
        assert set(report.valid_metrics["values"]) == {"accuracy", "roc_auc"}
        assert report.evidence is not None
        assert report.evidence["kind"] == "evidence"
        verbs = [v for v, _ in report.guard_events]
        assert verbs == ["load", "split", "cv", "fit", "evaluate", "assess"]
        assert report.guards_bypassed is False

    def test_report_json_roundtrip(self, workflow_file):
        report = run_workflow(workflow_file)
        clone = RunReport.from_json(report.to_json())
        assert clone == report

    def test_determinism_across_runs(self, workflow_file):
        a = run_workflow(workflow_file)
        b = run_workflow(workflow_file)
        assert a.to_json() == b.to_json()
        assert (
            a.evidence["holdout_fingerprint"] == b.evidence["holdout_fingerprint"]
        )

    def test_double_assess_raises_holdout_spent(self, tmp_path, data_csv):
        from holdout import HoldoutSpent

        p = tmp_path / "double.yaml"
        p.write_text(workflow_text(data_csv, extra="assess: 2\n"))
        with pytest.raises(HoldoutSpent):
            run_workflow(p)

    def test_guards_off_double_assess_completes(self, tmp_path, data_csv):
        p = tmp_path / "double_off.yaml"
        p.write_text(workflow_text(data_csv, extra="assess: 2\nguards: off\n"))
        report = run_workflow(p)
        assert report.guards_bypassed is True
        assert [v for v, _ in report.guard_events].count("assess") == 2
        assert report.evidence["guards_bypassed"] is True

    def test_no_assess(self, tmp_path, data_csv):
        p = tmp_path / "no_assess.yaml"
        p.write_text(workflow_text(data_csv, extra="assess: false\n"))
        report = run_workflow(p)
        assert report.evidence is None

    def test_screen_workflow(self, tmp_path, data_csv):
        p = tmp_path / "screen.yaml"
        p.write_text(
            workflow_text(
                data_csv,
                mode_block="screen:\n  algorithms: [logistic, decision_tree]\n  seed: 1\n",
            )
        )
        report = run_workflow(p)
        assert report.leaderboard is not None
        assert report.leaderboard["best"] in ("logistic", "decision_tree")
        assert report.evidence is not None

    def test_tune_workflow(self, tmp_path, data_csv):
        p = tmp_path / "tune.yaml"
        p.write_text(
            workflow_text(
                data_csv,
                mode_block=(
                    "tune:\n"
                    "  algorithm: decision_tree\n"
                    "  method: grid\n"
                    "  space:\n"
                    "    max_depth: [2, 4]\n"
                    "  budget: 4\n"
                    "  seed: 1\n"
                ),
            )
        )
        report = run_workflow(p)
        assert report.tuning is not None
        assert report.tuning["best"]["max_depth"] in (2, 4)

    def test_stack_workflow(self, tmp_path, data_csv):
        p = tmp_path / "stack.yaml"
        p.write_text(
            workflow_text(
                data_csv,
                mode_block="stack:\n  base: [logistic, knn]\n  meta: logistic\n  seed: 1\n",
            )
        )
        report = run_workflow(p)
        assert report.evidence is not None

    def test_temporal_workflow(self, tmp_path):
        from holdout import DataFrame

        df = DataFrame(
            {
                "t": [float(i) for i in range(60)],
                "x": [float(i % 7) for i in range(60)],
                "y": [i % 2 for i in range(60)],
            }
        )
        csv = tmp_path / "temporal.csv"
        write_csv(csv, df)
        wf = tmp_path / "temporal.yaml"
        wf.write_text(
            "data:\n"
            f"  path: {csv}\n"
            "  target: y\n"
            "split:\n"
            "  kind: temporal\n"
            "  time_col: t\n"
            "  embargo: 2\n"
            "cv:\n"
            "  kind: temporal\n"
            "  k: 3\n"
            "  window: sliding\n"
            "  min_train: 8\n"
            "model:\n"
            "  algorithm: decision_tree\n"
        )
        report = run_workflow(wf)
        assert report.evidence is not None

    def test_group_workflow(self, tmp_path):
        from holdout import DataFrame

        groups = [g for g in "abcdefghij" for _ in range(4)]
        df = DataFrame(
            {
                "g": groups,
                "x": [float(i % 9) for i in range(40)],
                "y": [i % 2 for i in range(40)],
            }
        )
        csv = tmp_path / "grouped.csv"
        write_csv(csv, df)
        wf = tmp_path / "grouped.yaml"
        wf.write_text(
            "data:\n"
            f"  path: {csv}\n"
            "  target: y\n"
            "  schema_hints: {g: text}\n"
            "split:\n"
            "  kind: group\n"
            "  group_col: g\n"
            "  seed: 3\n"
            "cv:\n"
            "  kind: group\n"
            "  k: 2\n"
            "model:\n"
            "  algorithm: knn\n"
        )
        report = run_workflow(wf)
        assert report.evidence is not None


class TestCli:
    def test_run_exit_zero_and_json(self, workflow_file):
        result = CliRunner().invoke(main, ["run", str(workflow_file)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["evidence"]["kind"] == "evidence"

    def test_spec_error_exit_2(self, tmp_path, data_csv):
        bad = tmp_path / "bad.yaml"
        bad.write_text(workflow_text(data_csv) + "frobnicate: 1\n")
        result = CliRunner().invoke(main, ["run", str(bad)])
        assert result.exit_code == 2

    def test_guard_error_exit_3_with_name(self, tmp_path, data_csv):
        double = tmp_path / "double.yaml"
        double.write_text(workflow_text(data_csv, extra="assess: 2\n"))
        runner = CliRunner()
        result = runner.invoke(main, ["run", str(double)])
        assert result.exit_code == 3
        assert "HoldoutSpent" in result.stderr

    def test_data_error_exit_4(self, tmp_path):
        wf = tmp_path / "missing.yaml"
        wf.write_text(workflow_text(tmp_path / "nope.csv"))
        result = CliRunner().invoke(main, ["run", str(wf)])
        assert result.exit_code == 4

    @pytest.mark.parametrize("quote", ["", '"'], ids=["bytes", "csv.reader"])
    def test_oversized_csv_field_exit_4_without_traceback(self, tmp_path, quote):
        # Used to exit 1 with csv.reader's "field larger than field limit".
        data = tmp_path / "big.csv"
        data.write_text(f"x,{quote}y{quote}\n" + "1,0\n" * 5 + "x" * 200_000 + ",1\n")
        wf = tmp_path / "wf.yaml"
        wf.write_text(workflow_text(data))
        result = CliRunner().invoke(main, ["run", str(wf)])
        assert result.exit_code == 4, result.output
        error = json.loads(result.stderr)
        assert error["error"] == "ParseError"
        assert error["message"] == (
            f"{data}: field larger than field limit ({csv.field_size_limit()}) at line 7")
        assert "Traceback" not in result.output

    def test_overflowing_variance_exit_4(self, tmp_path):
        data = tmp_path / "huge.csv"
        data.write_text("x,big,y\n" + "".join(
            f"{i * 0.5},{(-1) ** i * 1e200},{i % 2}\n" for i in range(30)
        ))
        wf = tmp_path / "wf.yaml"
        wf.write_text(workflow_text(data))
        result = CliRunner().invoke(main, ["run", str(wf)])
        assert result.exit_code == 4
        error = json.loads(result.stderr)
        assert error["error"] == "SchemaError" and "'big'" in error["message"]

    def test_overflowing_mean_exit_4(self, tmp_path):
        data = tmp_path / "huge.csv"
        data.write_text("x,big,y\n" + "".join(
            f"{i * 0.5},1e308,{i % 2}\n" for i in range(30)
        ))
        wf = tmp_path / "wf.yaml"
        wf.write_text(workflow_text(data))
        result = CliRunner().invoke(main, ["run", str(wf)])
        assert result.exit_code == 4
        error = json.loads(result.stderr)
        assert error["error"] == "SchemaError" and "'big'" in error["message"]
        assert "sum" in error["message"]

    def test_inf_cell_exit_4_before_assess(self, tmp_path):
        # One inf cell makes standardize's fitted mean inf, so every
        # prepared row of 'big' would be NaN.
        data = tmp_path / "inf.csv"
        data.write_text("x,big,y\n" + "".join(
            f"{i * 0.5},{'inf' if i == 3 else i % 7},{i % 2}\n" for i in range(30)
        ))
        wf = tmp_path / "wf.yaml"
        wf.write_text(workflow_text(data))
        result = CliRunner().invoke(main, ["--registry-dump", "run", str(wf)])
        assert result.exit_code == 4, result.output
        dump, error = result.stderr.rsplit("\n{", 1)
        error = json.loads("{" + error)
        assert error["error"] == "SchemaError" and "'big'" in error["message"]
        assert not any(record["assessed"] for record in json.loads(dump).values())

    def test_identical_partitions_exit_3(self, tmp_path):
        data = tmp_path / "same.csv"
        data.write_text("x,y\n" + "0,0\n" * 10)
        wf = tmp_path / "wf.yaml"
        wf.write_text(workflow_text(data))
        result = CliRunner().invoke(main, ["run", str(wf)])
        assert result.exit_code == 3, result.output
        error = json.loads(result.stderr)
        assert error["error"] == "PartitionError" and "valid and test" in error["message"]

    def test_missing_target_exit_4(self, tmp_path):
        data = tmp_path / "gaps.csv"
        data.write_text("x,y\n" + "".join(
            f"{i * 0.5},{'' if i % 3 == 0 else i % 2}\n" for i in range(30)
        ))
        wf = tmp_path / "wf.yaml"
        wf.write_text(workflow_text(data))
        result = CliRunner().invoke(main, ["run", str(wf)])
        assert result.exit_code == 4, result.output
        error = json.loads(result.stderr)
        assert error["error"] == "SchemaError" and "missing values" in error["message"]

    @pytest.mark.parametrize(
        "line, typo",
        [("  k: 3\n", "  k: abc\n"), ("  ratios: [0.6, 0.2, 0.2]\n", "  ratios: 5\n")],
        ids=["cv.k", "split.ratios"],
    )
    def test_mistyped_spec_value_exit_2(self, tmp_path, data_csv, line, typo):
        wf = tmp_path / "typo.yaml"
        wf.write_text(workflow_text(data_csv).replace(line, typo))
        result = CliRunner().invoke(main, ["run", str(wf)])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "line, bad",
        [
            ("  seed: 42\ncv:", "  seed: -1\ncv:"),
            ("  algorithm: logistic\n", "  algorithm: knn\n  hyperparameters: {k: 0}\n"),
            ("  seed: 42\ncv:", "  seed: 1\n  seed: 2\ncv:"),
        ],
        ids=["split.seed", "knn.k", "split.seed repeated"],
    )
    def test_out_of_domain_value_exit_2(self, tmp_path, data_csv, line, bad):
        wf = tmp_path / "bad.yaml"
        text = workflow_text(data_csv)
        assert line in text
        wf.write_text(text.replace(line, bad))
        result = CliRunner().invoke(main, ["run", str(wf)])
        assert result.exit_code == 2, result.output
        assert json.loads(result.stderr)["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "blocks, message",
        [
            # Used to exit 3, a CVError raised after the CSV was read and split.
            ("split:\n  kind: temporal\n  time_col: t\n"
             "cv:\n  kind: temporal\n  k: 3\n  min_train: 0\nmodel:\n  algorithm: logistic\n",
             "cv.min_train must be a positive integer, got 0 (line 8)"),
            # These two used to exit 4 here, the absent file hiding them; with
            # a file present, the CSV was read and split before they exited 2.
            ("split:\n  kind: temporal\n  time_col: t\n"
             "cv:\n  kind: temporal\n  window: rolling\nmodel:\n  algorithm: logistic\n",
             "cv.window must be one of 'expanding', 'sliding', got 'rolling' (line 8)"),
            ("split:\n  seed: 1\ncv:\n  k: 3\n"
             "tune:\n  space: {max_iter: [5]}\n  method: bayesian\n",
             "tune.method must be one of 'grid', 'random', got 'bayesian' (line 9)"),
            ("split:\n  seed: 1\nmodel:\n  algorithm: logistic\nguards: maybe\n",
             "guards must be one of 'on', 'off', got 'maybe'"),
        ],
        ids=["cv min_train 0", "cv window rolling", "tune method bayesian", "guards maybe"],
    )
    def test_bad_setting_exit_2_before_the_data_is_read(self, tmp_path, blocks, message):
        wf = tmp_path / "bad_setting.yaml"
        wf.write_text(f"data:\n  path: {tmp_path / 'absent.csv'}\n  target: y\n" + blocks)
        result = CliRunner().invoke(main, ["run", str(wf)])
        assert result.exit_code == 2, result.output
        assert json.loads(result.stderr) == {
            "error": "ConfigError", "exit_code": 2, "message": f"{wf}: {message}",
        }

    def test_one_fold_exit_2_before_the_data_is_read(self, tmp_path):
        # Used to exit 3, a CVError raised after the CSV was read and split.
        wf = tmp_path / "one_fold.yaml"
        wf.write_text(
            f"data:\n  path: {tmp_path / 'absent.csv'}\n  target: y\n"
            "split:\n  seed: 1\n"
            "cv:\n  k: 1\n"
            "model:\n  algorithm: logistic\n"
        )
        result = CliRunner().invoke(main, ["run", str(wf)])
        assert result.exit_code == 2, result.output
        assert json.loads(result.stderr) == {
            "error": "ConfigError", "exit_code": 2,
            "message": f"{wf}: cv.k must be an integer of at least 2, got 1 (line 7)",
        }

    @pytest.mark.parametrize(
        "old, new",
        [
            (MODEL_BLOCK, "screen:\n  algorithms: [logistic, knn]\n  hyperparameters: {knn: 3}\n"),
            (MODEL_BLOCK, "stack:\n  base: [logistic, knn]\n  hyperparameters: {knn: 3}\n"),
            (MODEL_BLOCK, "tune:\n  algorithm: knn\n  space: {k: 3}\n"),
            (MODEL_BLOCK, "tune:\n  algorithm: knn\n  space: {k: {3: 1}}\n"),
            (MODEL_BLOCK, "model:\n  recipe: [5]\n"),
            (MODEL_BLOCK, "model:\n  recipe: [[standardize, null, x0]]\n"),
            (MODEL_BLOCK, "model:\n  recipe: [{step: impute_mean, columns: 5}]\n"),
            (MODEL_BLOCK, "model:\n  recipe: [{step: impute_mean, colums: [x0]}]\n"),
            ("  target: y\n", "  target: y\n  schema_hints: {x0: [1]}\n"),
        ],
        ids=["screen hyperparameters", "stack hyperparameters", "tune dimension",
             "tune mapping dimension", "recipe entry", "recipe triple",
             "recipe columns", "recipe step key", "schema hint"],
    )
    def test_malformed_value_exit_2_without_traceback(self, tmp_path, data_csv, old, new):
        wf = tmp_path / "bad.yaml"
        text = workflow_text(data_csv)
        assert old in text
        wf.write_text(text.replace(old, new, 1))
        result = CliRunner().invoke(main, ["run", str(wf)])
        assert result.exit_code == 2, result.output
        assert json.loads(result.stderr)["error"] == "ConfigError"
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "block",
        [
            "screen:\n  algorithms: [logistic, knn]\n  hyperparameters: {kn: {k: 1}}\n",
            "stack:\n  base: [logistic, knn]\n  meta: decision_tree\n"
            "  hyperparameters: {decision_tree: {max_depth: 1}}\n",
        ],
        ids=["screen", "stack meta"],
    )
    def test_hyperparameters_for_an_algorithm_not_trained_exit_2(
        self, tmp_path, data_csv, block
    ):
        wf = tmp_path / "bad.yaml"
        wf.write_text(workflow_text(data_csv, mode_block=block))
        result = CliRunner().invoke(main, ["run", str(wf)])
        assert result.exit_code == 2, result.output
        error = json.loads(result.stderr)
        assert error["error"] == "ConfigError" and "hyperparameters key" in error["message"]

    def test_unknown_metric_exit_2_before_data_is_read(self, tmp_path):
        wf = tmp_path / "metric.yaml"
        # The data file does not exist: reading it would exit 4.
        text = workflow_text(tmp_path / "nope.csv")
        wf.write_text(text.replace("[accuracy, roc_auc]", "[acuracy]"))
        result = CliRunner().invoke(main, ["run", str(wf)])
        assert result.exit_code == 2, result.output
        assert "'acuracy'" in json.loads(result.stderr)["message"]

    def test_metric_of_the_other_task_exit_2_holdout_unspent(self, tmp_path, data_csv):
        wf = tmp_path / "metric.yaml"
        wf.write_text(workflow_text(data_csv).replace("[accuracy, roc_auc]", "[rmse]"))
        result = CliRunner().invoke(main, ["--registry-dump", "run", str(wf)])
        assert result.exit_code == 2, result.output
        dump, error = result.stderr.rsplit("\n{", 1)
        error = json.loads("{" + error)
        assert error["error"] == "ConfigError" and "classification task" in error["message"]
        assert not any(record["assessed"] for record in json.loads(dump).values())

    @pytest.mark.parametrize("first_text_row", [30, 32], ids=["evaluate", "assess"])
    def test_text_in_column_numeric_at_fit_exit_4(self, tmp_path, first_text_row):
        # Temporal 0.6/0.2/0.2 split of 40 rows: train 0-23, valid 24-31,
        # test 32-39. Column c is empty in every train row, so it is fitted
        # as numeric; its text then reaches evaluate, or only assess.
        data = tmp_path / "late_text.csv"
        data.write_text("t,x,c,y\n" + "".join(
            f"{i},{i % 5 * 0.5},{'ab'[i % 2] if i >= first_text_row else ''},{i % 2}\n"
            for i in range(40)
        ))
        wf = tmp_path / "wf.yaml"
        wf.write_text(
            f"data:\n  path: {data}\n  target: y\n"
            "split:\n  kind: temporal\n  time_col: t\n"
            "model:\n  algorithm: logistic\n"
        )
        result = CliRunner().invoke(main, ["--registry-dump", "run", str(wf)])
        assert result.exit_code == 4, result.output
        dump, error = result.stderr.rsplit("\n{", 1)
        error = json.loads("{" + error)
        assert error["error"] == "SchemaError" and "'c'" in error["message"]
        assert not any(record["assessed"] for record in json.loads(dump).values())

    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("bad_row", [28, 36], ids=["evaluate", "assess"])
    def test_inf_cell_at_scoring_exit_4(self, tmp_path, task, bad_row):
        # Temporal 0.6/0.2/0.2 split of 40 rows, as above. The model trains
        # on finite rows; a later row holds inf and -inf features (its
        # logistic score is inf - inf) or an inf regression target.
        rows = []
        for i in range(40):
            x0, x1 = (i * 7 % 11) / 5.0, (i * 3 % 7) / 3.0
            y = int(x0 + x1 > 3.0) if task == "classification" else x0 + x1
            if i == bad_row:
                x0, x1, y = ("inf", "-inf", y) if task == "classification" else (x0, x1, "inf")
            rows.append(f"{i},{x0},{x1},{y}\n")
        data = tmp_path / "late_inf.csv"
        data.write_text("t,x0,x1,y\n" + "".join(rows))
        wf = tmp_path / "wf.yaml"
        algorithm = "logistic" if task == "classification" else "linear"
        wf.write_text(
            f"data:\n  path: {data}\n  target: y\n"
            "split:\n  kind: temporal\n  time_col: t\n"
            f"model:\n  algorithm: {algorithm}\n"
        )
        result = CliRunner().invoke(main, ["--registry-dump", "run", str(wf)])
        assert result.exit_code == 4, result.output
        dump, error = result.stderr.rsplit("\n{", 1)
        error = json.loads("{" + error)
        name = "'x0'" if task == "classification" else "'y'"
        assert error["error"] == "SchemaError" and name in error["message"]
        assert not any(record["assessed"] for record in json.loads(dump).values())

    def test_unreadable_data_exit_4(self, tmp_path):
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("x,y\n1.0,caf\xe9\n".encode("latin-1"))
        for data_path, error in ((tmp_path, "IsADirectoryError"),
                                 (latin1, "UnicodeDecodeError")):
            wf = tmp_path / "wf.yaml"
            wf.write_text(workflow_text(data_path))
            result = CliRunner().invoke(main, ["run", str(wf)])
            assert result.exit_code == 4
            assert json.loads(result.stderr)["error"] == error

    def test_global_guards_override(self, tmp_path, data_csv):
        double = tmp_path / "double.yaml"
        double.write_text(workflow_text(data_csv, extra="assess: 2\n"))
        result = CliRunner().invoke(main, ["--guards", "off", "run", str(double)])
        assert result.exit_code == 0
        assert json.loads(result.output)["guards_bypassed"] is True

    def test_registry_dump(self, workflow_file):
        runner = CliRunner()
        result = runner.invoke(main, ["--registry-dump", "run", str(workflow_file)])
        assert result.exit_code == 0
        dump = json.loads(result.stderr)
        roles = sorted(entry["role"] for entry in dump.values())
        assert roles == ["dev", "test", "train", "valid"]
        assert sum(entry["assessed"] for entry in dump.values()) == 1

    def test_conformance_command(self):
        result = CliRunner().invoke(main, ["conformance"])
        assert result.exit_code == 0
        assert json.loads(result.output)["passed"] is True

    def test_demo_replicate_floor_exit_2(self):
        result = CliRunner().invoke(
            main, ["demo", "seed_selection", "--replicates", "5"]
        )
        assert result.exit_code == 2

    def test_demo_unknown_kind_rejected(self):
        result = CliRunner().invoke(main, ["demo", "nonsense"])
        assert result.exit_code == 2  # click usage error


def test_custom_recipe_in_workflow(tmp_path, data_csv):
    wf = tmp_path / "recipe.yaml"
    wf.write_text(
        workflow_text(
            data_csv,
            mode_block=(
                "model:\n"
                "  algorithm: decision_tree\n"
                "  seed: 1\n"
                "  recipe:\n"
                "    - impute_mean\n"
                "    - step: standardize\n"
                "      columns: [x0, x1]\n"
            ),
        )
    )
    report = run_workflow(wf)
    assert report.evidence is not None


def test_unknown_recipe_step_exit_2(tmp_path, data_csv):
    wf = tmp_path / "badrecipe.yaml"
    wf.write_text(
        workflow_text(
            data_csv,
            mode_block=(
                "model:\n"
                "  algorithm: logistic\n"
                "  recipe: [winsorize]\n"
            ),
        )
    )
    result = CliRunner().invoke(main, ["run", str(wf)])
    assert result.exit_code == 2



def _every_key_csv(tmp_path):
    rng = np.random.Generator(np.random.Philox(11))
    y = [i % 2 for i in range(90)]
    df = DataFrame(
        {
            "t": list(range(90)),
            "g": [f"g{i % 10}" for i in range(90)],
            "c": [i % 3 for i in range(90)],
            "x0": [round(float(rng.normal(1.5 * v)), 4) for v in y],
            "x1": [round(float(rng.normal(0.5 * v)), 4) for v in y],
            "y": y,
        }
    )
    path = tmp_path / "every_key.csv"
    write_csv(path, df)
    return path


def _ranking(result, rows):
    return {rows: [list(row) for row in getattr(result, rows)], "best": result.best,
            "metric": result.metric}


def _model_calls(df, reg):
    p = split(df, "y", ratios=[0.5, 0.3, 0.2], seed=3, stratify=True, registry=reg)
    c = cv(p, 4, seed=5, registry=reg)
    m = fit(c, "y", algorithm="random_forest", seed=7, hyperparameters={"n_trees": 4},
            recipe=["one_hot", {"step": "standardize", "columns": ["x0"]}], registry=reg)
    return p, m, ("fit", {"cv_scores": m.scores_})


def _screen_calls(df, reg):
    p = split_temporal(df, "y", time_col="t", ratios=[0.5, 0.3, 0.2], embargo=2, registry=reg)
    c = cv_temporal(p, 3, window="sliding", min_train=10, embargo=2, registry=reg)
    hps = {"random_forest": {"n_trees": 4}, "knn": {"k": 3}}
    board = screen(c, "y", algorithms=["random_forest", "knn"], seed=5, hyperparameters=hps,
                   registry=reg)
    m = fit(p.dev, "y", algorithm=board.best, seed=5, hyperparameters=hps[board.best],
            registry=reg)
    return p, m, ("screen", {"leaderboard": _ranking(board, "rows")})


def _tune_calls(df, reg):
    p = split_group(df, "y", group_col="g", ratios=[0.5, 0.3, 0.2], seed=4, registry=reg)
    c = cv_group(p, 3, seed=6, registry=reg)
    result = tune(c, "y", algorithm="random_forest",
                  space={"max_depth": [2, 3, 4], "n_trees": [3, 4]}, budget=3, method="random",
                  seed=2, registry=reg)
    m = fit(p.dev, "y", algorithm="random_forest", seed=2, hyperparameters=result.best,
            registry=reg)
    return p, m, ("tune", {"tuning": _ranking(result, "trials")})


def _stack_calls(df, reg):
    p = split(df, "y", registry=reg)
    c = cv(p, registry=reg)
    m = stack(c, "y", base_algorithms=["random_forest", "knn"], meta_algorithm="decision_tree",
              seed=4, hyperparameters={"random_forest": {"n_trees": 4}, "knn": {"k": 3}},
              registry=reg)
    return p, m, ("stack", {})


# One spec per block variant, every key set away from its default, with the
# public API calls the workflow must make for it.
EVERY_KEY = {
    "random-kfold-model": (
        "split:\n  kind: random\n  ratios: [0.5, 0.3, 0.2]\n  seed: 3\n  stratify: true\n"
        "cv:\n  kind: kfold\n  k: 4\n  seed: 5\n"
        "model:\n  algorithm: random_forest\n  seed: 7\n  hyperparameters: {n_trees: 4}\n"
        "  recipe: [one_hot, {step: standardize, columns: [x0]}]\n",
        _model_calls,
    ),
    "temporal-temporal-screen": (
        "split:\n  kind: temporal\n  time_col: t\n  ratios: [0.5, 0.3, 0.2]\n  embargo: 2\n"
        "cv:\n  kind: temporal\n  k: 3\n  window: sliding\n  min_train: 10\n  embargo: 2\n"
        "screen:\n  algorithms: [random_forest, knn]\n  seed: 5\n"
        "  hyperparameters: {random_forest: {n_trees: 4}, knn: {k: 3}}\n",
        _screen_calls,
    ),
    "group-group-tune": (
        "split:\n  kind: group\n  group_col: g\n  ratios: [0.5, 0.3, 0.2]\n  seed: 4\n"
        "cv:\n  kind: group\n  k: 3\n  seed: 6\n"
        "tune:\n  algorithm: random_forest\n  space: {max_depth: [2, 3, 4], n_trees: [3, 4]}\n"
        "  budget: 3\n  method: random\n  seed: 2\n",
        _tune_calls,
    ),
    "stack": (
        "split:\n  kind: random\n"
        "cv:\n  kind: kfold\n"
        "stack:\n  base: [random_forest, knn]\n  meta: decision_tree\n  seed: 4\n"
        "  hyperparameters: {random_forest: {n_trees: 4}, knn: {k: 3}}\n",
        _stack_calls,
    ),
}
DATA_BLOCK = "data:\n  path: {}\n  target: y\n  schema_hints: {{c: text}}\n"
REPORT_BLOCK = "report:\n  metrics: [accuracy, log_loss]\n"


def test_every_table_key_is_set_by_a_variant():
    from holdout.workflow import _BLOCKS, _keys

    # The keys each block and kind takes, as its verb's signature declares them.
    declared = {
        (name, kind, key)
        for name, kinds in _BLOCKS.items()
        for kind in kinds
        for key in _keys(name, kind)
    }
    used = set()
    for blocks, _ in EVERY_KEY.values():
        doc = yaml.safe_load(DATA_BLOCK.format("x.csv") + blocks + REPORT_BLOCK)
        for name, block in doc.items():
            kind = block.get("kind", next(iter(_BLOCKS[name])))
            used.update((name, kind, key) for key in block if key != "kind")
    assert used == declared


def test_every_block_key_is_typed_by_its_verb():
    from holdout.signatures import _checked
    from holdout.workflow import _BLOCKS, _keys

    # A key whose parameter has no annotation the checks cover would reach
    # its verb unchecked.
    for name, kinds in _BLOCKS.items():
        for kind in kinds:
            for key, (verb, param) in _keys(name, kind).items():
                assert param.name in _checked(verb), (name, kind, key, param)


@pytest.mark.parametrize("variant", list(EVERY_KEY))
def test_every_key_reaches_its_verb(tmp_path, variant):
    blocks, api_calls = EVERY_KEY[variant]
    path = _every_key_csv(tmp_path)
    wf = tmp_path / "every_key.yaml"
    wf.write_text(DATA_BLOCK.format(path) + blocks + REPORT_BLOCK)

    reg = ProvenanceRegistry()
    partition, model, (verb, fields) = api_calls(from_csv(path, {"c": "text"}), reg)
    metrics = ["accuracy", "log_loss"]
    expected = RunReport(
        **fields,
        valid_metrics=evaluate(model, partition.valid, metrics=metrics, registry=reg).to_dict(),
        evidence=assess(model, partition.test, metrics=metrics, registry=reg).to_dict(),
        guard_events=[[v, "ok"] for v in ("load", "split", "cv", verb, "evaluate", "assess")],
    )
    assert run_workflow(wf).to_json() == expected.to_json()

"""The three closed-loop workloads: inputs made from a seed, one op each,
and the per-op output checks.

Every workload builds its inputs with its own numpy code before timing
starts and hands the library only generated CSV/YAML files or frames. An op
returns a raw result; `outputs` turns it into a JSON-able summary after the
op's timer has stopped, raising `CheckFailed` when a workload-specific
check does not hold.
"""

from __future__ import annotations

import csv
import hashlib
import os
import struct
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import holdout as ml

class CheckFailed(Exception):
    """An op's output is wrong, or an expected rejection did not fire."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


# --- independent canonical cell encoding (README "Fingerprints") ---------


def encode_cell(value) -> bytes:
    """Canonical bytes of one cell, written from the README's layout:
    missing and NaN -> 0xFF; numbers -> 0x01 + big-endian float64 (ints
    that are exact float64s too, -0.0 as +0.0), other ints -> 0x02 +
    8-byte signed; bool -> 0x03 + 0x00/0x01; text -> 0x04 + 4-byte
    big-endian length + UTF-8."""
    if value is None:
        return b"\xff"
    if isinstance(value, (bool, np.bool_)):
        return b"\x03\x01" if value else b"\x03\x00"
    if isinstance(value, (int, np.integer)):
        value = int(value)
        try:
            exact = float(value) == value
        except OverflowError:
            exact = False
        if not exact:
            return b"\x02" + struct.pack(">q", value)
        value = float(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value != value:
            return b"\xff"
        return b"\x01" + struct.pack(">d", 0.0 if value == 0.0 else value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"\x04" + struct.pack(">I", len(raw)) + raw
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def column_digests(columns: dict[str, Any]) -> dict[str, bytes]:
    digests = {}
    for name, cells in columns.items():
        h = hashlib.sha256()
        for cell in cells:
            h.update(encode_cell(cell))
        digests[name] = h.digest()
    return digests


def fingerprint_matches(columns: dict[str, Any], df) -> bool:
    """True when the library's per-column digests of `df` equal ours of
    `columns`, and the row counts agree."""
    fp = ml.fingerprint(df)
    rows = {len(cells) for cells in columns.values()}
    return rows == {fp.row_count} and column_digests(columns) == fp.column_digests


def fingerprint_check(workload: "Workload", case: "Case") -> bool:
    """Re-encode one registered partition (and, where the library parsed
    a file, the loaded frame) and compare with `holdout.fingerprint`."""
    try:
        part = workload.partition(case)
        cells = {name: list(part.column(name)) for name in part.column_names}
        return fingerprint_matches(cells, part)
    except Exception:
        traceback.print_exc()
        return False


# --- brute-force AUC -----------------------------------------------------


def pairwise_auc(labels, scores) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties half."""
    y = np.asarray(labels, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    pos, neg = s[y == 1.0], s[y == 0.0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (len(pos) * len(neg))


def _check_auc(model, df, reported: float, what: str) -> None:
    labels = df.column("y")
    scores = ml.predict(model, df).values
    expected = pairwise_auc(labels, scores)
    _require(
        abs(reported - expected) <= 1e-12,
        f"{what}: roc_auc {reported!r} differs from pairwise AUC {expected!r}",
    )


# --- workload shape ------------------------------------------------------


@dataclass
class Case:
    """Generated inputs for one workload at one seed.

    `fresh()` returns the op's argument; it is called before each op,
    outside the timer, so no op inherits another op's caches.
    """

    seed: int
    fresh: Callable[[], Any]
    files: tuple[Path, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    layers: tuple[str, ...]  # holdout modules the traced run must reach
    make_case: Callable[[int, Path, bool], Case]  # seed, work dir, small
    op: Callable[[Case, Any], Any]
    outputs: Callable[[Any], dict]
    partition: Callable[[Case], Any]  # a registered partition member, for the fingerprint check
    # Run once per set-up on the small case; defaults to `op`.
    warm_up: Callable[[Case, Any], Any] | None = None
    # Number of cases one run makes from its seed; ops take them in turn,
    # so a run's op times do not hang on one draw of the data.
    variants: int = 1

    def make_cases(self, seed: int, work_dir: Path) -> list[Case]:
        """The run's cases; variant v gets seed `seed * variants + v`."""
        return [
            self.make_case(seed * self.variants + v, work_dir, False)
            for v in range(self.variants)
        ]


# --- cv_workflow_20k -----------------------------------------------------

CSV_ROWS = 20_000
CSV_FLOATS = 18
CSV_MISSING = 0.02
CSV_LEVELS = {"cat_a": 5, "cat_b": 8}


def _make_csv_case(seed: int, work_dir: Path, small: bool) -> Case:
    n = 400 if small else CSV_ROWS
    rng = _rng(seed)
    X = rng.normal(size=(n, CSV_FLOATS))
    missing = rng.random(size=(n, CSV_FLOATS)) < CSV_MISSING
    y = X @ rng.normal(size=CSV_FLOATS)
    text_cols = {}
    for name, levels in CSV_LEVELS.items():
        codes = rng.integers(0, levels, size=n)
        y = y + rng.normal(size=levels)[codes]
        text_cols[name] = [f"{name}_l{c}" for c in codes]
    y = y + rng.normal(scale=0.5, size=n)

    text = {f"x{j}": [format(v, ".6f") for v in X[:, j]] for j in range(CSV_FLOATS)}
    for j in range(CSV_FLOATS):
        col = text[f"x{j}"]
        for i in np.flatnonzero(missing[:, j]):
            col[i] = ""
    text.update(text_cols)
    text["y"] = [format(v, ".6f") for v in y]

    names = list(text)
    stem = f"cv_workflow_{'warm' if small else 'main'}_{seed}_{os.getpid()}"
    csv_path = work_dir / f"{stem}.csv"
    lines = [",".join(names)]
    lines.extend(",".join(row) for row in zip(*text.values()))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    yaml_path = work_dir / f"{stem}.yaml"
    yaml_path.write_text(
        f"data:\n  path: {csv_path}\n  target: y\n"
        f"split:\n  kind: random\n  ratios: [0.6, 0.2, 0.2]\n  seed: {seed}\n"
        f"cv:\n  k: 5\n  seed: {seed}\n"
        "model:\n  algorithm: linear\n  seed: 0\n"
        "assess: 1\n",
        encoding="utf-8",
    )
    return Case(seed, lambda: yaml_path, (csv_path, yaml_path))


def _cv_workflow_op(case: Case, yaml_path: Path):
    return ml.run_workflow(yaml_path)


def _cv_workflow_outputs(report) -> dict:
    out = report.to_dict()
    _require(out["evidence"] is not None, "workflow produced no Evidence")
    _require(not out["guards_bypassed"], "guards-on workflow reports a bypass")
    return out


def _cv_workflow_partition(case: Case):
    with open(case.files[0], newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    cells = {
        name: [None if c == "" else (c if name in CSV_LEVELS else float(c)) for c in col]
        for name, col in zip(header, zip(*rows))
    }
    df = ml.from_csv(case.files[0])
    _require(fingerprint_matches(cells, df), "loaded CSV fingerprint mismatch")
    return ml.split(df, "y", seed=case.seed, registry=ml.ProvenanceRegistry()).test


# --- two-Gaussian frames (strategy_2k, session_small) --------------------


def _gaussian_case(n: int, p: int):
    """Balanced binary data; the first two features are shifted by 1.0 for
    class 1, the rest are noise (the recipe of `holdout.demo`)."""

    def make(seed: int, work_dir: Path, small: bool) -> Case:
        rows = min(n, 100) if small else n
        rng = _rng(seed)
        labels = np.array([0] * (rows // 2) + [1] * (rows - rows // 2))
        X = rng.normal(size=(rows, p))
        X[labels == 1, :2] += 1.0
        columns = {f"f{j}": X[:, j].tolist() for j in range(p)}
        columns["y"] = labels.tolist()
        return Case(seed, lambda: ml.DataFrame(columns))

    return make


def _gaussian_partition(case: Case):
    return ml.split(case.fresh(), "y", seed=case.seed, registry=ml.ProvenanceRegistry()).test


SCREEN_ALGOS = ("logistic", "decision_tree", "random_forest", "knn")
TUNE_SPACE = {"max_depth": [2, 4, 6], "min_leaf": [2, 8]}


def _strategy_op(case: Case, df):
    reg = ml.ProvenanceRegistry()
    s = ml.split(df, "y", seed=case.seed, registry=reg)
    c = ml.cv(s, 5, seed=case.seed, registry=reg)
    board = ml.screen(c, "y", algorithms=SCREEN_ALGOS, seed=0, registry=reg)
    winner = ml.fit(s.dev, "y", algorithm=board.best, seed=0, registry=reg)
    tuning = ml.tune(c, "y", algorithm="decision_tree", space=TUNE_SPACE, seed=0, registry=reg)
    stacked = ml.stack(
        c, "y", base_algorithms=["logistic", "knn"], meta_algorithm="logistic",
        seed=0, registry=reg,
    )
    valid = ml.evaluate(stacked, s.valid, registry=reg)
    importances = ml.explain(winner, s.valid, repeats=3, registry=reg)
    evidence = ml.assess(stacked, s.test, registry=reg)
    return s, board, winner, tuning, valid, importances, evidence


def _strategy_outputs(result) -> dict:
    s, board, winner, tuning, valid, importances, evidence = result
    _require(winner.algorithm == board.best, "refit winner is not the leaderboard best")
    _require(
        not (valid.guards_bypassed or evidence.guards_bypassed),
        "guards-on session reports a bypass",
    )
    return {
        "split_id": s.split_id,
        "leaderboard": {"rows": board.rows, "best": board.best, "metric": board.metric},
        "tuning_best": tuning.best,
        "tuning_trials": tuning.trials,
        "valid": valid.to_dict(),
        "explain": importances.to_dict(),
        "evidence": evidence.to_dict(),
    }


SMALL_ROWS = 300
SMALL_FEATURES = 8


def _expect(exc_type, call) -> str:
    """Run `call`, which must raise exactly `exc_type`; return its name."""
    try:
        call()
    except ml.WorkflowError as exc:
        if type(exc) is not exc_type:
            raise CheckFailed(
                f"expected {exc_type.__name__}, got {type(exc).__name__}: {exc}"
            ) from exc
        return type(exc).__name__
    raise CheckFailed(f"expected {exc_type.__name__}, nothing was raised")


def _session_op(case: Case, df):
    reg = ml.ProvenanceRegistry()
    s = ml.split(df, "y", seed=case.seed, registry=reg)
    c = ml.cv(s, 3, seed=case.seed, registry=reg)
    model = ml.fit(c, "y", algorithm="decision_tree", seed=0, registry=reg)
    valid = ml.evaluate(model, s.valid, registry=reg)
    features = [n for n in s.valid.column_names if n != "y"]
    projected = ml.evaluate(
        model, ml.select_columns(s.valid, ["y"] + features[::-1]), registry=reg
    )
    importances = ml.explain(model, s.valid, repeats=2, registry=reg)
    evidence = ml.assess(model, s.test, registry=reg)

    other = ml.fit(s.dev, "y", algorithm="decision_tree", seed=0, registry=reg)
    rejections = [
        _expect(ml.HoldoutSpent, lambda: ml.assess(other, s.test, registry=reg)),
        _expect(ml.PartitionError, lambda: ml.fit(df, "y", algorithm="logistic", registry=reg)),
        _expect(ml.GuardError, lambda: ml.evaluate(model, s.test, registry=reg)),
    ]

    leaky_reg = ml.ProvenanceRegistry()
    leaky_reg.set_guards("off")
    s2 = ml.split(df, "y", seed=case.seed, registry=leaky_reg)
    leaky_model = ml.fit(s2.dev, "y", algorithm="logistic", seed=0, registry=leaky_reg)
    leaky = ml.evaluate(leaky_model, s2.test, registry=leaky_reg)
    return s, model, valid, projected, importances, evidence, rejections, s2, leaky_model, leaky


def _session_outputs(result) -> dict:
    s, model, valid, projected, importances, evidence, rejections, s2, leaky_model, leaky = result
    _require(projected.values == valid.values, "column projection changed valid metrics")
    _require(
        not (model.guards_bypassed or valid.guards_bypassed or evidence.guards_bypassed),
        "guards-on arm reports a bypass",
    )
    _require(
        leaky_model.guards_bypassed and leaky.guards_bypassed,
        "guards-off artifact lacks guards_bypassed=True",
    )
    _check_auc(model, s.valid, valid["roc_auc"], "honest valid")
    _check_auc(leaky_model, s2.test, leaky["roc_auc"], "leaky test")
    return {
        "split_id": s.split_id,
        "cv_scores": model.scores_,
        "valid": valid.to_dict(),
        "explain": importances.to_dict(),
        "evidence": evidence.to_dict(),
        "rejections": rejections,
        "leaky": leaky.to_dict(),
    }


ALL_LAYERS = (
    "frame", "registry", "split", "rotate", "prepare", "learn",
    "learners", "scoring", "judge",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cv_workflow_20k",
            layers=ALL_LAYERS + ("workflow",),
            make_case=_make_csv_case,
            op=_cv_workflow_op,
            outputs=_cv_workflow_outputs,
            partition=_cv_workflow_partition,
        ),
        Workload(
            name="strategy_2k",
            layers=ALL_LAYERS + ("strategy",),
            make_case=_gaussian_case(2000, 20),
            op=_strategy_op,
            outputs=_strategy_outputs,
            partition=_gaussian_partition,
            # The strategy op's fixed logistic iteration counts make even a
            # 100-row copy cost seconds; the session op touches the same
            # modules in a tenth of that.
            warm_up=_session_op,
        ),
        Workload(
            name="session_small",
            layers=ALL_LAYERS,
            make_case=_gaussian_case(SMALL_ROWS, SMALL_FEATURES),
            op=_session_op,
            outputs=_session_outputs,
            partition=_gaussian_partition,
            # One 300-row draw can cost a fifth more or less than another;
            # sixteen keep the slowest draw from setting the run's tail.
            variants=16,
        ),
    )
}

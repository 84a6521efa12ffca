"""`holdout run` on small, messy CSVs: every run exits 0, 2, 3 or 4, never
with a traceback, and a report that exits 0 holds only finite metrics.

Cells are numbers, empty, `nan`, `inf`, `-inf`, `1e400` or short text; the
spec's algorithm, `cv.k` and split seed are drawn too.
"""

import json
import math
import os
import tempfile

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from holdout.cli import main

ODD_NUMBERS = st.sampled_from(["", "nan", "inf", "-inf", "1e400"])
CELLS = st.one_of(
    st.integers(min_value=-3, max_value=3).map(str),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(repr),
    ODD_NUMBERS,
    st.text(alphabet="abxyz _-", min_size=1, max_size=4),
)
# The target is usually two classes, sometimes any cells at all.
BINARY = st.sampled_from(["0", "1"])
TARGETS = st.sampled_from([BINARY, BINARY, st.sampled_from(["no", "yes"]), CELLS])


@st.composite
def _csv(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    p = draw(st.integers(min_value=1, max_value=3))
    # Any cells, or mostly numbers with odd cells mixed in. One text cell
    # makes a column categorical, so one kind mixes in only odd numbers.
    numbers = st.floats(min_value=-10, max_value=10, allow_nan=False).map(repr)
    feature = draw(st.sampled_from([
        CELLS,
        st.one_of(numbers, numbers, numbers, CELLS),
        st.one_of(numbers, numbers, numbers, ODD_NUMBERS),
    ]))
    target = draw(TARGETS)
    lines = [",".join([f"x{j}" for j in range(p)] + ["y"])]
    for _ in range(n):
        row = [draw(feature) for _ in range(p)] + [draw(target)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@st.composite
def _spec(draw):
    algorithm = draw(st.sampled_from(
        ["logistic", "decision_tree", "random_forest", "knn", "linear"]
    ))
    hyperparameters = {
        "logistic": "{max_iter: 50}", "random_forest": "{n_trees: 3}",
    }.get(algorithm, "null")
    return (
        "split:\n"
        "  kind: random\n"
        f"  seed: {draw(st.integers(min_value=0, max_value=2**32 - 1))}\n"
        "cv:\n"
        "  kind: kfold\n"
        f"  k: {draw(st.sampled_from([2, 2, 3, 3, 5, 0, 1, 40]))}\n"
        "model:\n"
        f"  algorithm: {algorithm}\n"
        f"  hyperparameters: {hyperparameters}\n"
    )


def _numbers(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _numbers(value)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


@given(csv_text=_csv(), spec=_spec())
@settings(max_examples=80, deadline=None)
def test_run_exits_cleanly(csv_text, spec):
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.csv")
        with open(data, "w") as fh:
            fh.write(csv_text)
        wf = os.path.join(tmp, "wf.yaml")
        with open(wf, "w") as fh:
            fh.write(f"data:\n  path: {data}\n  target: y\n" + spec)
        result = CliRunner().invoke(main, ["run", wf])
    output = result.output + result.stderr
    assert result.exit_code in (0, 2, 3, 4), (result.exception, output)
    assert "Traceback" not in output
    if result.exit_code == 0:
        report = json.loads(result.stdout)
        metrics = [report["cv_scores"], report["valid_metrics"], report["evidence"]]
        assert all(math.isfinite(v) for v in _numbers(metrics)), report

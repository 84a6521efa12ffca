"""An op run under perfbench's tracer computes what the same op computes
untraced, and reaches every layer its workload names. The tracer swaps the
library's functions for wrappers, and the verbs read their checks through
those names, so a check skipped or changed only under tracing shows here."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["cv_workflow_20k", "strategy_2k", "session_small"])
def test_traced_op_matches_plain_op(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    case = workload.make_case(0, tmp_path, True)  # the small case
    plain = workload.outputs(workload.op(case, case.fresh()))
    tracer = tracing.Tracer()
    tracer.op_id = 0
    tracer.install()
    try:
        traced = workload.outputs(workload.op(case, case.fresh()))
    finally:
        tracer.uninstall()
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)
    _, reached = layers.per_layer(tracer, [], [], workload.layers)
    assert [layer for layer, hit in reached.items() if not hit] == []

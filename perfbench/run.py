"""Benchmark entry point: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload strategy_2k --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory. With `--trace 0` the run reports the end-to-end metrics;
with `--trace 1` it alternates untraced and traced ops and reports the
per-layer metrics. The last line of standard output is the JSON result.

End-to-end times are wall times scaled by the machine's speed, sampled
while they run (see `calibrate.py`); the raw wall times are printed on the
`env` line.
"""

import calibrate

# Set-up is timed from here, imports included.
SETUP_CLOCK = calibrate.SpeedSampler()
SETUP_CLOCK.start()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# numpy's BLAS pool is the only extra thread pool. It gets one thread by
# default, set before numpy is first imported: on a shared host a second
# thread's speed depends on what else runs on the other core, which the
# speed sampler in the main thread cannot see. A larger count in the
# environment is honoured up to nproc.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    try:
        _wanted = int(os.environ.get(_var, 1))
    except ValueError:
        _wanted = 1
    os.environ[_var] = str(max(1, min(_wanted, NPROC)))

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3

END_TO_END = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help=f"record one op's outputs per case at seed {DEFAULT_SEED} as the reference",
    )
    return parser.parse_args(argv)


def import_library():
    """Import `holdout` from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "holdout" / "__init__.py").is_file():
        sys.exit(f"perfbench: no holdout package under {src}")
    sys.path.insert(0, str(src))
    import holdout

    if Path(holdout.__file__).resolve().parent != (src / "holdout").resolve():
        sys.exit(f"perfbench: imported holdout from {holdout.__file__}, not {src}")
    return holdout


def environment() -> dict:
    import numpy
    import yaml

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def canonical(outputs) -> str:
    return json.dumps(outputs, sort_keys=True)


def tail(samples):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); the maximum when there are fewer
    than eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Loop:
    """Closed-loop op runner with the per-op correctness gate. Ops take the
    run's cases in turn."""

    def __init__(self, workload, cases, reference):
        self.workload = workload
        self.cases = cases
        self.reference = reference
        self.first = [None] * len(cases)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run_one(self, tracer=None, op_id=0, clock=None):
        """Run one op; returns its wall time, or None if it failed. With a
        `clock` (a `calibrate.SpeedSampler`), the op is timed on it."""
        index = self.attempted % len(self.cases)
        case = self.cases[index]
        arg = case.fresh()
        # Start every op from an empty collector, so no op pays for the
        # garbage of the one before.
        gc.collect()
        self.attempted += 1
        try:
            try:
                if tracer is not None:
                    tracer.op_id = op_id
                    tracer.install()
                if clock is None:
                    start = time.perf_counter()
                    result = self.workload.op(case, arg)
                    elapsed = time.perf_counter() - start
                else:
                    clock.start()
                    try:
                        result = self.workload.op(case, arg)
                    finally:
                        clock.stop()
                    elapsed = clock.wall_s
            finally:
                if tracer is not None:
                    tracer.uninstall()
            got = canonical(self.workload.outputs(result))
            if self.first[index] is None:
                self.first[index] = got
            if got != self.first[index]:
                raise AssertionError("outputs differ from this run's first op on this case")
            if self.reference is not None and got != self.reference[index]:
                raise AssertionError(f"outputs differ from {REFERENCE.name}")
        except Exception:
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(traceback.format_exc())
            return None
        return elapsed


def run_untraced(loop, seconds):
    """Returns the scaled op times, the raw wall times and the mean probe
    time of each op."""
    times, walls, probes = [], [], []
    clock = calibrate.SpeedSampler()
    begin = time.perf_counter()
    while True:
        elapsed = loop.run_one(clock=clock)
        if elapsed is not None:
            walls.append(elapsed)
            times.append(clock.scaled_s)
            probes.append(statistics.fmean(clock.probes))
        spent = time.perf_counter() - begin
        if spent + (statistics.median(walls) if walls else 0.0) > seconds:
            return times, walls, probes


def run_traced(loop, seconds, tracer):
    """Alternate untraced and traced ops; returns both sets of op times."""
    plain, traced = [], []
    begin = time.perf_counter()
    op_id = 0
    while True:
        elapsed = loop.run_one()
        if elapsed is not None:
            plain.append(elapsed)
        elapsed = loop.run_one(tracer, op_id)
        op_id += 1
        if elapsed is not None:
            traced.append(elapsed)
        spent = time.perf_counter() - begin
        pair = sum(statistics.median(t) for t in (plain, traced) if t)
        if spent + pair > seconds:
            return plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import layers
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    import_s = SETUP_CLOCK.stop()
    import_wall_s = SETUP_CLOCK.wall_s

    files = []
    try:
        setups, setups_wall = [], []
        for _ in range(SETUP_REPEATS):
            SETUP_CLOCK.start()
            warm = workload.make_case(args.seed, WORK_DIR, True)
            files.extend(warm.files)
            try:
                (workload.warm_up or workload.op)(warm, warm.fresh())
            except Exception:
                # A broken op is counted when the timed ops run it.
                traceback.print_exc()
            cases = workload.make_cases(args.seed, WORK_DIR)
            for case in cases:
                files.extend(case.files)
            setups.append(SETUP_CLOCK.stop())
            setups_wall.append(SETUP_CLOCK.wall_s)
        del warm
        setup_s = import_s + statistics.median(setups)
        setup_parts = {"import_s": import_s, "setup_repeats_s": setups,
                       "wall_setup_s": import_wall_s + statistics.median(setups_wall)}

        if args.write_reference:
            return write_reference(workload, cases, args.seed)

        reference = None
        if args.seed == DEFAULT_SEED:
            stored = json.loads(REFERENCE.read_text(encoding="utf-8"))
            reference = [canonical(outputs) for outputs in stored[workload.name]]
            if len(reference) != len(cases):
                sys.exit(f"perfbench: {REFERENCE.name} holds {len(reference)} "
                         f"{workload.name} cases, the run makes {len(cases)}")
        loop = Loop(workload, cases, reference)
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = run_traced(loop, args.seconds, tracer)
        else:
            times, walls, probes = run_untraced(loop, args.seconds)

        # Outside the timed ops: the independent fingerprint check.
        fingerprint_ok = workloads.fingerprint_check(workload, cases[0])
    finally:
        for path in files:
            path.unlink(missing_ok=True)

    env = environment()
    notes = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
             "env": env, "fingerprint_ok": fingerprint_ok, **setup_parts}
    correct = fingerprint_ok and loop.failed == 0
    if args.trace:
        metrics, coverage = layers.per_layer(tracer, plain, traced, workload.layers)
        notes["untraced_ops"], notes["traced_ops"] = len(plain), len(traced)
        notes["layers_missing"] = [layer for layer, hit in coverage.items() if not hit]
        correct = correct and not notes["layers_missing"]
        trace_path = WORK_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        layers.write_spans(tracer, trace_path)
        notes["spans"] = str(trace_path.relative_to(ROOT))
    else:
        # With no completed op the run is incorrect and its times read 0.
        value, pct, n = tail(times) if times else (0.0, 100.0, 0)
        notes["op_s_tail_percentile"], notes["ops_timed"] = pct, n
        if n <= 20:
            notes["op_s"] = times
        if walls:
            notes["wall_op_s_p50"] = statistics.median(walls)
        if probes:
            notes["probe_s_p50"] = statistics.median(probes)
            notes["probe_s_range"] = [min(probes), max(probes)]
        metrics = {
            "op_s_p50": statistics.median(times) if times else 0.0,
            "op_s_tail": value,
            "ops_per_s": len(times) / sum(times) if times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        metrics = {name: (v, END_TO_END[name]) for name, v in metrics.items()}
    notes["fail_ratio"] = loop.failed / loop.attempted

    for err in loop.errors:
        print(err, file=sys.stderr)
    print("env " + json.dumps(notes, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def write_reference(workload, cases, seed) -> int:
    if seed != DEFAULT_SEED:
        sys.exit(f"perfbench: the reference is recorded at seed {DEFAULT_SEED}")
    stored = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    stored[workload.name] = [
        json.loads(canonical(workload.outputs(workload.op(case, case.fresh()))))
        for case in cases
    ]
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {workload.name} reference to {REFERENCE}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        # An early exit can leave the set-up sampler's timer running.
        signal.setitimer(signal.ITIMER_REAL, 0)
    sys.exit(code)

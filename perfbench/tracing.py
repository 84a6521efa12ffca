"""Spans around the public functions of each `holdout` module, recorded
from outside the package.

`Tracer.install()` swaps each traced function for a wrapper in every
`holdout.*` namespace that holds it (modules that imported it by name
included) and `uninstall()` puts every original back. A wrapper never
calls into the library beyond the wrapped function, so tracing changes
timings, not behaviour. Work a wrapper does for its own counters (input
hashing) is timed and removed from the enclosing span's self time.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import defaultdict

import numpy as np

STATE_CLASSES = {
    "LogisticState": "logistic",
    "LinearState": "linear",
    "TreeState": "decision_tree",
    "ForestState": "random_forest",
    "KnnState": "knn",
}

# (module, function) pairs wrapped as plain functions; span name is
# "<module>.<function>".
FUNCTIONS = (
    ("frame", "from_csv"),
    ("frame", "fingerprint"),
    ("frame", "select_columns"),
    ("split", "split"),
    ("rotate", "cv"),
    ("prepare", "fit_transformer"),
    ("prepare", "apply"),
    ("learn", "fit"),
    ("learn", "feature_matrix"),
    ("learn", "predict_values"),
    ("learners", "train"),
    ("scoring", "score"),
    ("judge", "evaluate"),
    ("judge", "assess"),
    ("judge", "explain"),
    ("strategy", "screen"),
    ("strategy", "tune"),
    ("strategy", "stack"),
    ("workflow", "parse_workflow"),
    ("workflow", "run_workflow"),
)

# (module, class, method, span name) wrapped on the class.
METHODS = (
    ("frame", "DataFrame", "__init__", "frame.DataFrame"),
    ("registry", "ProvenanceRegistry", "lookup", "registry.lookup"),
    ("registry", "ProvenanceRegistry", "register", "registry.register"),
    ("registry", "ProvenanceRegistry", "claim_assessment", "registry.claim_assessment"),
) + tuple(
    ("learners", cls, "predict", f"learners.predict.{algo}")
    for cls, algo in STATE_CLASSES.items()
)


def _module(name: str):
    # `holdout.split` and `holdout.prepare` on the package are functions of
    # the same name, so modules are always reached through sys.modules.
    return sys.modules[f"holdout.{name}"]


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if index < len(args) else default


def _cells(df) -> int:
    return df.row_count * len(df.column_names)


def _frame_key(df) -> int:
    parts = []
    for name in df.column_names:
        col = df.column(name)
        parts.append((name, hashlib.blake2b(col.tobytes()).digest()
                      if isinstance(col, np.ndarray) else hash(tuple(col))))
    return hash((tuple(parts), df.partition_tag))


def _array_key(a) -> bytes:
    a = np.ascontiguousarray(a)
    return hashlib.blake2b(a.tobytes() + str((a.dtype, a.shape)).encode()).digest()


class Tracer:
    """In-memory span recorder with per-name counters.

    A span is (name, start, end, parent index, op id). Self time is the
    span's duration minus its direct children's durations and minus the
    tracer's own bookkeeping done inside it.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)  # distinct (op id, input) keys
        self._stack: list[list] = []  # [index, name, start, child_s]
        self._saved: list[tuple[object, str, object]] = []
        self.op_id = -1

    # --- recording -------------------------------------------------------

    def _open(self, name: str) -> None:
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        index, name, start, child_s = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        duration = end - start
        if parent is not None:
            parent[3] += duration
        self.spans[index] = (name, start, end, parent[0] if parent else -1, self.op_id)
        self.self_s[name] += duration - child_s
        self.calls[name] += 1

    def _bookkeeping(self, fn, *args) -> None:
        """Run `fn` for the tracer's own counters; its time leaves the
        enclosing span's self time."""
        start = time.perf_counter()
        fn(*args)
        if self._stack:
            self._stack[-1][3] += time.perf_counter() - start

    def under(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    # --- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None, name_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            if before is not None:
                tracer._bookkeeping(before, args, kwargs)
            tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[f"{span_name}.raised"] += 1
                raise
            finally:
                tracer._close()
            if after is not None:
                tracer._bookkeeping(after, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _hooks(self, name: str):
        """Counter hooks for one span name: (before, after, name_of)."""
        c = self.counts
        if name == "frame.DataFrame":
            def after(args, kwargs, result):
                c["frame.DataFrame.cells"] += _cells(args[0])
                if self.under("judge.explain"):
                    c["judge.explain.frames_built"] += 1
            return None, after, None
        if name == "frame.fingerprint":
            def before(args, kwargs):
                df = _arg(args, kwargs, 0, "df")
                if getattr(df, "_fp", None) is None:
                    c["frame.fingerprint.cold_calls"] += 1
                    c["frame.fingerprint.cells_hashed"] += _cells(df)
            return before, None, None
        if name == "prepare.fit_transformer":
            def before(args, kwargs):
                df = _arg(args, kwargs, 0, "df")
                c["prepare.fit_transformer.cells"] += _cells(df)
                key = (
                    self.op_id,
                    _frame_key(df),
                    _arg(args, kwargs, 1, "target"),
                    repr(_arg(args, kwargs, 2, "recipe")),
                    _arg(args, kwargs, 3, "task"),
                )
                self.keys[name].add(key)
            return before, None, None
        if name == "prepare.apply":
            def before(args, kwargs):
                c["prepare.apply.cells"] += _cells(_arg(args, kwargs, 1, "df"))
            return before, None, None
        if name == "learners.train":
            def before(args, kwargs):
                algo, X, y, hp, seed, task = (
                    _arg(args, kwargs, i, n)
                    for i, n in enumerate(("algorithm", "X", "y", "hp", "seed", "task"))
                )
                self.keys[name].add((
                    self.op_id, algo, _array_key(X), _array_key(y),
                    repr(sorted(hp.items())), seed, task,
                ))
            return before, None, lambda args, kwargs: (
                f"learners.train.{_arg(args, kwargs, 0, 'algorithm')}"
            )
        if name == "learners.predict.knn":
            def before(args, kwargs):
                state, X = args[0], _arg(args, kwargs, 1, "X")
                m, p = np.shape(X)
                c["learners.knn.predict.bytes_computed"] += m * len(state.train_y) * p * 8
            return before, None, None
        return None, None, None

    # --- installation ----------------------------------------------------

    def _targets(self):
        for module, fn_name in FUNCTIONS:
            mod = _module(module)
            if hasattr(mod, fn_name):
                yield f"{module}.{fn_name}", getattr(mod, fn_name), None, None
        for module, cls_name, method, name in METHODS:
            cls = getattr(_module(module), cls_name, None)
            if cls is not None and method in vars(cls):
                yield name, vars(cls)[method], cls, method

    def install(self) -> None:
        """Wrap every traced function in every holdout namespace."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == "holdout" or key.startswith("holdout.")
        ]
        for name, original, cls, method in self._targets():
            before, after, name_of = self._hooks(name)
            wrapper = self._wrap(name, original, before, after, name_of)
            if cls is not None:
                self._saved.append((cls, method, original))
                setattr(cls, method, wrapper)
                continue
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every rebinding made by install()."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

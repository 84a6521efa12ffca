"""Every public verb type-checks its arguments from its own signature: a
setting of the wrong type is a ConfigError, an artifact a TypeError."""

import ast
import importlib
import inspect
import re
import sys
import typing
from collections import abc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from holdout import (
    ConfigError,
    DataFrame,
    Model,
    ProvenanceRegistry,
    StackedModel,
    apply,
    assess,
    cv,
    cv_group,
    cv_temporal,
    evaluate,
    explain,
    fingerprint,
    fit,
    from_csv,
    model_to_dict,
    predict,
    prepare,
    screen,
    select_columns,
    split,
    split_group,
    split_temporal,
    stack,
    tune,
)
from holdout.signatures import (Depth, Penalty, Positive, Rate, Size, _check, _checked,
                                signature)

from conftest import make_classification_frame


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    base = make_classification_frame(60, seed=2)
    df = DataFrame({
        **base.columns(),
        "t": [float(i) for i in range(60)],
        "g": [f"g{i % 10}" for i in range(60)],
    })
    path = tmp_path_factory.mktemp("signatures") / "data.csv"
    path.write_text("x,y\n" + "".join(f"{i * 0.5},{i % 2}\n" for i in range(20)))
    reg = ProvenanceRegistry()
    p = split(df, "y", seed=1, registry=reg)
    temporal = split_temporal(df, "y", time_col="t", registry=reg)
    grouped = split_group(df, "y", group_col="g", registry=reg)
    return SimpleNamespace(
        path=path, df=df, reg=reg, p=p, temporal=temporal, grouped=grouped,
        c=cv(p, 3, registry=reg), model=fit(p.train, "y", registry=reg),
    )


# Each checking verb, with keyword arguments it accepts.
VERBS = {
    fingerprint: lambda s: {"df": s.df},
    select_columns: lambda s: {"df": s.df, "names": ["x0", "y"]},
    from_csv: lambda s: {"path": s.path},
    split: lambda s: {"df": s.df, "target": "y", "registry": s.reg},
    split_temporal: lambda s: {"df": s.df, "target": "y", "time_col": "t", "registry": s.reg},
    split_group: lambda s: {"df": s.df, "target": "y", "group_col": "g", "registry": s.reg},
    cv: lambda s: {"p": s.p, "registry": s.reg},
    cv_temporal: lambda s: {"p": s.temporal, "registry": s.reg},
    cv_group: lambda s: {"p": s.grouped, "folds": 3, "registry": s.reg},
    prepare: lambda s: {"df": s.p.train, "target": "y", "registry": s.reg},
    apply: lambda s: {"t": s.model.transformer, "df": s.p.valid},
    fit: lambda s: {"data": s.p.train, "target": "y", "registry": s.reg},
    predict: lambda s: {"m": s.model, "df": s.p.valid},
    model_to_dict: lambda s: {"m": s.model},
    evaluate: lambda s: {"m": s.model, "df": s.p.valid, "registry": s.reg},
    assess: lambda s: {"m": s.model, "test": s.p.test, "registry": s.reg},
    explain: lambda s: {"m": s.model, "df": s.p.valid, "repeats": 1, "registry": s.reg},
    screen: lambda s: {"c": s.c, "target": "y", "algorithms": ["knn"], "registry": s.reg},
    tune: lambda s: {"c": s.c, "target": "y", "space": {"max_iter": [5]}, "registry": s.reg},
    stack: lambda s: {"c": s.c, "target": "y", "base_algorithms": ["logistic", "knn"],
                      "registry": s.reg},
}

# Values of the wrong type for some argument or other: a bool for an int, a
# truthy string for a bool, None where no None is declared, a str for a list,
# a list of pairs for a mapping, and (in `_wrong`) each artifact of the
# session where another is due.
WRONG = [True, None, 2.5, "3", "knn", ["x"], [0.5], [("x", "text")], {"k": 1}, object()]


def _wrong(s):
    return WRONG + [s.df, s.p, s.c, s.model, s.model.transformer, s.reg]


def _checking_verbs():
    """Every function in the package that calls check_arguments on itself."""
    verbs = []
    for path in sorted(Path(importlib.import_module("holdout").__file__).parent.glob("*.py")):
        module = importlib.import_module(f"holdout.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "check_arguments"
                and getattr(call.args[0], "id", None) == node.name
                for call in ast.walk(node)
            ):
                verbs.append(getattr(module, node.name))
    return verbs


@pytest.fixture
def train_calls(monkeypatch):
    learners = importlib.import_module("holdout.learners")
    calls = []
    real = learners.train
    monkeypatch.setattr(learners, "train", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


@pytest.mark.parametrize("verb", list(VERBS), ids=lambda verb: verb.__name__)
def test_every_setting_is_annotated(verb):
    assert set(_checked(verb)) == set(signature(verb).parameters)


def test_every_verb_with_settings_is_found():
    assert set(VERBS) < set(_checking_verbs())


@pytest.mark.parametrize("verb", _checking_verbs(), ids=lambda verb: verb.__name__)
def test_every_annotation_resolves_to_a_check(verb):
    for param in signature(verb).parameters.values():
        if param.annotation is not inspect.Parameter.empty:
            assert _check(param.annotation), param.name


@pytest.mark.parametrize(
    "annotation, same",
    [
        (abc.Sequence[str], typing.Sequence[str]),
        (abc.Sequence[float], typing.Sequence[float]),
        (abc.Sequence, typing.Sequence),
        (abc.Sequence[str] | None, typing.Sequence[str] | None),
    ],
    ids=str,
)
def test_abc_sequence_checked_like_typing_sequence(annotation, same):
    kind, test, _ = _check(annotation)
    assert kind == _check(same)[0]
    assert not test("ab")  # a string is not a list


@pytest.mark.parametrize(
    "annotation, kind, error",
    [
        (DataFrame, "a DataFrame", TypeError),
        (Model | StackedModel, "a Model or a StackedModel", TypeError),
        (ProvenanceRegistry | None, "a ProvenanceRegistry", TypeError),
        (str | None, "a string or null", ConfigError),
        # A union with a setting among its members is a setting.
        (str | DataFrame, "a string or a DataFrame", ConfigError),
        (typing.Literal["grid", "random"], "one of 'grid', 'random'", ConfigError),
        (typing.Literal["grid", "random"] | None, "one of 'grid', 'random' or null",
         ConfigError),
        (Rate, "a finite number > 0.0", ConfigError),
        (Penalty, "a finite number >= 0.0", ConfigError),
        (Depth, "a whole number >= 0", ConfigError),
        (Size, "a whole number >= 1", ConfigError),
        (Size | typing.Literal["sqrt"], "a whole number >= 1 or one of 'sqrt'", ConfigError),
    ],
    ids=["DataFrame", "Model | StackedModel", "ProvenanceRegistry | None", "str | None",
         "str | DataFrame", "Literal", "Literal | None", "Rate", "Penalty", "Depth", "Size",
         "Size | Literal"],
)
def test_a_class_outside_the_table_is_an_artifact(annotation, kind, error):
    assert _check(annotation)[::2] == (kind, error)
    assert _check(annotation)[1](None) == (type(None) in typing.get_args(annotation))


@pytest.mark.parametrize(
    "value, admitted",
    [("grid", True), ("random", True), (np.str_("grid"), True), ("Grid", False),
     ("", False), (True, False), (1, False), (None, False), (["grid"], False)],
    ids=repr,
)
def test_a_named_choice_admits_only_its_strings(value, admitted):
    assert _check(typing.Literal["grid", "random"])[1](value) is admitted


@pytest.mark.parametrize(
    "value, admitted",
    [(6, True), (6.0, True), (np.float32(3.0), True), (np.uint8(7), True), (2.5, False),
     (True, False), (np.True_, False), (float("nan"), False), (float("inf"), False),
     pytest.param(10**400, False, id="10**400"), (-1, False), ("3", False), (None, False)],
    ids=repr,
)
def test_a_whole_number_may_be_written_as_a_float(value, admitted):
    # A hyperparameter's whole number takes 6.0 for 6; a verb's Count,
    # Positive and Folds do not.
    for annotation in (Size, Depth):
        assert bool(_check(annotation)[1](value)) is admitted
    assert not _check(Positive)[1](6.0)


@pytest.mark.parametrize(
    "verb, param",
    [(verb, param) for verb in VERBS for param in _checked(verb)],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_wrongly_typed_setting_names_its_parameter(session, train_calls, verb, param):
    kind, accepts, error = _checked(verb)[param]
    wrong = [value for value in _wrong(session) if not accepts(value)]
    assert wrong
    before = session.reg.dump()
    for value in wrong:
        kwargs = {**VERBS[verb](session), param: value}
        with pytest.raises(error, match=rf"^{param} must be {re.escape(kind)}, got ") as e:
            verb(**kwargs)
        assert type(e.value) is error
    assert session.reg.dump() == before
    assert train_calls == []


@pytest.mark.parametrize(
    "call, param",
    [
        # Each used to be accepted, or to fail with a bare TypeError.
        (lambda s: split(s.df, "y", stratify="no", registry=ProvenanceRegistry()),
         "stratify"),
        (lambda s: tune(s.c, "y", space={"max_iter": [5, 9]}, budget=True, registry=s.reg),
         "budget"),
        (lambda s: tune(s.c, "y", space={"max_iter": [5, 9]}, budget="2", registry=s.reg),
         "budget"),
        (lambda s: cv(s.p, True, registry=s.reg), "folds"),
        (lambda s: cv(s.p, "3", registry=s.reg), "folds"),
        # A single fold used to be a CVError from each rotation's own check.
        (lambda s: cv(s.p, 1, registry=s.reg), "folds"),
        (lambda s: cv_temporal(s.temporal, 1, registry=s.reg), "folds"),
        (lambda s: cv_group(s.grouped, 1, registry=s.reg), "folds"),
        (lambda s: screen(s.c, "y", algorithms=["knn"], hyperparameters=3, registry=s.reg),
         "hyperparameters"),
        (lambda s: tune(s.c, "y", algorithm="knn", space=[1, 2], registry=s.reg), "space"),
        (lambda s: from_csv(s.path, [("x", "text")]), "schema_hints"),
        (lambda s: from_csv(None), "path"),
        # A string where a list is expected used to be split into characters.
        (lambda s: screen(s.c, "y", algorithms="knn", registry=s.reg), "algorithms"),
        (lambda s: evaluate(s.model, s.p.valid, metrics="accuracy", registry=s.reg),
         "metrics"),
        (lambda s: fit(s.p.train, "y", recipe="standardize", registry=s.reg), "recipe"),
        # Named choices and a repeat count used to be checked in each body.
        (lambda s: cv_temporal(s.temporal, window="rolling", registry=s.reg), "window"),
        (lambda s: tune(s.c, "y", space={"max_iter": [5]}, method="bayesian", registry=s.reg),
         "method"),
        (lambda s: explain(s.model, s.p.valid, repeats=0, registry=s.reg), "repeats"),
        (lambda s: ProvenanceRegistry().set_guards("on "), "mode"),
    ],
    ids=["stratify 'no'", "budget True", "budget '2'", "folds True", "folds '3'",
         "cv folds 1", "cv_temporal folds 1", "cv_group folds 1",
         "hyperparameters 3", "space list", "schema_hints pairs", "path None", "algorithms str",
         "metrics str", "recipe str", "window 'rolling'", "method 'bayesian'", "repeats 0",
         "guards 'on '"],
)
def test_regressions(session, train_calls, call, param):
    with pytest.raises(ConfigError, match=rf"^{param} must be"):
        call(session)
    assert train_calls == []


def test_checks_survive_a_wrapper(session, monkeypatch):
    # A verb checks itself through its module-global name. Rebound there to
    # a wrapper that carries nothing but __wrapped__ (as perfbench's tracer
    # does), the name finds the wrapper, and the checks must still be the
    # wrapped verb's.
    for module, name in (("holdout.frame", "select_columns"), ("holdout.split", "split")):
        fn = getattr(sys.modules[module], name)

        def wrapper(*args, fn=fn, **kwargs):
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        monkeypatch.setattr(sys.modules[module], name, wrapper)
    reg = ProvenanceRegistry()
    wrapped_select = sys.modules["holdout.frame"].select_columns
    wrapped_split = sys.modules["holdout.split"].split
    for select_fn, split_fn in ((select_columns, split), (wrapped_select, wrapped_split)):
        with pytest.raises(ConfigError, match=r"^names must be a list of names, got 'xy'$"):
            select_fn(session.df, "xy")
        with pytest.raises(ConfigError, match=r"^seed must be a non-negative integer, got -1$"):
            split_fn(session.df, "y", seed=-1, registry=reg)
    assert reg.dump() == {}


def test_numpy_scalars_and_none_where_declared(session):
    p = split(session.df, "y", ratios=[np.float64(0.6), 0.2, 0.2], seed=np.int64(3),
              stratify=np.bool_(True), registry=ProvenanceRegistry())
    assert p.train.row_count == 36
    assert tune(session.c, "y", algorithm=None, space={"max_iter": [5]}, budget=1,
                registry=session.reg).trials


# Last: it registers more splits in the session.
def test_valid_settings_pass(session):
    # The matrix fails at entry; the same arguments without the wrong
    # value must work, or it would prove nothing.
    for verb, kwargs in VERBS.items():
        if verb is not assess:  # assess would spend the session's holdout
            verb(**kwargs(session))

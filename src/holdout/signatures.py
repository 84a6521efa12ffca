"""A verb's signature is the one declaration of everything it takes: its
annotations type each argument here, and the workflow parser derives its
keys. A setting is in the table below or is a named choice (a Literal);
any other class is an artifact, an edge of the verbs' typed DAG (frame,
partition, rotation, model...), so terminal types such as Evidence are
refused at entry. A learner's fit declares its hyperparameters the same
way, as keyword-only parameters with defaults. Documents read from outside
are declared by dataclasses."""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import os
import reprlib
import sys
import types
import typing
from collections import abc
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_number(v) -> bool:  # a value a float64 holds: NaN too, not 10**400
    return isinstance(v, (float, np.floating)) or _is_int(v) and abs(int(v)) <= sys.float_info.max


def _is_finite(v, whole=False) -> bool:  # a whole number may be written 6.0
    return _is_number(v) and math.isfinite(v) and (not whole or float(v).is_integer())


def _is_list(v, item=lambda _: True) -> bool:  # a str is not a list of anything
    return isinstance(v, abc.Sequence) and not isinstance(v, str) and all(map(item, v))


Count = typing.NewType("Count", int)  # a seed, count or index: never negative
Positive = typing.NewType("Positive", int)  # a size that needs at least one
Folds = typing.NewType("Folds", int)  # a rotation's fold count
Rate = typing.NewType("Rate", float)  # a learner's step size
Penalty = typing.NewType("Penalty", float)  # a tolerance or penalty, 0 for none
Depth = typing.NewType("Depth", int)  # a tree's depth limit, 0 for a single leaf
Size = typing.NewType("Size", int)  # an iteration, leaf, tree or neighbour count


# What each setting annotation of a verb or a document admits, keyed as written.
_CHECKS = {
    int: ("an integer", _is_int),
    Count: ("a non-negative integer", lambda v: _is_int(v) and v >= 0),
    Positive: ("a positive integer", lambda v: _is_int(v) and v >= 1),
    Folds: ("an integer of at least 2", lambda v: _is_int(v) and v >= 2),
    Rate: ("a finite number > 0.0", lambda v: _is_finite(v) and v > 0.0),
    Penalty: ("a finite number >= 0.0", lambda v: _is_finite(v) and v >= 0.0),
    Depth: ("a whole number >= 0", lambda v: _is_finite(v, whole=True) and v >= 0),
    Size: ("a whole number >= 1", lambda v: _is_finite(v, whole=True) and v >= 1),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("a boolean", lambda v: isinstance(v, (bool, np.bool_))),
    os.PathLike: ("an os.PathLike", lambda v: isinstance(v, os.PathLike)),
    abc.Mapping: ("a mapping", lambda v: isinstance(v, abc.Mapping)),
    Sequence: ("a list", _is_list),
    Sequence[str]: ("a list of names", lambda v: _is_list(v, lambda x: isinstance(x, str))),
    Sequence[float]: ("a list of numbers", lambda v: _is_list(v, _is_number)),
    Sequence[Sequence[float]]: ("a list of rows of numbers", lambda v: _is_list(
        v, lambda row: _is_list(row, _is_number))),
}


def _check(annotation):
    """(description, test, error) for an annotation, or None if it has no
    check. A union is checked when each member but None is ("or null" for a
    setting), and is an artifact when each member is; the items of a mapping
    and of a list of what the table does not know are left to the verb."""
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        members = typing.get_args(annotation)
        checks = [_check(a) for a in members if a is not type(None)]
        if None in checks:
            return None
        tests = [test for _, test, _ in checks]
        error = TypeError if all(e is TypeError for *_, e in checks) else ConfigError
        null = " or null" if error is ConfigError and type(None) in members else ""
        return " or ".join(d for d, _, _ in checks) + null, lambda v: (
            v is None and type(None) in members or any(test(v) for test in tests)), error
    origin = typing.get_origin(annotation) or annotation
    if origin is typing.Literal:  # a named choice: one of its strings
        names = typing.get_args(annotation)
        return "one of " + ", ".join(map(repr, names)), lambda v: (
            isinstance(v, str) and v in names), ConfigError
    if origin is abc.Mapping:  # Mapping and Mapping[K, V]
        annotation = abc.Mapping
    elif origin is abc.Sequence:  # from typing or collections.abc alike
        args = typing.get_args(annotation)
        annotation = Sequence[args] if args and Sequence[args] in _CHECKS else Sequence
    if isinstance(annotation, type) and annotation not in _CHECKS:  # an artifact
        return f"a {annotation.__name__}", lambda v: isinstance(v, annotation), TypeError
    return (*_CHECKS[annotation], ConfigError) if annotation in _CHECKS else None


@functools.cache
def signature(fn) -> inspect.Signature:
    return inspect.signature(fn, eval_str=True)


@functools.cache
def _checked(fn) -> dict:  # of a function's parameters or a declaration's keys
    # A wrapper that sets __wrapped__ (functools.wraps, a tracer) has the
    # wrapped function's checks, as it has its signature.
    hints = typing.get_type_hints(inspect.unwrap(fn))
    found = {name: _check(hint) for name, hint in hints.items() if name != "return"}
    return {name: check for name, check in found.items() if check}


def check_arguments(fn, arguments: Mapping, name=str, end: str = "") -> None:
    """Check the values in `arguments` (parameter -> value) against the
    annotations of `fn`'s parameters or fields, in order, naming the first
    that fails as `name(parameter)`: a setting of the wrong type is a
    ConfigError (`folds must be an integer, got True`), an artifact of the
    wrong type a TypeError (`m must be a Model or a StackedModel, got
    Metrics`)."""
    for param, (kind, test, error) in _checked(fn).items():
        if param in arguments and not test(value := arguments[param]):
            got = type(value).__name__ if error is TypeError else reprlib.repr(value)
            raise error(f"{name(param)} must be {kind}, got {got}{end}")


def check_document(declaration, d, where: str, key=None) -> None:
    """Check a document against a dataclass whose fields are its keys (one
    with a default may be left out): ConfigError when it is not a mapping,
    lacks a key, has an unknown one or holds a value of the wrong type."""
    if not isinstance(d, abc.Mapping):
        raise ConfigError(f"{where} must be a mapping, got {reprlib.repr(d)}")
    keys = {f.name: f.default for f in dataclasses.fields(declaration)}
    missing = [k for k, default in keys.items() if default is dataclasses.MISSING and k not in d]
    unknown = [k for k in d if k not in keys]
    if missing or unknown:
        problem = f"lacks key {missing[0]!r}" if missing else f"has unknown key {unknown[0]!r}"
        raise ConfigError(f"{where} {problem}")
    check_arguments(declaration, d, key or (lambda k: f"{where} key {k!r}"))

"""A verb's signature is the one declaration of everything it takes: its
annotations type each argument here, and the workflow parser derives its
keys. A setting's annotation is in the table below; any other class is an
artifact, an edge of the verbs' typed DAG (frame, partition, rotation, model,
registry...), so terminal types such as Evidence are refused at entry."""

from __future__ import annotations

import functools
import inspect
import os
import types
import typing
from collections import abc
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_list(v, item=lambda _: True) -> bool:  # a str is not a list of anything
    return isinstance(v, abc.Sequence) and not isinstance(v, str) and all(map(item, v))


# What each setting annotation the verbs use admits, keyed as the verbs write it.
_CHECKS = {
    int: ("an integer", _is_int),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("a boolean", lambda v: isinstance(v, (bool, np.bool_))),
    os.PathLike: ("an os.PathLike", lambda v: isinstance(v, os.PathLike)),
    abc.Mapping: ("a mapping", lambda v: isinstance(v, abc.Mapping)),
    Sequence: ("a list", _is_list),
    Sequence[str]: ("a list of names", lambda v: _is_list(v, lambda x: isinstance(x, str))),
    Sequence[float]: ("a list of numbers", lambda v: _is_list(
        v, lambda x: _is_int(x) or isinstance(x, (float, np.floating)))),
}


def _check(annotation):
    """(description, test, error) for an annotation, or None if it has no
    check. A union is checked when each member but None is, and is an
    artifact when each member is; the items of a mapping are left to the
    verb."""
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        members = typing.get_args(annotation)
        checks = [_check(a) for a in members if a is not type(None)]
        if None in checks:
            return None
        tests = [test for _, test, _ in checks]
        error = TypeError if all(e is TypeError for *_, e in checks) else ConfigError
        return " or ".join(d for d, _, _ in checks), lambda v: (
            v is None and type(None) in members or any(test(v) for test in tests)), error
    origin = typing.get_origin(annotation) or annotation
    if origin is abc.Mapping:  # Mapping and Mapping[K, V]
        annotation = abc.Mapping
    elif origin is abc.Sequence:  # from typing or collections.abc alike
        args = typing.get_args(annotation)
        annotation = Sequence[args] if args else Sequence
    if isinstance(annotation, type) and annotation not in _CHECKS:  # an artifact
        return f"a {annotation.__name__}", lambda v: isinstance(v, annotation), TypeError
    return (*_CHECKS[annotation], ConfigError) if annotation in _CHECKS else None


@functools.cache
def signature(fn) -> inspect.Signature:
    return inspect.signature(fn, eval_str=True)


@functools.cache
def _checked(fn) -> dict:
    found = {p.name: _check(p.annotation) for p in signature(fn).parameters.values()
             if p.annotation is not p.empty}  # `empty` is a class too
    return {name: check for name, check in found.items() if check}


def check_arguments(fn, arguments: Mapping, name=str, end: str = "") -> None:
    """Check the values in `arguments` (parameter -> value) against the
    annotations of `fn`'s parameters, in signature order, naming the first
    that fails as `name(parameter)`: a setting of the wrong type is a
    ConfigError (`folds must be an integer, got True`), an artifact of the
    wrong type a TypeError (`m must be a Model or a StackedModel, got
    Metrics`)."""
    for param, (kind, test, error) in _checked(fn).items():
        if param in arguments and not test(value := arguments[param]):
            got = type(value).__name__ if error is TypeError else repr(value)
            raise error(f"{name(param)} must be {kind}, got {got}{end}")

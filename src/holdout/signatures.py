"""A verb's signature is the one declaration of the settings it takes: its
annotations type them here, and the workflow parser derives its keys."""

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


# What each annotation the verbs use admits, keyed as the verbs write it.
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
    """(description, test) for an annotation, or None if the table lacks it.
    A union is checked when each member but None is; the items of a mapping
    are left to the verb."""
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        members = typing.get_args(annotation)
        checks = [_check(a) for a in members if a is not type(None)]
        if None in checks:
            return None
        return " or ".join(d for d, _ in checks), lambda v: (
            v is None and type(None) in members or any(test(v) for _, test in checks))
    origin = typing.get_origin(annotation) or annotation
    if origin is abc.Mapping:  # Mapping and Mapping[K, V]
        annotation = abc.Mapping
    elif origin is abc.Sequence:  # from typing or collections.abc alike
        args = typing.get_args(annotation)
        annotation = Sequence[args] if args else Sequence
    return _CHECKS.get(annotation)


@functools.cache
def signature(fn) -> inspect.Signature:
    return inspect.signature(fn, eval_str=True)


@functools.cache
def _checked(fn) -> dict:
    found = {p.name: _check(p.annotation) for p in signature(fn).parameters.values()}
    return {name: check for name, check in found.items() if check}


def check_arguments(fn, arguments: Mapping, name=str, end: str = "") -> None:
    """ConfigError for the first value in `arguments` (parameter -> value)
    whose parameter of `fn` is annotated with a type it does not have,
    naming it as `name(parameter)`. Parameters the table does not cover,
    such as frames, rotations, models and the registry, are the verb's."""
    for param, (kind, test) in _checked(fn).items():
        if param in arguments and not test(arguments[param]):
            raise ConfigError(f"{name(param)} must be {kind}, got {arguments[param]!r}{end}")

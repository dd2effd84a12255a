"""Exception types shared by all vcn modules, and the one JSON decode path.

Refusals are always explicit: an operation that cannot honestly finish
raises instead of degrading to a sampled or truncated answer.
"""

from __future__ import annotations

import json
from typing import Callable, TypeVar

_T = TypeVar("_T")


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class BudgetExceededError(RuntimeError):
    """A search or enumeration would exceed its stated budget."""


class GenerationError(RuntimeError):
    """Randomized generation exhausted its retries.

    best_t records the highest extension level any attempt achieved.
    """

    def __init__(self, message: str, best_t: int = -1):
        super().__init__(message)
        self.best_t = best_t


class WalkStuckError(RuntimeError):
    """No replacement vertex exists for a walk step.

    discrepancy holds the edge (as a vertex tuple) that could not be fixed.
    """

    def __init__(self, message: str, discrepancy=None):
        super().__init__(message)
        self.discrepancy = discrepancy


class SelectionStuckError(RuntimeError):
    """Greedy subgraph selection ran out of admissible vertices.

    constraints holds a description of the constraint set that failed.
    """

    def __init__(self, message: str, constraints=None):
        super().__init__(message)
        self.constraints = constraints


_JSON_KINDS = {int: "integer", str: "string", list: "array", dict: "object"}


def _check_shape(value, shape, path: tuple = ()) -> None:
    """Raise TypeError naming the path to the first value off the shape.

    A shape is int or str for a JSON integer or string, [shape] for an
    array of such values, {key: shape} for an object whose listed keys,
    where present, hold such values, and {str: shape} for an object whose
    every value does.
    """
    kind = type(shape) if isinstance(shape, (list, dict)) else shape
    if type(value) is not kind:  # exact: a JSON true is no integer
        if not path:
            raise TypeError("expected a JSON object")
        where = repr(path[0]) + "".join(f"[{key!r}]" for key in path[1:])
        raise TypeError(f"{where} must be a JSON {_JSON_KINDS[kind]}")
    if kind is list:
        sub = shape[0]
        # an array of integers or strings takes one pass, unless one is off
        if sub not in (int, str) or not all(type(item) is sub for item in value):
            for i, item in enumerate(value):
                _check_shape(item, sub, (*path, i))
    elif kind is dict:
        for key, item in value.items():
            sub = shape.get(key, shape.get(str))
            if sub is not None:
                _check_shape(item, sub, (*path, key))


def _decode(text: str, what: str, build: Callable[[dict], _T], shape: dict) -> _T:
    """build(doc) for a JSON object doc of the given shape (see _check_shape).

    Any other failure to read the document becomes InputError("bad <what>
    document: ..."); an InputError from build passes through unchanged.
    """
    try:
        doc = json.loads(text)
        _check_shape(doc, shape)
        return build(doc)
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what} document: {exc}") from exc

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


_JSON_KINDS = {list: "array", dict: "object"}


def _decode(text: str, what: str, build: Callable[[dict], _T], fields: dict[str, type]) -> _T:
    """build(doc) for a JSON object doc whose present fields have the given types.

    Any other failure to read the document becomes InputError("bad <what>
    document: ..."); an InputError from build passes through unchanged.
    """
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError("expected a JSON object")
        for key, kind in fields.items():
            if key in doc and not isinstance(doc[key], kind):
                raise TypeError(f"{key!r} must be a JSON {_JSON_KINDS[kind]}")
        return build(doc)
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what} document: {exc}") from exc

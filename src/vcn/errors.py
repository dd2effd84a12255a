"""Exception types, the frozen-record base and the one JSON decode path.

Every vcn module imports this one, and it imports no other vcn module.
Refusals are always explicit: an operation that cannot honestly finish
raises instead of degrading to a sampled or truncated answer.  The
library's value types are Records: frozen, compared and hashed by their
fields, without the import and class-creation cost of dataclasses.  The
paper's two index types live here with the readers and writers of their
documents: the one structure type, FiniteStructure, beside Relation, and
PartiteHypergraph.  fmodel evaluates formulas in a structure, ramsey
checks arrows on it, zar searches hypergraphs and hyperrand samples and
walks them, and none of them loads another to build, read or write one.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, chain, repeat
from operator import add, itemgetter, mul
from typing import Callable, Iterable, Mapping, TypeVar

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


class Record:
    """A frozen record of its annotated fields, base-class fields first.

    Fields are given by position or keyword; a class attribute named like
    a field is its default.  __post_init__ runs once every field is set,
    and may check and normalise them through object.__setattr__.  The
    instance dict holds exactly the fields, in field order, so identity,
    hash and repr read it: a record equals only a record of the same class
    with an equal dict.  Assigning or deleting an attribute raises
    AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = (*cls._fields, *cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments")
        values = dict(zip(cls._fields, args))
        for name in cls._fields[len(args) :]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif hasattr(cls, name):
                values[name] = getattr(cls, name)
            else:
                raise TypeError(f"{cls.__name__}() is missing the argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected argument {next(iter(kwargs))!r}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Relation(Record):
    """A set of tuples of one positive arity."""

    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.arity < 1:
            raise InputError("relation arity must be positive")
        # checked in the order given, so the first bad tuple is the one named
        tups = [tuple(map(int, t)) for t in self.tuples]
        for t in tups:
            if len(t) != self.arity:
                raise InputError(f"tuple {t} does not match arity {self.arity}")
        object.__setattr__(self, "tuples", frozenset(tups))


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
        # one pass over the scalars of an array of integers or strings, or
        # of integer arrays; only an array holding a value off the shape is
        # walked item by item, to name that value
        if sub in (int, str):
            flat = set(map(type, value)) <= {sub}
        elif sub == [int] and set(map(type, value)) <= {list}:
            flat = set(map(type, chain.from_iterable(value))) <= {int}
        else:
            flat = False
        if not flat:
            for i, item in enumerate(value):
                _check_shape(item, sub, (*path, i))
    elif kind is dict:
        for key, item in value.items():
            sub = shape.get(key, shape.get(str))
            if sub is not None:
                _check_shape(item, sub, (*path, key))


def _drain(items: list) -> Iterable:
    """The items in order, each dropped from the list as it is given."""
    items.reverse()
    return map(list.pop, repeat(items, len(items)))


def _decode(text: str, what: str, build: Callable[[dict], _T], shape: dict) -> _T:
    """build(doc) for a JSON object doc of the given shape (see _check_shape).

    Any other failure to read the document becomes InputError("bad <what>
    document: ..."); an InputError from build passes through unchanged.
    """
    import json  # here, not at module level: a verb that reads no JSON never loads it

    try:
        doc = json.loads(text)
        _check_shape(doc, shape)
        return build(doc)
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what} document: {exc}") from exc


# The structure document: FiniteStructure reads and writes it.
_STRUCTURE_SHAPE = {
    "domain": int,
    "order": [int],
    "parts": [[int]],
    "relations": {str: {"arity": int, "tuples": [[int]]}},
}


class _Relations(dict):
    """A structure's relations by name, hashed by their items; never changed."""

    def __hash__(self):
        return hash(frozenset(self.items()))


class FiniteStructure(Record):
    """The one structure type: the domain {0..size-1} in ascending order,
    named relations on it, and optional convex parts of the given sizes."""

    size: int
    relations: Mapping[str, Relation]
    part_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.size < 0:
            raise InputError("size must be nonnegative")
        if self.part_sizes is not None:
            sizes = tuple(int(s) for s in self.part_sizes)
            if any(s < 0 for s in sizes) or sum(sizes) != self.size:
                raise InputError("part sizes must be nonnegative and cover the domain")
            object.__setattr__(self, "part_sizes", sizes)
        try:
            rels = _Relations(self.relations)
        except (TypeError, ValueError):
            raise InputError("relations must map names to Relations") from None
        for name, rel in sorted(rels.items()):  # the first bad relation by name is named
            if not isinstance(rel, Relation):
                raise InputError(f"relation {name} is not a Relation")
            off = [t for t in rel.tuples if min(t) < 0 or max(t) >= self.size]
            if off:
                raise InputError(f"relation {name} tuple {min(off)} leaves the domain")
        object.__setattr__(self, "relations", rels)

    @property
    def domain_size(self) -> int:
        """The size, under the name that traced benchmark runs read."""
        return self.size

    def part_ids(self) -> tuple[int, ...] | None:
        """The part of each vertex, or None without parts."""
        if self.part_sizes is None:
            return None
        return tuple(p for p, s in enumerate(self.part_sizes) for _ in range(s))

    def to_json(self) -> str:
        """The structure document; it lists the order and the parts only with parts."""
        import json

        doc = {
            "domain": self.size,
            "relations": {
                name: {"arity": rel.arity, "tuples": sorted(map(list, rel.tuples))}
                for name, rel in sorted(self.relations.items())
            },
        }
        if self.part_sizes is not None:
            ends = list(accumulate(self.part_sizes, initial=0))
            doc["order"] = list(range(self.size))
            doc["parts"] = [list(range(a, b)) for a, b in zip(ends, ends[1:])]
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FiniteStructure":
        """Read a structure document, each vertex renamed to its position in the order.

        The order must enumerate the domain (default: ascending), and parts,
        where given, be convex in it and cover the domain.  The vertices of
        the parts, then of each relation, are checked with one set difference
        per list before any Relation checks its arity; only a list that fails
        is walked, to name its first vertex outside the domain.  Each Relation
        takes its renamed tuples from a generator that empties the document's
        list, so each tuple is held once.
        """

        def read(doc):
            size = doc["domain"]
            order = doc.get("order", list(range(size)))
            if sorted(order) != list(range(size)):
                raise InputError("order must enumerate the whole domain")
            position = {v: i for i, v in enumerate(order)}

            def renamed(lists):
                bad = set(chain.from_iterable(lists)) - position.keys()
                if bad:
                    v = next(filter(bad.__contains__, chain.from_iterable(lists)))
                    raise InputError(f"vertex {v} is not in the domain")
                return (tuple(map(position.__getitem__, t)) for t in _drain(lists))

            part_sizes = None
            if "parts" in doc:
                parts = list(map(sorted, renamed(doc["parts"])))
                if list(chain.from_iterable(parts)) != list(range(size)):
                    raise InputError("parts must be convex in the order and cover the domain")
                part_sizes = tuple(map(len, parts))
            relations = {
                name: (spec["arity"], renamed(spec["tuples"]))
                for name, spec in doc.get("relations", {}).items()
            }
            return cls(size, {name: Relation(*r) for name, r in relations.items()}, part_sizes)

        return _decode(text, "structure", read, _STRUCTURE_SHAPE)


def _bits(offsets: Iterable[int], space: int) -> int:
    """The mask over space positions whose set bits are the offsets."""
    buf = bytearray(space // 8 + 1)
    for o in offsets:
        buf[o >> 3] |= 1 << (o & 7)
    return int.from_bytes(buf, "little")


class PartiteHypergraph(Record):
    """n-partite n-uniform hypergraph; an edge picks one vertex per part."""

    n: int
    part_sizes: tuple[int, ...]
    edges: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if type(self.n) is not int:  # exact: True is no part count
            raise InputError("n must be an integer")
        if self.n < 1:
            raise InputError("n must be positive")
        sizes = tuple(int(s) for s in self.part_sizes)
        if len(sizes) != self.n or any(s < 1 for s in sizes):
            raise InputError("need one positive size per part")
        edges = frozenset(tuple(map(int, e)) for e in self.edges)
        # a min and a max pass per part; only a failing (or empty) edge set is
        # walked, in sorted order, so the error names its least bad edge
        if set(map(len, edges)) != {self.n} or any(
            min(map(itemgetter(p), edges)) < 0 or max(map(itemgetter(p), edges)) >= s
            for p, s in enumerate(sizes)
        ):
            for e in sorted(edges):
                if len(e) != self.n:
                    raise InputError(f"edge {e} does not pick one vertex per part")
                if any(not 0 <= v < s for v, s in zip(e, sizes)):
                    raise InputError(f"edge {e} leaves its parts")
        object.__setattr__(self, "part_sizes", sizes)
        object.__setattr__(self, "edges", edges)

    def _cell_mask(self) -> int:
        """The edges as a mask over the row-major grid: Horner's rule, part by part."""
        cells = [0] * len(self.edges)
        for p, size in enumerate(self.part_sizes):
            cells = list(map(add, map(mul, cells, repeat(size)), map(itemgetter(p), self.edges)))
        return _bits(cells, reduce(mul, self.part_sizes))

    def to_json(self) -> str:
        # the edge list is the repr of the sorted edge tuples, parentheses made
        # brackets: byte for byte what json.dumps writes, without the list of
        # one string per token that json.dumps holds until it joins them
        edges = repr(sorted(self.edges)).replace(",)", ")").replace("(", "[").replace(")", "]")
        return f'{{"edges": {edges}, "n": {self.n}, "part_sizes": {list(self.part_sizes)}}}'

    @classmethod
    def from_json(cls, text: str) -> "PartiteHypergraph":
        """Read a hypergraph document; a sample's "t" and "seed" are checked, then dropped."""

        def build(doc):
            return cls(doc["n"], doc["part_sizes"], _drain(doc["edges"]))

        return _decode(text, "hypergraph", build, _HYPERGRAPH_SHAPE)


# The hypergraph document, keys in field order: PartiteHypergraph reads the first
# three, hyperrand.ExtensionHypergraph all five; each is checked where present.
_HYPERGRAPH_SHAPE = {"n": int, "part_sizes": [int], "edges": [[int]], "t": int, "seed": int}

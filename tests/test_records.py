"""Every record class behaves as the frozen dataclass it replaces.

Each Record subclass of the package is checked against a reference made
here with dataclasses.dataclass(frozen=True): the same fields, defaults,
base class and __post_init__, so construction, normalisation, equality,
hashing, repr and immutability must agree value for value.
"""

import dataclasses
import importlib

import pytest

import vcn
from vcn.errors import Record

# Every module that exports a public name, so a record that moves stays checked.
MODULES = tuple(vcn._EXPORTS)


def _records() -> dict[str, type]:
    found = {}
    for name in MODULES:
        for obj in vars(importlib.import_module(f"vcn.{name}")).values():
            if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record:
                found[obj.__name__] = obj
    return found


RECORDS = _records()
_REFERENCES: dict[type, type] = {}


def reference(cls: type) -> type:
    """The frozen dataclass with the fields, defaults and checks of cls."""
    if cls not in _REFERENCES:
        base = cls.__bases__[0]
        bases = (reference(base),) if base is not Record else ()
        own = cls.__annotations__
        ns = {"__annotations__": dict(own), "__qualname__": cls.__qualname__}
        ns.update({name: cls.__dict__[name] for name in own if name in cls.__dict__})
        if "__post_init__" in cls.__dict__:
            ns["__post_init__"] = cls.__dict__["__post_init__"]
        _REFERENCES[cls] = dataclasses.dataclass(frozen=True)(type(cls.__name__, bases, ns))
    return _REFERENCES[cls]


def _samples() -> dict[str, list[tuple]]:
    """Positional arguments of a few instances per record class; the first
    two differ, and values that __post_init__ normalises come unnormalised."""
    from vcn import PartiteHypergraph, ProductUniverse, Relation, parse_formula, points

    h = PartiteHypergraph(2, (2, 3), frozenset({(0, 2)}))
    phi = parse_formula("(or (R x y0) (= x y0))", (1, 1))
    rel = Relation(2, frozenset({(0, 1)}))
    return {
        "ProductUniverse": [([2, 3],), ((1,),)],
        "SetSystem": [(ProductUniverse((2, 2)), [3, 1]), (ProductUniverse((2, 2)), ())],
        "BoxSpec": [([[0, 1], ["1", 0]],), (((2,),),)],
        "GroundFamily": [(4, [5, 3]), (4,), (0, ())],
        "PartiteHypergraph": [
            (2, [2, 3], [[0, 2], ["1", 0.0]]), (1, (3,), ()), (2, (2, 3), {(0, 2)})
        ],
        "ZarResult": [(4, 3, h, "exact", 4), (4, 3, h, "lower_bound_only", 9)],
        "Relation": [(2, [(0, 1), ("1", 0)]), (1, ())],
        "FiniteStructure": [(3, {"R": rel}), (2, {}), (3, [("R", rel)], [1, 2]), (0, {})],
        "QfFormula": [([1, 1], phi.body), ((1, 2), ("eq", (0, 0), (1, 1)))],
        "TypeCount": [(((0,), (1,)), 2), ((), 1)],
        "IndexedFamily": [(h, {(0, 0): ["1"], (1, 2): (0,)}), (points(2), {})],
        "EmbeddingSet": [(points(2), points(3), ((0, 1),)), (points(1), points(1), ())],
        "ColoringProblem": [
            (points(1), points(2), points(3), 2), (points(1), points(2), points(3), 3)
        ],
        "ExtensionHypergraph": [(h, 1, 7), (h, 0, 7)],
        "VAdjacencyWitness": [(((0, 1),), ((0, 2),), (), ((0, 1),)), ((), (), (), ())],
    }


SAMPLES = _samples()


def _values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(reference(type(obj))))


def _values_of(ref) -> tuple:
    return tuple(getattr(ref, f.name) for f in dataclasses.fields(ref))


def test_every_record_has_samples():
    assert set(SAMPLES) == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_and_defaults_match(name):
    cls = RECORDS[name]
    ref = reference(cls)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(ref))
    for args in SAMPLES[name]:
        names = cls._fields[: len(args)]
        want = _values_of(ref(*args))
        assert _values(cls(*args)) == want
        assert _values(cls(**dict(zip(names, args)))) == want
        assert _values(cls(*args[:1], **dict(zip(names[1:], args[1:])))) == want


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_bad_arguments_are_type_errors(name):
    cls = RECORDS[name]
    ref = reference(cls)
    args = SAMPLES[name][0]
    for bad_args, bad_kwargs in [((*args, 0), {}), (args, {"no_such_field": 0})]:
        with pytest.raises(TypeError):
            ref(*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)
    required = [f for f in dataclasses.fields(ref) if f.default is dataclasses.MISSING]
    with pytest.raises(TypeError):
        cls(*args[: len(required) - 1])


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_hash_and_repr_match(name):
    cls, ref = RECORDS[name], reference(RECORDS[name])
    pairs = [(cls(*args), ref(*args)) for args in SAMPLES[name]]
    pairs.append((cls(*SAMPLES[name][0]), ref(*SAMPLES[name][0])))
    for rec, want in pairs:
        assert repr(rec) == repr(want)
        try:
            expected = hash(want)
        except TypeError as exc:
            with pytest.raises(TypeError, match=str(exc)):
                hash(rec)
        else:
            assert hash(rec) == expected
        for other, other_want in pairs:
            assert (rec == other) == (want == other_want)
            assert (rec != other) == (want != other_want)
        assert rec != object() and not rec == _values(rec)
    assert pairs[0][0] == pairs[-1][0] and pairs[0][0] is not pairs[-1][0]
    assert pairs[0][0] != pairs[1][0]


def test_records_of_different_classes_never_compare_equal():
    from vcn import ExtensionHypergraph, PartiteHypergraph

    class Subclass(PartiteHypergraph):
        """Same fields and values as its base, another class."""

    ref_subclass = type("Subclass", (reference(PartiteHypergraph),), {})
    args = (2, (2, 3), frozenset({(0, 2)}))
    plain = PartiteHypergraph(*args)
    ref_plain = reference(PartiteHypergraph)(*args)
    for other, ref_other in [
        # a sample is not the hypergraph it labels (whose class its base must have)
        (ExtensionHypergraph(plain, 1, 7), reference(ExtensionHypergraph)(plain, 1, 7)),
        (Subclass(*args), ref_subclass(*args)),
    ]:
        got = [plain == other, other == plain, plain != other]
        assert got == [ref_plain == ref_other, ref_other == ref_plain, ref_plain != ref_other]
        assert got == [False, False, True]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    cls = RECORDS[name]
    rec = cls(*SAMPLES[name][0])
    before = _values(rec)
    for field in (*cls._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)
        with pytest.raises(AttributeError):
            delattr(rec, field)
    assert _values(rec) == before

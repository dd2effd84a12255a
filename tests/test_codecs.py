"""The JSON codecs: one decode path, malformed documents end in InputError."""

import json
import random

import pytest

from vcn import (
    ExtensionHypergraph,
    FiniteStructure,
    GroundFamily,
    InputError,
    PartiteHypergraph,
    RelStructure,
    SetSystem,
    gen_extension_hypergraph,
)

CODECS = [
    SetSystem, GroundFamily, FiniteStructure, RelStructure, PartiteHypergraph, ExtensionHypergraph
]


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("text", ["[1]", "3", '"x"', "null", "{", ""])
def test_document_must_be_a_json_object(codec, text):
    with pytest.raises(InputError, match="^bad .* document: "):
        codec.from_json(text)


@pytest.mark.parametrize(
    "codec, doc",
    [
        (FiniteStructure, {"domain": 2, "relations": [1]}),
        (FiniteStructure, {"domain": 2, "relations": {"R": [1]}}),
        (SetSystem, {"part_sizes": [2], "members": "3"}),
        (SetSystem, {"part_sizes": "2", "members": ["3"]}),
        (GroundFamily, {"ground_size": 2, "members": "3"}),
        (PartiteHypergraph, {"n": 2, "part_sizes": "22", "edges": []}),
        (PartiteHypergraph, {"n": 1, "part_sizes": [2], "edges": "1"}),
        (ExtensionHypergraph, {"n": 2, "part_sizes": "22", "edges": [], "t": 0, "seed": 0}),
        (RelStructure, {"domain": 2, "parts": "01"}),
        (RelStructure, {"domain": 3, "order": "012"}),
        (RelStructure, {"domain": 2, "relations": [["R"]]}),
    ],
)
def test_wrong_shapes_are_input_errors(codec, doc):
    # each of these used to be accepted by iterating a string, or to
    # escape as a bare AttributeError
    with pytest.raises(InputError, match="^bad .* document: "):
        codec.from_json(json.dumps(doc))


def test_wrong_shape_names_the_field():
    with pytest.raises(InputError) as exc:
        SetSystem.from_json('{"part_sizes": [2], "members": "3"}')
    assert str(exc.value) == "bad set-system document: 'members' must be a JSON array"
    with pytest.raises(InputError) as exc:
        FiniteStructure.from_json('{"domain": 2, "relations": [1]}')
    assert str(exc.value) == "bad structure document: 'relations' must be a JSON object"


@pytest.mark.parametrize(
    "codec, doc, message",
    [
        (GroundFamily, {"ground_size": 2, "members": ["f"]}, "member exceeds the ground set"),
        (SetSystem, {"part_sizes": [0], "members": []}, "part sizes must be positive"),
        (PartiteHypergraph, {"n": 1, "part_sizes": [2], "edges": [[5]]},
         "edge (5,) leaves its parts"),
        (FiniteStructure, {"domain": 2, "relations": {"R": {"arity": 0, "tuples": []}}},
         "relation arity must be positive"),
        (RelStructure, {"domain": 2, "parts": [[0], [3]]}, "vertex 3 is not in the domain"),
    ],
)
def test_input_errors_pass_through_unchanged(codec, doc, message):
    with pytest.raises(InputError) as exc:
        codec.from_json(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "codec, text, message",
    [
        # both used to be read as the edge set {(0, 1)}
        (PartiteHypergraph, '{"n": 2, "part_sizes": [2, 2], "edges": ["01", [0.7, 1]]}',
         "'edges'[0] must be a JSON array"),
        (PartiteHypergraph, '{"n": 2, "part_sizes": [2, 2], "edges": [[0.7, 1]]}',
         "'edges'[0][0] must be a JSON integer"),
        (PartiteHypergraph, '{"n": true, "part_sizes": [2], "edges": []}',
         "'n' must be a JSON integer"),
        (ExtensionHypergraph, '{"n": 1, "part_sizes": [2], "edges": [], "t": "1", "seed": 0}',
         "'t' must be a JSON integer"),
        (FiniteStructure, '{"domain": 2, "relations": {"R": {"arity": 2, "tuples": ["01"]}}}',
         "'relations'['R']['tuples'][0] must be a JSON array"),
        (RelStructure, '{"domain": 2, "relations": {"R": {"arity": 2, "tuples": ["01"]}}}',
         "'relations'['R']['tuples'][0] must be a JSON array"),
        (RelStructure, '{"domain": 2, "parts": [[0, 1.0]]}', "'parts'[0][1] must be a JSON integer"),
        (SetSystem, '{"part_sizes": [2], "members": [3]}', "'members'[0] must be a JSON string"),
    ],
)
def test_nested_values_must_have_their_shape(codec, text, message):
    with pytest.raises(InputError) as exc:
        codec.from_json(text)
    assert str(exc.value).split(" document: ")[1] == message


def test_missing_key_and_bad_value_are_input_errors():
    with pytest.raises(InputError, match="^bad set-system document: 'members'$"):
        SetSystem.from_json('{"part_sizes": [2]}')
    with pytest.raises(InputError, match="^bad family document: invalid literal"):
        GroundFamily.from_json('{"ground_size": 2, "members": ["z"]}')


def test_extension_document_extends_the_hypergraph_document():
    eh = gen_extension_hypergraph(2, 4, 0, seed=3)
    assert isinstance(eh, PartiteHypergraph) and type(eh.base) is PartiteHypergraph
    doc = json.loads(eh.to_json())
    assert {k: doc[k] for k in ("n", "part_sizes", "edges")} == json.loads(eh.base.to_json())
    assert (doc["t"], doc["seed"]) == (0, 3)
    assert ExtensionHypergraph.from_json(eh.to_json()) == eh
    # a plain hypergraph document reads back as the base of an extended one
    assert PartiteHypergraph.from_json(eh.to_json()) == eh.base


def _first_bad_edge(n, sizes, edges):
    """The error of the edge-by-edge check, in the edge set's own order."""
    for e in frozenset(tuple(int(v) for v in e) for e in edges):
        if len(e) != n:
            return f"edge {e} does not pick one vertex per part"
        if any(not 0 <= v < s for v, s in zip(e, sizes)):
            return f"edge {e} leaves its parts"
    return None


def _edge_sets():
    """Seeded edge sets over 1 to 3 parts, most with several bad edges."""
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 3)
        sizes = [rng.randint(1, 4) for _ in range(n)]
        edges = {tuple(rng.randrange(s) for s in sizes) for _ in range(rng.randint(0, 8))}
        for _ in range(rng.choice([0, 1, 2, 3])):
            e = [rng.randrange(s) for s in sizes]
            kind = rng.choice(["short", "long", "negative", "at size", "past size"])
            if kind == "short":
                e.pop()
            elif kind == "long":
                e.append(0)
            else:
                p = rng.randrange(n)
                e[p] = {"negative": -rng.randint(1, 3), "at size": sizes[p]}.get(
                    kind, sizes[p] + rng.randint(1, 5)
                )
            edges.add(tuple(e))
        yield n, sizes, sorted(edges)


EDGE_SETS = list(_edge_sets())


def test_edge_sets_cover_each_outcome():
    outcomes = [(_first_bad_edge(*case) or "ok").split()[-1] for case in EDGE_SETS]
    assert {outcomes.count(word) > 20 for word in ("ok", "part", "parts")} == {True}
    assert {n for n, *_ in EDGE_SETS} == {1, 2, 3}


def test_edge_check_names_the_first_bad_edge():
    for n, sizes, edges in EDGE_SETS:
        want = _first_bad_edge(n, sizes, edges)
        doc = {"n": n, "part_sizes": sizes, "edges": [list(e) for e in edges], "t": 0, "seed": 1}
        builds = [
            lambda: PartiteHypergraph(n, sizes, edges),
            lambda: PartiteHypergraph(n, sizes, [[str(v) for v in e] for e in edges]),
            lambda: ExtensionHypergraph.from_json(json.dumps(doc)),
        ]
        for build in builds:
            if want is None:
                assert build().edges == frozenset(edges)
            else:
                with pytest.raises(InputError) as exc:
                    build()
                assert str(exc.value) == want, (n, sizes, edges)


def test_edge_check_keeps_its_readings():
    # coordinates go through int(); an empty edge set and a single part pass
    assert PartiteHypergraph(2, (2, 2), [("1", 0.0), (True, 1)]).edges == {(1, 0), (1, 1)}
    assert PartiteHypergraph(3, (1, 2, 3), ()).edges == frozenset()
    assert PartiteHypergraph(1, [3], [[2], [0]]).edges == {(2,), (0,)}
    for edges, message in [
        ([(0, 1, 0)], "edge (0, 1, 0) does not pick one vertex per part"),
        ([()], "edge () does not pick one vertex per part"),
        ([(0, -1)], "edge (0, -1) leaves its parts"),
        ([(2, 0)], "edge (2, 0) leaves its parts"),
    ]:
        with pytest.raises(InputError) as exc:
            PartiteHypergraph(2, (2, 2), edges)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match="invalid literal"):
        PartiteHypergraph(2, (2, 2), [("x", 0)])

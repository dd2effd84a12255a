"""The JSON codecs: one decode path, malformed documents end in InputError."""

import json
import random
import tempfile
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from instance_gen import traced_peak
from vcn import (
    ExtensionHypergraph,
    FiniteStructure,
    GroundFamily,
    InputError,
    PartiteHypergraph,
    Relation,
    RelStructure,
    SetSystem,
    gen_extension_hypergraph,
)
from vcn import cli



def _read_as_the_verbs(text: str):
    """The structure that the arrow, direct-sum and encode-partite verbs read
    from a document: the one reader's structure, with R alone passed through
    RelStructure, each tuple a vertex set."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "s.json")
        path.write_text(text, encoding="utf-8")
        return cli._load_structure(str(path))


# The test ids name this reading after RelStructure, the constructor it ends in.
EDGE_READER = SimpleNamespace(__name__="RelStructure", from_json=_read_as_the_verbs)
CODECS = [
    SetSystem, GroundFamily, FiniteStructure, EDGE_READER, PartiteHypergraph,
    ExtensionHypergraph,
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
        (EDGE_READER, {"domain": 2, "parts": "01"}),
        (EDGE_READER, {"domain": 3, "order": "012"}),
        (EDGE_READER, {"domain": 2, "relations": [["R"]]}),
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
        (EDGE_READER, {"domain": 2, "parts": [[0], [3]]}, "vertex 3 is not in the domain"),
        # both structure types read the order, the parts and every relation
        (FiniteStructure, {"domain": 2, "relations": {"R": {"arity": 2, "tuples": [[5, 0]]}}},
         "vertex 5 is not in the domain"),
        (FiniteStructure, {"domain": 2, "order": [7], "parts": [[0], [9]], "relations": {}},
         "order must enumerate the whole domain"),
        (FiniteStructure, {"domain": 2, "parts": [[1], [0]], "relations": {}},
         "parts must be convex in the order and cover the domain"),
        (EDGE_READER, {"domain": 2, "relations": {"S": {"arity": 1, "tuples": [[9]]}}},
         "vertex 9 is not in the domain"),
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
        (EDGE_READER, '{"domain": 2, "relations": {"R": {"arity": 2, "tuples": ["01"]}}}',
         "'relations'['R']['tuples'][0] must be a JSON array"),
        (EDGE_READER, '{"domain": 2, "parts": [[0, 1.0]]}',
         "'parts'[0][1] must be a JSON integer"),
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
    assert not isinstance(eh, PartiteHypergraph) and type(eh.base) is PartiteHypergraph
    doc = json.loads(eh.to_json())
    assert {k: doc[k] for k in ("n", "part_sizes", "edges")} == json.loads(eh.base.to_json())
    assert (doc["t"], doc["seed"]) == (0, 3)
    assert ExtensionHypergraph.from_json(eh.to_json()) == eh
    # a plain hypergraph document reads back as the base of an extended one
    assert PartiteHypergraph.from_json(eh.to_json()) == eh.base


@pytest.mark.parametrize("key", ["t", "seed"])
def test_both_hypergraph_readers_check_a_samples_label(key):
    doc = {"n": 1, "part_sizes": [2], "edges": [[0]], "t": 0, "seed": 1, key: "x"}
    for codec in (PartiteHypergraph, ExtensionHypergraph):
        with pytest.raises(InputError) as exc:
            codec.from_json(json.dumps(doc))
        assert str(exc.value) == f"bad hypergraph document: {key!r} must be a JSON integer"


def test_hypergraph_reader_takes_either_label_alone():
    # each label key is checked where present; the hypergraph reader needs neither
    for label in ({"t": 1}, {"seed": 4}):
        doc = {"n": 1, "part_sizes": [2], "edges": [[0]], **label}
        assert PartiteHypergraph.from_json(json.dumps(doc)) == PartiteHypergraph(1, [2], [[0]])


@pytest.mark.parametrize(
    "missing, named",
    [
        (("n", "t"), "n"), (("t",), "t"), (("t", "seed"), "t"), (("seed",), "seed"),
        (("edges", "seed"), "edges"), (("part_sizes", "t"), "part_sizes"),
    ],
)
def test_sample_reader_names_the_first_missing_key(missing, named):
    # the edge leaves its part: every key is read before anything is built
    doc = {"n": 1, "part_sizes": [2], "edges": [[9]], "t": 0, "seed": 1}
    doc = {k: v for k, v in doc.items() if k not in missing}
    with pytest.raises(InputError) as exc:
        ExtensionHypergraph.from_json(json.dumps(doc))
    assert str(exc.value) == f"bad hypergraph document: {named!r}"


def _first_bad_edge(n, sizes, edges):
    """The error of the edge-by-edge check, in sorted edge order."""
    for e in sorted(frozenset(tuple(int(v) for v in e) for e in edges)):
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
            lambda: ExtensionHypergraph.from_json(json.dumps(doc)).base,
            lambda: PartiteHypergraph.from_json(json.dumps(doc)),
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


def test_part_count_is_an_integer_and_documents_round_trip():
    # a float or bool n would reach a document that the reader refuses
    for n, message in [
        (2.0, "n must be an integer"),
        (True, "n must be an integer"),
        ("2", "n must be an integer"),
        (0, "n must be positive"),
        (-1, "n must be positive"),
    ]:
        with pytest.raises(InputError) as exc:
            PartiteHypergraph(n, (2, 2), [(0, 1)])
        assert str(exc.value) == message
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randint(1, 4)
        sizes = tuple(rng.randint(1, 4) for _ in range(n))
        edges = {tuple(rng.randrange(s) for s in sizes) for _ in range(rng.randint(0, 12))}
        h = PartiteHypergraph(n, sizes, edges)
        assert PartiteHypergraph.from_json(h.to_json()) == h
        # the cell mask reads the grid row-major, the last part fastest
        cells = product(*map(range, sizes))
        assert h._cell_mask() == sum(1 << i for i, e in enumerate(cells) if e in edges)


def _structure_docs():
    """Seeded structure documents on domains of 1 to 5.

    Orders are absent, ascending, permuted or broken; parts are absent,
    convex in the order or broken; R is binary on distinct vertices and S
    unary, and either may name a vertex outside the domain.
    """
    rng = random.Random(12)
    for _ in range(400):
        size = rng.randint(1, 5)
        doc = {"domain": size}
        order = list(range(size))
        kind = rng.choice(["absent", "ascending", "permuted", "broken"])
        if kind != "ascending":
            rng.shuffle(order)
        if kind == "broken":
            broken = list(order)
            fault = rng.choice(["drop", "repeat", "outside"])
            if fault == "drop":
                broken.pop(rng.randrange(size))
            elif fault == "repeat":
                broken.append(rng.choice(order))
            else:
                broken[rng.randrange(size)] = size
            doc["order"] = broken
        elif kind == "absent":
            order.sort()
        else:
            doc["order"] = order
        parts = rng.choice(["absent", "convex", "broken"])
        if parts != "absent":
            cuts = sorted(rng.choices(range(size + 1), k=rng.randint(0, 3)))
            runs = [order[a:b] for a, b in zip([0, *cuts], [*cuts, size])]
            for run in runs:
                rng.shuffle(run)
            if parts == "broken":
                full = [run for run in runs if run]
                fault = rng.choice(["missing", "outside", "not convex"])
                if fault == "not convex" and len(full) > 1:
                    # swap the last vertex of the first part and the first of the last
                    first, last = full[0], full[-1]
                    i = first.index(max(first, key=order.index))
                    j = last.index(min(last, key=order.index))
                    first[i], last[j] = last[j], first[i]
                elif fault == "outside":
                    rng.choice(runs).append(size + rng.randint(0, 2))
                else:
                    rng.choice(full).pop()
            doc["parts"] = runs
        pairs = [rng.sample(range(size), 2) for _ in range(rng.randint(0, 4))] if size > 1 else []
        singles = [[rng.randrange(size)] for _ in range(rng.randint(0, 3))]
        if pairs and rng.random() < 0.15:
            pairs[0][rng.randrange(2)] = size + rng.randint(0, 2)
        if rng.random() < 0.15:
            singles.append([size + rng.randint(0, 2)])
        doc["relations"] = {"R": {"arity": 2, "tuples": pairs}, "S": {"arity": 1, "tuples": singles}}
        yield doc


STRUCTURE_DOCS = list(_structure_docs())


def _read(codec, text):
    """What the codec reads from text, or the message of its refusal."""
    try:
        return codec.from_json(text)
    except InputError as exc:
        return str(exc)


def test_structure_documents_cover_each_outcome():
    outcomes = [_read(FiniteStructure, json.dumps(doc)) for doc in STRUCTURE_DOCS]
    words = [out.split()[0] if isinstance(out, str) else "read" for out in outcomes]
    assert {words.count(word) >= 20 for word in ("read", "order", "parts", "vertex")} == {True}
    read = [doc for doc, out in zip(STRUCTURE_DOCS, outcomes) if not isinstance(out, str)]
    assert sum(doc.get("order", []) != sorted(doc.get("order", [])) for doc in read) >= 20
    assert sum("parts" in doc for doc in read) >= 20


def test_structure_readers_agree():
    for doc in STRUCTURE_DOCS:
        text = json.dumps(doc)
        rel, fin = _read(EDGE_READER, text), _read(FiniteStructure, text)
        if isinstance(rel, str) or isinstance(fin, str):
            assert rel == fin, doc
            continue
        assert (rel.size, rel.part_sizes) == (fin.size, fin.part_sizes), doc
        edges = {tuple(sorted(t)) for t in fin.relations["R"].tuples}
        assert rel.relations == {"R": Relation(2, edges)}, doc
        # what each reading writes reads back to an equal structure
        assert EDGE_READER.from_json(rel.to_json()) == rel
        assert FiniteStructure.from_json(fin.to_json()) == fin
    # arity faults in any relation, with tuples read along the order
    for relations, message in [
        ({"S": {"arity": 1, "tuples": [[1, 2]]}}, "tuple (0, 1) does not match arity 1"),
        ({"S": {"arity": 0, "tuples": []}}, "relation arity must be positive"),
        ({"R": {"arity": -1, "tuples": []}}, "relation arity must be positive"),
        ({"R": {"arity": 2, "tuples": [[0, 1, 2]]}}, "tuple (2, 0, 1) does not match arity 2"),
        ({"R": {"arity": 2, "tuples": [[1, 2]]}, "S": {"arity": 1, "tuples": [[]]}},
         "tuple () does not match arity 1"),
        # a fault in each of two relations: the first relation's is named
        ({"S": {"arity": 1, "tuples": [[1], [2, 0]]}, "R": {"arity": 0, "tuples": []}},
         "tuple (1, 2) does not match arity 1"),
        ({"R": {"arity": 0, "tuples": []}, "S": {"arity": 1, "tuples": [[1], [2, 0]]}},
         "relation arity must be positive"),
        # every relation is read along the order before any arity is checked,
        # and of several vertices outside the domain the first given is named
        ({"A": {"arity": 0, "tuples": []}, "B": {"arity": 1, "tuples": [[7]]}},
         "vertex 7 is not in the domain"),
        ({"A": {"arity": 2, "tuples": [[0, 1, 2]]}, "B": {"arity": 1, "tuples": [[0], [9], [7]]}},
         "vertex 9 is not in the domain"),
        # each relation's keys are read before its vertices, relation by relation
        ({"A": {"arity": 1, "tuples": [[7]]}, "B": {"tuples": []}}, "vertex 7 is not in the domain"),
        ({"B": {"tuples": []}, "A": {"arity": 1, "tuples": [[7]]}}, "bad structure document: 'arity'"),
        # several bad tuples in one relation: the first given is named
        ({"S": {"arity": 1, "tuples": [[0, 2], [1, 2]]}}, "tuple (2, 1) does not match arity 1"),
        ({"S": {"arity": 2, "tuples": [[1, 2], [0], [1, 2, 0], [2]]}},
         "tuple (2,) does not match arity 2"),
    ]:
        text = json.dumps({"domain": 3, "order": [1, 2, 0], "relations": relations})
        assert _read(EDGE_READER, text) == _read(FiniteStructure, text) == message
    # A repeated vertex makes a tuple of the right length but an edge of one
    # vertex: the verbs, which read R's tuples as vertex sets, alone refuse it.
    text = json.dumps({"domain": 2, "relations": {"R": {"arity": 2, "tuples": [[1, 1]]}}})
    assert _read(EDGE_READER, text) == "edge [1] does not match the arity"
    assert _read(FiniteStructure, text).relations["R"].tuples == {(1, 1)}


def test_structure_edge_check_names_the_least_bad_edge():
    # the edge named depends on the edges alone, not on their order or hashing
    cases = [
        ([{2, 5}, {0}, {1, 2}], "edge [0] does not match the arity"),
        ([{2, 5}, {1, 4}, {0, 1}], "edge [1, 4] leaves the domain"),
        ([{0, 1, 2}, {2, 3}, {-1, 0}], "edge [-1, 0] leaves the domain"),
    ]
    for edges, message in cases:
        for order in (edges, edges[::-1]):
            with pytest.raises(InputError) as exc:
                RelStructure(3, None, 2, order)
            assert str(exc.value) == message
    # vertices renamed along the order: 4, 3, 1, 2, 0 become 0, 1, 2, 3, 4
    doc = {"domain": 5, "order": [4, 3, 1, 2, 0],
           "relations": {"R": {"arity": 2, "tuples": [[4, 4], [3, 1], [0, 0]]}}}
    assert _read(EDGE_READER, json.dumps(doc)) == "edge [0] does not match the arity"


def test_structure_constructors_keep_their_messages():
    # built directly, as a library caller does, not through a document
    for build, message in [
        (lambda: Relation(0, ()), "relation arity must be positive"),
        (lambda: Relation(2, [(0, 1), (1,), (2, 0, 1)]), "tuple (1,) does not match arity 2"),
        (lambda: FiniteStructure(-1, {}), "size must be nonnegative"),
        (
            lambda: FiniteStructure(2, {"R": Relation(2, {(0, 1)}), "S": Relation(1, [(2,)])}),
            "relation S tuple (2,) leaves the domain",
        ),
        # the least tuple off the domain, of the first such relation by name
        (
            lambda: FiniteStructure(3, {"R": Relation(2, {(3, 1), (10, 0), (0, 4)})}),
            "relation R tuple (0, 4) leaves the domain",
        ),
        (
            lambda: FiniteStructure(1, {"S": Relation(1, [(1,)]), "R": Relation(1, [(2,)])}),
            "relation R tuple (2,) leaves the domain",
        ),
        # a relation given as its tuples, or a mapping given as pairs
        (lambda: FiniteStructure(3, {"R": [(0, 1)]}), "relation R is not a Relation"),
        (lambda: FiniteStructure(3, [("R", 1)]), "relation R is not a Relation"),
        # relations that are neither a mapping nor a list of pairs
        (lambda: FiniteStructure(3, 5), "relations must map names to Relations"),
        (lambda: FiniteStructure(3, [1]), "relations must map names to Relations"),
        (lambda: FiniteStructure(3, None), "relations must map names to Relations"),
        (lambda: RelStructure(-1), "size must be nonnegative"),
        (lambda: RelStructure(3, None, 0, frozenset()), "edge arity must be positive"),
    ]:
        with pytest.raises(InputError) as exc:
            build()
        assert str(exc.value) == message


def _random_structures():
    """Seeded structures on domains of 0 to 5, with and without parts, and
    with up to three relations of arities 1 to 3."""
    rng = random.Random(5)
    for _ in range(300):
        size = rng.randint(0, 5)
        relations = {}
        for name in rng.sample("RST", rng.randint(0, 3)):
            arity = rng.randint(1, 3)
            count = rng.randint(0, 4) if size else 0
            relations[name] = Relation(
                arity, [[rng.randrange(size) for _ in range(arity)] for _ in range(count)]
            )
        part_sizes = None
        if rng.random() < 0.5:
            cuts = sorted(rng.choices(range(size + 1), k=rng.randint(0, 2)))
            part_sizes = [b - a for a, b in zip([0, *cuts], [*cuts, size])]
        yield FiniteStructure(size, relations, part_sizes)


RANDOM_STRUCTURES = list(_random_structures())


def test_structure_documents_round_trip():
    assert {s.size for s in RANDOM_STRUCTURES} == set(range(6))
    assert {s.part_sizes is None for s in RANDOM_STRUCTURES} == {True, False}
    assert {len(s.relations) for s in RANDOM_STRUCTURES} == {0, 1, 2, 3}
    for s in RANDOM_STRUCTURES:
        text = s.to_json()
        assert FiniteStructure.from_json(text) == s
        # the order is listed only beside the parts it orders
        assert ("order" in json.loads(text)) == (s.part_sizes is not None)
    for partless in (RelStructure(3, None, 2, [{0, 2}]), RelStructure(0)):
        assert set(json.loads(partless.to_json())) == {"domain", "relations"}


def test_structures_are_dict_keys():
    seen = {}
    for s in RANDOM_STRUCTURES:
        seen.setdefault(s, s)
    assert len(seen) < len(RANDOM_STRUCTURES)  # equal structures were drawn
    for s in RANDOM_STRUCTURES:
        # an equal structure, built anew, finds the first one drawn
        assert seen[FiniteStructure.from_json(s.to_json())] == s


@pytest.mark.parametrize(
    "n, sizes, edges",
    [
        (1, (4,), [(3,), (0,)]),
        (2, (2, 3), []),
        (3, (2, 2, 2), [(1, 0, 1), (0, 1, 1)]),
        (2, (30, 30), [(a, b) for a in range(30) for b in range(30) if (a * b) % 7 < 3]),
    ],
)
def test_hypergraph_documents_are_what_json_dumps_writes(n, sizes, edges):
    h = PartiteHypergraph(n, sizes, edges)
    doc = {"n": n, "part_sizes": list(sizes), "edges": sorted(edges)}
    assert h.to_json() == json.dumps(doc, sort_keys=True)
    sample = ExtensionHypergraph(h, 2, -5)
    assert sample.to_json() == json.dumps({**doc, "t": 2, "seed": -5}, sort_keys=True)
    assert ExtensionHypergraph.from_json(sample.to_json()) == sample


def test_constructors_leave_the_callers_lists_unchanged():
    # only from_json empties a list of tuples: the one its own document parsed
    edges, tuples = [[0, 1], [1, 0], [1, 1]], [[0, 1], [1, 1]]
    assert PartiteHypergraph(2, (2, 2), edges).edges == {(0, 1), (1, 0), (1, 1)}
    assert Relation(2, tuples).tuples == {(0, 1), (1, 1)}
    assert edges == [[0, 1], [1, 0], [1, 1]] and tuples == [[0, 1], [1, 1]]


def test_hypergraph_readers_hold_each_edge_once():
    # a 96 x 96 sample of about 4,600 edges: each edge list of the document
    # is dropped as its tuple is built, so the two are not all held at once
    setup = "h = gen_extension_hypergraph(2, 96, 1, 7)\ntext = h.to_json()"
    call = "PartiteHypergraph.from_json(text) == h.base, ExtensionHypergraph.from_json(text) == h"
    same, peak = traced_peak(setup, f"({call})")
    assert same == "(True, True)"
    assert peak < 0.8 * 2**20


def test_structure_reader_holds_each_tuple_once():
    # a ternary relation of 31,925 tuples on 40 elements, renamed along a
    # reversed order: the document's tuples, renamed tuples and a Relation's
    # own copies are not all held at once
    setup = """
import itertools, json, random
rng = random.Random(1)
tuples = [list(t) for t in itertools.product(range(40), repeat=3) if rng.random() < 0.5]
doc = {"domain": 40, "order": list(range(40))[::-1], "relations": {"R": {"arity": 3, "tuples": tuples}}}
text = json.dumps(doc)
want = {tuple(39 - v for v in t) for t in tuples}
"""
    same, peak = traced_peak(setup, "FiniteStructure.from_json(text).relations['R'].tuples == want")
    assert same == "True"
    assert peak < 6.5 * 2**20

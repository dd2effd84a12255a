"""Ordered structures, arrow checks, sums, and partite encodings.

Ordered structures are rigid, so copies are plain increasing selections;
the classical two-color triangle-free threshold (true at 6 points, false
at 5) pins down the arrow scan, and the encoding tests run exhaustively
over every small bipartite graph.
"""

import random
import time
from itertools import combinations, product

import pytest

from instance_gen import (
    random_arrow_problem,
    random_copy_pair,
    random_ordered,
    ref_arrow_scan,
    ref_closure,
    ref_copies,
)
from vcn import (
    BudgetExceededError,
    ColoringProblem,
    FiniteStructure,
    InputError,
    RelStructure,
    Relation,
    arrow_check,
    arrow_scan,
    bar_restrict,
    build_direct_sum_witness,
    copies,
    direct_sum,
    encode_tilde,
    flatten,
    hereditary_closure,
    induced,
    ordered_set_oracle,
    points,
)


def ordered_graph(size: int, edges) -> FiniteStructure:
    return RelStructure(size, None, 2, frozenset(frozenset(e) for e in edges))


def test_points_and_induced():
    p = points(4)
    assert p.size == 4 and p.relations == {} and p.part_sizes is None
    sub = induced(ordered_graph(4, [(0, 1), (1, 3)]), [1, 3])
    assert sub.size == 2
    assert sub.relations["R"].tuples == {(0, 1)}


def test_structure_validation():
    with pytest.raises(InputError):
        RelStructure(2, (1,), None, None)  # parts must sum to size
    with pytest.raises(InputError):
        RelStructure(2, None, None, frozenset({frozenset({0, 1})}))  # edges need arity
    with pytest.raises(InputError):
        RelStructure(2, None, 2, frozenset({frozenset({0, 2})}))  # out of range
    with pytest.raises(InputError):
        RelStructure(2, None, 2, frozenset({frozenset({0})}))  # arity mismatch


def test_copies_are_increasing_selections():
    g = ordered_graph(4, [(0, 1), (2, 3)])
    single_edge = ordered_graph(2, [(0, 1)])
    embs = copies(g, single_edge).embeddings
    assert embs == ((0, 1), (2, 3))
    # copies in a plain-set target require matching signatures
    with pytest.raises(InputError):
        copies(points(4), single_edge)


def test_copies_match_pointwise_reference():
    mismatched = found = 0
    for seed in range(400):
        target, source = random_copy_pair(seed)
        want = ref_copies(target, source)
        if want is None:
            mismatched += 1
            with pytest.raises(InputError):
                copies(target, source)
            continue
        found += bool(want)
        assert copies(target, source).embeddings == want, seed
    assert mismatched >= 40 and found >= 150


def _random_relations(rng: random.Random, size: int) -> FiniteStructure:
    """Two convex parts or none, and up to two relations of arity 1-3 whose
    tuples may repeat or reverse vertices."""
    cut = rng.randint(0, size)
    parts = rng.choice([None, (cut, size - cut)])
    relations = {}
    for name, arity in zip("RS", rng.sample([1, 2, 3], rng.randint(0, 2))):
        cells = product(range(size), repeat=arity)
        relations[name] = Relation(arity, {t for t in cells if rng.random() < 0.3})
    return FiniteStructure(size, relations, parts)


def _thinned(rng: random.Random, s: FiniteStructure) -> FiniteStructure:
    """s with about half of each relation's tuples dropped."""
    relations = {
        name: Relation(r.arity, {t for t in sorted(r.tuples) if rng.random() < 0.5})
        for name, r in s.relations.items()
    }
    return FiniteStructure(s.size, relations, s.part_sizes)


@pytest.mark.parametrize("seed", range(6))
def test_copies_equal_the_induced_definition(seed):
    rng = random.Random(seed)
    # a 4-vertex ordered path in a random 12-vertex ordered graph
    graph = random_ordered(rng, 12, 2, None)
    path = ordered_graph(4, [(0, 1), (1, 2), (2, 3)])
    pairs = [(graph, path), (graph, induced(graph, rng.sample(range(12), 4)))]
    for _ in range(20):
        target = _random_relations(rng, rng.randint(0, 6))
        source = induced(target, rng.sample(range(target.size), min(target.size, 3)))
        pairs.append((target, rng.choice([source, _thinned(rng, source)])))
    for target, source in pairs:
        want = tuple(
            sel
            for sel in combinations(range(target.size), source.size)
            if induced(target, sel) == source
        )
        assert copies(target, source).embeddings == want


def test_hereditary_closure_order_matches_reference():
    for seed in range(400):
        rng = random.Random(seed)
        arity = rng.choice([None, 2, 3])
        parts = rng.choice([None, 1, 2, 3])
        group = [
            random_ordered(rng, rng.randint(0, 6), arity, parts)
            for _ in range(rng.randint(1, 2))
        ]
        assert hereditary_closure(group) == ref_closure(group), seed


def test_copies_respect_parts():
    a = RelStructure(2, (1, 1), None, None)
    b = RelStructure(4, (2, 2), None, None)
    embs = copies(b, a).embeddings
    # one vertex from each part: 2*2 selections
    assert len(embs) == 4
    assert all(e[0] < 2 <= e[1] for e in embs)


def test_json_round_trip_and_relabel():
    g = RelStructure(4, (2, 2), 2, frozenset({frozenset({0, 2})}))
    assert FiniteStructure.from_json(g.to_json()) == g
    # a permuted order relabels back to the canonical presentation
    doc = (
        '{"domain": 3, "order": [2, 0, 1], "parts": [[2, 0], [1]],'
        ' "relations": {"R": {"arity": 2, "tuples": [[2, 1]]}}}'
    )
    s = FiniteStructure.from_json(doc)
    assert s.size == 3
    assert s.part_sizes == (2, 1)
    assert s.relations["R"].tuples == {(0, 2)}


def test_ramsey_triangle_arrow():
    """Two-coloring the pairs of 6 points forces a monochromatic triangle;
    5 points do not."""
    pair, triple = points(2), points(3)
    ok, checked = arrow_scan(ColoringProblem(pair, triple, points(6), 2))
    assert ok and checked == 1 << 15
    assert not arrow_check(ColoringProblem(pair, triple, points(5), 2))


def test_arrow_budget_refusal():
    pair, triple = points(2), points(3)
    with pytest.raises(BudgetExceededError):
        arrow_check(ColoringProblem(pair, triple, points(6), 2), budget=100)


def test_arrow_vacuous_and_identity():
    pair = points(2)
    assert arrow_check(ColoringProblem(pair, pair, pair, 3))
    # no B-copy at all: the arrow fails (no witness can exist)
    assert not arrow_check(ColoringProblem(pair, points(3), pair, 2))


def test_arrow_with_edges():
    e = ordered_graph(2, [(0, 1)])
    path = ordered_graph(3, [(0, 1), (1, 2)])
    host = ordered_graph(3, [(0, 1), (1, 2)])
    # the path has two edge copies; one color class must repeat with k=1
    assert arrow_check(ColoringProblem(e, path, host, 1))
    # with 2 colors the single path in itself splits its edges
    assert not arrow_check(ColoringProblem(e, path, host, 2))


@pytest.mark.parametrize("seed", range(240))
def test_arrow_scan_matches_reference(seed):
    """Both walk the colorings in the same colex order, so they agree on the
    count wherever the product walk answers under its cap; elsewhere the
    search still answers at its default budget, and a true arrow reports
    all k**N colorings."""
    problem = random_arrow_problem(seed)
    got = arrow_scan(problem)
    try:
        want = ref_arrow_scan(problem, 1 << 16)
    except BudgetExceededError:
        n = len(copies(problem.c, problem.a).embeddings)
        assert not got[0] or got[1] == problem.k**n
        return
    assert got == want


@pytest.mark.parametrize(
    "a,b,c",
    [
        (points(2), points(3), points(2)),  # no B-copy
        (points(2), points(3), points(0)),  # empty C, no A-copy either
        (points(0), points(0), points(0)),  # one empty copy of each
        (points(3), points(2), points(4)),  # A not embeddable in B
        (points(3), points(2), points(2)),  # N = 0 with a B-copy
        (ordered_graph(2, [(0, 1)]), ordered_graph(3, []), ordered_graph(4, [])),
        (ordered_graph(2, []), ordered_graph(3, [(0, 2)]), ordered_graph(4, [(0, 2), (1, 3)])),
        (RelStructure(2, (1, 1)), RelStructure(3, (1, 2)), RelStructure(3, (2, 1))),
        (RelStructure(1, (1, 0)), RelStructure(2, (1, 1)), RelStructure(4, (2, 2))),
    ],
)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_arrow_scan_vacuous_cases_match_reference(a, b, c, k):
    problem = ColoringProblem(a, b, c, k)
    assert arrow_scan(problem) == ref_arrow_scan(problem)


def test_arrow_scan_node_budget_frontier():
    """One budget unit is one color placed at one position: 2 -> (3)^2_2
    on 6 points places 324 colors before it proves all 2**15 colorings."""
    problem = ColoringProblem(points(2), points(3), points(6), 2)
    assert arrow_scan(problem, budget=324) == (True, 1 << 15)
    with pytest.raises(BudgetExceededError, match="budget of 323 nodes"):
        arrow_scan(problem, budget=323)


def test_arrow_scan_negative_budget_is_input_error():
    vacuous = ColoringProblem(points(3), points(2), points(4), 2)  # A not in B
    assert arrow_scan(vacuous, budget=0) == (True, 2**4)
    for problem in (vacuous, ColoringProblem(points(2), points(3), points(6), 2)):
        with pytest.raises(InputError, match="budget must be nonnegative"):
            arrow_scan(problem, budget=-1)


def test_arrow_scan_pinned_counts():
    # at the default budget the search decides instances far past 2**20 colorings
    start = time.perf_counter()
    assert arrow_scan(ColoringProblem(points(2), points(3), points(7), 2)) == (True, 1 << 21)
    assert arrow_scan(ColoringProblem(points(2), points(3), points(12), 2)) == (True, 1 << 66)
    got = arrow_scan(ColoringProblem(points(2), points(4), points(10), 2))
    assert got == (False, 661718632331)
    got = arrow_scan(ColoringProblem(points(3), points(4), points(10), 2))
    assert got == (False, 98932886636603412417397117829820133)
    assert time.perf_counter() - start < 1.0
    # failing arrows stop at the first bad coloring in colex order
    assert arrow_scan(ColoringProblem(points(3), points(4), points(6), 2)) == (False, 78045)
    assert arrow_scan(ColoringProblem(points(2), points(3), points(5), 2)) == (False, 221)


def test_hereditary_closure_counts():
    e = ordered_graph(2, [(0, 1)])
    closure = hereditary_closure([e])
    # empty, point, non-edge is absent (not induced), edge itself
    sizes = sorted(s.size for s in closure)
    assert sizes == [0, 1, 2]
    path = ordered_graph(3, [(0, 1), (1, 2)])
    closure = hereditary_closure([path])
    # induced: empty, point, edge, non-edge, path
    assert len(closure) == 5
    assert ordered_graph(2, []) in closure


def test_direct_sum_tags_parts():
    a = ordered_graph(2, [(0, 1)])
    b = ordered_graph(1, [])
    s = direct_sum(a, b)
    assert s.size == 3
    assert s.part_sizes == (2, 1)
    assert s.relations["R"].tuples == {(0, 1)}
    with pytest.raises(InputError):
        direct_sum(s, b)  # already carries parts


def test_ordered_set_oracle_pigeonhole():
    oracle = ordered_set_oracle
    assert oracle(points(1), points(3), 4).size == 4 * 2 + 1
    assert oracle(points(2), points(2), 5).size == 2
    assert oracle(points(2), points(3), 2).size == 6
    # anything but a plain ordered set is refused, parts as well as edges
    for a, b in [
        (ordered_graph(2, [(0, 1)]), points(3)),
        (points(2), RelStructure(3, (1, 2))),
        (RelStructure(1, (1,)), points(3)),
    ]:
        with pytest.raises(InputError, match="plain ordered sets only"):
            oracle(a, b, 2)
    for a, b in [(1, 3), (2, 3), (0, 2)]:
        with pytest.raises(InputError, match="number of colors must be positive"):
            oracle(points(a), points(b), 0)


@pytest.mark.parametrize("k", [2, 3])
def test_ordered_set_oracle_answers_b_where_it_holds_one_a_copy_at_most(k):
    """A empty, A = B and A larger than B: B is the witness."""
    for a, b in [(0, 0), (0, 3), (2, 2), (3, 2), (1, 0), (4, 1)]:
        assert ordered_set_oracle(points(a), points(b), k) == points(b)
        assert arrow_check(ColoringProblem(points(a), points(b), points(b), k))


def test_ordered_set_oracle_answers_b_for_one_color():
    """With one color C -> (B)^A_1 holds exactly when B embeds in C."""
    for a, b in [(2, 3), (3, 5), (1, 4), (2, 6)]:
        assert ordered_set_oracle(points(a), points(b), 1) == points(b)
        assert arrow_check(ColoringProblem(points(a), points(b), points(b), 1))


@pytest.mark.parametrize("a, b, k", [(2, 4, 2), (3, 4, 2), (2, 3, 3)])
def test_ordered_set_oracle_refuses_past_its_shortcuts(a, b, k):
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=f"a={a}, b={b}, k={k}$"):
        ordered_set_oracle(points(a), points(b), k)
    assert time.perf_counter() - start < 0.5


def test_direct_sum_witness_small_exhaustive():
    """Witnesses for small sum problems verified by the full arrow scan.

    The pattern colored is the tagged pair (one vertex per summand), so
    the scan runs over k**(left*right) colorings; only combinations where
    that count stays enumerable appear here.
    """
    pt, two = points(1), points(2)
    for a0, b0, a1, b1, k in [
        (pt, pt, pt, pt, 2),
        (pt, two, pt, pt, 2),
        (pt, pt, pt, two, 2),
        (pt, pt, pt, two, 3),
    ]:
        c = build_direct_sum_witness(a0, b0, a1, b1, k)
        assert c.part_sizes is not None and len(c.part_sizes) == 2
        problem = ColoringProblem(direct_sum(a0, a1), direct_sum(b0, b1), c, k)
        assert arrow_check(problem, budget=1 << 22)


def test_direct_sum_witness_shape_for_larger_instance():
    """The classical chain sizes appear: 2-point targets give 17 + 3.

    Verifying that witness exhaustively would mean searching 2**51
    colorings, so the structural shape is asserted and the search is shown
    to refuse honestly under a small node budget.
    """
    pt, two = points(1), points(2)
    c = build_direct_sum_witness(pt, two, pt, two, 2)
    assert c.part_sizes == (17, 3)
    problem = ColoringProblem(direct_sum(pt, pt), direct_sum(two, two), c, 2)
    with pytest.raises(BudgetExceededError):
        arrow_check(problem, budget=1 << 12)


def test_flatten_forgets_parts():
    s = RelStructure(3, (2, 1), 2, frozenset({frozenset({0, 2})}))
    f = flatten(s)
    assert f.part_sizes is None and f.size == 3 and f.relations == s.relations


# --- partite double ----------------------------------------------------------


def all_bipartite(l: int, r: int):
    cells = [(i, l + j) for i in range(l) for j in range(r)]
    for mask in range(1 << len(cells)):
        edges = frozenset(
            frozenset(cells[i]) for i in range(len(cells)) if mask >> i & 1
        )
        yield RelStructure(l + r, (l, r), 2, edges)


def test_encode_tilde_small_graph():
    g = ordered_graph(3, [(0, 1), (1, 2)])
    d = encode_tilde(g)
    assert d.size == 6 and d.part_sizes == (3, 3)
    assert d.relations["R"].tuples == {(0, 3 + 1), (1, 3 + 2)}


def test_encode_tilde_arity_three():
    g = RelStructure(3, None, 3, frozenset({frozenset({0, 1, 2})}))
    d = encode_tilde(g)
    assert d.size == 9 and d.part_sizes == (3, 3, 3)
    assert d.relations["R"].tuples == {(0, 3 + 1, 6 + 2)}


def test_encode_tilde_validation():
    with pytest.raises(InputError):
        encode_tilde(points(3))  # no edge relation
    with pytest.raises(InputError):
        encode_tilde(RelStructure(3, (3,), 2, frozenset()))
    for r in (1, 4, 5):  # every arity doubles and restricts back
        x = RelStructure(2 * r, (2,) * r, r, [range(0, 2 * r, 2), range(1, 2 * r, 2)])
        assert encode_tilde(flatten(x)).part_sizes == (2 * r,) * r
        assert bar_restrict(x) == x


def _r(size, tuples, parts=None):
    return FiniteStructure(size, {"R": Relation(len(tuples[0]), set(tuples))}, parts)


@pytest.mark.parametrize(
    "encode, structure, least",
    [
        (encode_tilde, _r(4, [(3, 1), (2, 0), (0, 1)]), "[2, 0]"),
        (encode_tilde, _r(4, [(0, 0), (1, 2)]), "[0, 0]"),
        (encode_tilde, _r(4, [(0, 3), (3, 3), (2, 1)]), "[2, 1]"),
        (encode_tilde, _r(3, [(0, 2, 1), (0, 1, 2), (1, 1, 2)]), "[0, 2, 1]"),
        (bar_restrict, _r(4, [(2, 0)], (2, 2)), "[2, 0]"),
        (bar_restrict, _r(4, [(3, 1), (0, 2), (2, 0)], (2, 2)), "[2, 0]"),
        (bar_restrict, _r(4, [(1, 1), (0, 2)], (2, 2)), "[1, 1]"),
    ],
)
def test_encodings_refuse_a_tuple_that_is_not_increasing(encode, structure, least):
    with pytest.raises(InputError) as err:
        encode(structure)
    assert str(err.value) == f"edge {least} is not strictly increasing"


@pytest.mark.parametrize("l,r", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_bar_restrict_recovers_every_bipartite_graph(l, r):
    for x in all_bipartite(l, r):
        assert bar_restrict(x) == x


def test_bar_restrict_validation():
    with pytest.raises(InputError):
        bar_restrict(points(2))
    # non-cross edge
    bad = RelStructure(4, (2, 2), 2, frozenset({frozenset({0, 1})}))
    with pytest.raises(InputError):
        bar_restrict(bad)


# Refusals that no other in-process test reaches, each with its message.
REFUSALS = [
    (lambda: induced(points(3), [5]), "subset leaves the domain"),
    (
        lambda: ColoringProblem(points(1), points(2), points(3), 0),
        "number of colors must be positive",
    ),
    (
        lambda: direct_sum(
            FiniteStructure(2, {"R": Relation(2, [(0, 1)])}),
            FiniteStructure(3, {"R": Relation(3, [(0, 1, 2)])}),
        ),
        "summands disagree on the edge arity",
    ),
    (
        lambda: build_direct_sum_witness(points(1), points(2), points(1), points(2), 0),
        "number of colors must be positive",
    ),
    (
        lambda: bar_restrict(FiniteStructure(3, {"R": Relation(2, [(0, 1)])}, (1, 1, 1))),
        "parts must match the edge arity",
    ),
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_refusal_messages(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message

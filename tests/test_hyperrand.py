"""Random hypergraph generation, extension checks, walks, and selections."""

import random
from itertools import product

import pytest

from instance_gen import (
    random_v_instance,
    ref_dichotomy,
    ref_extension_ok,
    ref_v_adjacent,
)
from vcn import (
    ExtensionHypergraph,
    GenerationError,
    InputError,
    PartiteHypergraph,
    Relation,
    SelectionStuckError,
    WalkStuckError,
    achieved_extension_level,
    adjacency_walk,
    check_extension_level,
    diagonal_hypergraph,
    dichotomy_verdict,
    find_extension_violation,
    gen_extension_hypergraph,
    is_v_adjacent,
    random_subgraph,
    step_certificate,
    walk_discrepancies,
)


def small_graph(seed: int, n: int = 2, size: int = 4) -> PartiteHypergraph:
    rng = random.Random(seed)
    edges = frozenset(
        t for t in product(*(range(size) for _ in range(n))) if rng.getrandbits(1)
    )
    return PartiteHypergraph(n, (size,) * n, edges)


# --- extension checking -------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_extension_check_matches_reference(seed):
    h = small_graph(seed, n=2, size=4)
    for t in (0, 1, 2):
        assert check_extension_level(h, t) == ref_extension_ok(h, t)


@pytest.mark.parametrize("seed", range(10))
def test_extension_check_matches_reference_three_parts(seed):
    h = small_graph(seed, n=3, size=2)
    for t in (0, 1):
        assert check_extension_level(h, t) == ref_extension_ok(h, t)


def test_level_zero_only_needs_nonempty_parts():
    empty = PartiteHypergraph(2, (3, 3), frozenset())
    assert check_extension_level(empty, 0)
    v = find_extension_violation(empty, 1)
    assert v is not None
    j, a0, a1, window = v
    assert a0 and not a1  # the positive single-tuple pattern has no realizer


def test_violation_is_a_real_violation():
    h = small_graph(3, n=2, size=4)
    t = achieved_extension_level(h, 5) + 1
    v = find_extension_violation(h, t)
    assert v is not None
    j, a0, a1, (lo, hi) = v
    size = h.part_sizes[j]
    inside = range(0 if lo is None else lo + 1, size if hi is None else hi)

    def relates(b, a):
        return ((b, a[0]) if j == 0 else (a[0], b)) in h.edges

    for b in inside:
        realized = all(relates(b, a) for a in a0) and not any(relates(b, a) for a in a1)
        assert not realized


def _every_graph(n: int, size: int):
    cells = list(product(range(size), repeat=n))
    for mask in range(1 << len(cells)):
        edges = frozenset(c for i, c in enumerate(cells) if mask >> i & 1)
        yield mask, PartiteHypergraph(n, (size,) * n, edges)


@pytest.mark.parametrize("n, size", [(1, 7), (2, 3)])
def test_every_small_graph_violates_as_the_reference_says(n, size):
    for _, h in _every_graph(n, size):
        for t in (1, 2, 3):
            v = find_extension_violation(h, t)
            assert (v is None) == ref_extension_ok(h, t)
            if v is None:
                continue
            j, a0, a1, (lo, hi) = v
            assert len(a0) + len(a1) + (lo is not None) + (hi is not None) <= t
            inside = range(0 if lo is None else lo + 1, size if hi is None else hi)
            assert inside

            def relates(b, a):
                return (*a[:j], b, *a[j:]) in h.edges

            assert not any(
                all(relates(b, a) for a in a0) and not any(relates(b, a) for a in a1)
                for b in inside
            )


# (n, size, mask, t): the first violation, as the check has always returned it
FIRST_VIOLATIONS = {
    (1, 7, 1, 2): (0, (), ((),), (None, 1)),
    (1, 7, 2, 2): (0, ((),), (), (None, 1)),
    (2, 3, 454, 2): (0, ((0,),), ((1,),), (None, None)),
    (2, 3, 167, 2): (0, (), ((1,), (2,)), (None, None)),
    (2, 3, 490, 3): (0, (), ((0,), (1,)), (None, None)),
    (2, 3, 453, 1): (1, (), ((2,),), (None, None)),
}


def test_first_violation_is_pinned():
    for (n, size, mask, t), want in FIRST_VIOLATIONS.items():
        h = dict(_every_graph(n, size))[mask]
        assert find_extension_violation(h, t) == want


def test_generation_deterministic_and_verified():
    eh = gen_extension_hypergraph(2, 10, 1, seed=7)
    eh2 = gen_extension_hypergraph(2, 10, 1, seed=7)
    assert eh.to_json() == eh2.to_json()
    assert check_extension_level(eh.base, 1)
    assert eh.t == 1 and eh.seed == 7


def test_generation_single_part_gives_dense_codense():
    eh = gen_extension_hypergraph(1, 6, 1, seed=3)
    present = {t[0] for t in eh.base.edges}
    assert present and present != set(range(6))


def test_generation_refusal_carries_best_level():
    with pytest.raises(GenerationError) as exc:
        gen_extension_hypergraph(2, 2, 2, seed=0, retries=4)
    assert exc.value.best_t >= -1
    with pytest.raises(InputError):
        gen_extension_hypergraph(0, 3, 1, seed=0)
    with pytest.raises(InputError):
        gen_extension_hypergraph(2, 3, -1, seed=0)


def test_generation_zero_retries_refuses():
    with pytest.raises(GenerationError) as exc:
        gen_extension_hypergraph(2, 6, 1, seed=4, retries=0)
    assert exc.value.best_t == -1
    assert str(exc.value) == "no sample passed level 1 within 0 attempts"
    with pytest.raises(InputError, match="retries nonnegative"):
        gen_extension_hypergraph(2, 6, 1, seed=4, retries=-1)


def test_generation_refuses_a_non_integer_argument_before_sampling():
    # refused before any attempt: a float seed is not left to the sampled result
    for args in [
        (2, 8, 2, 1.5), (2.0, 4, 1, 1), (2, 4.0, 1, 1), (2, 4, True, 1), (2, 4, 1, 1, 0.5),
    ]:
        with pytest.raises(InputError) as exc:
            gen_extension_hypergraph(*args)
        assert str(exc.value) == "n, part_size, t, retries and seed must be integers"


def test_extension_json_round_trip():
    eh = gen_extension_hypergraph(2, 6, 0, seed=5)
    again = ExtensionHypergraph.from_json(eh.to_json())
    assert again == eh
    with pytest.raises(InputError):
        ExtensionHypergraph.from_json("{}")


def test_a_sample_labels_its_hypergraph():
    h = PartiteHypergraph(2, (2, 3), {(0, 2)})
    eh = ExtensionHypergraph(h, 1, 7)
    assert eh.base is h and eh.base is eh.base
    assert (eh.t, eh.seed) == (1, 7)
    assert eh != h and h != eh and not isinstance(eh, PartiteHypergraph)
    sample = gen_extension_hypergraph(2, 6, 0, seed=5)
    assert type(sample.base) is PartiteHypergraph and sample.base is sample.base


def test_a_sample_checks_its_fields():
    # each of these used to build a sample whose document its own reader
    # refuses, or whose to_json ends in a traceback
    h = PartiteHypergraph(1, [2], [[0]])
    for args, message in [
        ((None, 1, 2), "base must be a PartiteHypergraph"),
        ((h.to_json(), 1, 2), "base must be a PartiteHypergraph"),
        ((h, -1, 2), "t must be a nonnegative integer"),
        ((h, True, 2), "t must be a nonnegative integer"),
        ((h, 1.0, 2), "t must be a nonnegative integer"),
        ((h, 1, "x"), "seed must be an integer"),
        ((h, 1, 2.0), "seed must be an integer"),
    ]:
        with pytest.raises(InputError) as exc:
            ExtensionHypergraph(*args)
        assert str(exc.value) == message
    assert ExtensionHypergraph(h, 0, -3).to_json().endswith('"seed": -3, "t": 0}')


# --- V-adjacency ---------------------------------------------------------------


def test_v_adjacency_hand_instance():
    h = PartiteHypergraph(
        2, (4, 4), frozenset({(0, 0), (1, 1), (2, 2), (0, 2), (3, 3)})
    )
    v = [(1, 2)]
    # g = ((0,0),(1,0)): edge (0,0) absent? (0,0) in edges -> True
    # move part-0 vertex 0 -> 1: edge (1,0) absent -> flip; mixed (x,2): (0,2) in, (1,2) out
    w = [(0, 0), (1, 0), (1, 2)]
    wp = [(0, 1), (1, 0), (1, 2)]
    assert not is_v_adjacent(h, w, wp, v)  # mixed edge (.,2) disagrees
    h2 = PartiteHypergraph(2, (4, 4), frozenset({(0, 0), (0, 2), (1, 2)}))
    assert is_v_adjacent(h2, w, wp, v)


def test_v_adjacency_requires_order_match():
    h = PartiteHypergraph(2, (4, 4), frozenset({(0, 0)}))
    v = [(0, 1)]
    w = [(0, 0), (1, 0), (0, 1)]
    wp = [(0, 2), (1, 0), (0, 1)]  # moved vertex jumps across the V vertex
    assert not is_v_adjacent(h, w, wp, v)


def test_v_adjacency_validation():
    h = PartiteHypergraph(2, (3, 3), frozenset())
    with pytest.raises(InputError):
        is_v_adjacent(h, [(0, 0)], [(0, 1)], [])  # too short
    with pytest.raises(InputError):
        is_v_adjacent(h, [(0, 0), (1, 0), (0, 2)], [(0, 1), (1, 0), (0, 1)], [(0, 2)])
    with pytest.raises(InputError):
        is_v_adjacent(h, [(1, 0), (0, 0)], [(1, 0), (0, 1)], [])  # parts out of order


@pytest.mark.parametrize("n", [2, 3])
def test_v_adjacency_matches_reference(n):
    verdicts, meets = [], 0
    for seed in range(300):
        h, v, g, gp = random_v_instance(seed, n)
        w = [(p, i) for p, i in enumerate(g)] + v
        wp = [(p, i) for p, i in enumerate(gp)] + v
        want = ref_dichotomy(h, v, g, gp)
        assert dichotomy_verdict(h, v, g, gp) == want, seed
        assert is_v_adjacent(h, w, wp, v) == ref_v_adjacent(h, w, wp, v), seed
        verdicts.append(want)
        meets += any(x in v for x in enumerate(g)) or any(x in v for x in enumerate(gp))
    for verdict in (None, "iso", "adjacent"):
        assert verdicts.count(verdict) >= 20
    assert meets >= 10


@pytest.mark.parametrize("n", [2, 3])
def test_v_window_matches_reference_on_repeated_and_reversed_v(n):
    # V as given, with a repeated vertex, and in reverse: the window rule
    # must still refuse a repeat, and V's order must not matter
    verdicts = {"given": [], "repeat": [], "reversed": []}
    for seed in range(1500):
        h, v, g, gp = random_v_instance(seed, n)
        for name, vs in (("given", v), ("repeat", v + v[:1]), ("reversed", v[::-1])):
            w = [*enumerate(g), *vs]
            wp = [*enumerate(gp), *vs]
            want = ref_dichotomy(h, vs, g, gp)
            assert dichotomy_verdict(h, vs, g, gp) == want, (seed, name)
            assert is_v_adjacent(h, w, wp, vs) == ref_v_adjacent(h, w, wp, vs), (seed, name)
            verdicts[name].append(want)
    assert verdicts["repeat"] == [None] * 1500
    assert verdicts["reversed"] == verdicts["given"]
    for verdict in ("iso", "adjacent"):
        assert verdicts["given"].count(verdict) >= 100


def test_dichotomy_verdict_checks_both_ends():
    h = PartiteHypergraph(2, (3, 3), frozenset({(1, 0)}))
    # V holds the reference edge's part-0 vertex: no verdict, as in is_v_adjacent
    assert dichotomy_verdict(h, [(0, 1)], (1, 0), (2, 0)) is None
    assert not is_v_adjacent(h, [(0, 1), (1, 0), (0, 1)], [(0, 2), (1, 0), (0, 1)], [(0, 1)])
    for g, cross in [((1, 0), (2,)), ((1,), (2, 0)), ((1, 0), (2, 3)), ((-1, 0), (2, 0))]:
        with pytest.raises(InputError):
            dichotomy_verdict(h, [(0, 2)], g, cross)


VERTEX_CALLS = {
    "adjacency_walk": lambda h, x: adjacency_walk(h, [x, (1, 0)], [(0, 1), (1, 0)]),
    "dichotomy_verdict": lambda h, x: dichotomy_verdict(h, [x], (1, 0), (2, 0)),
    "is_v_adjacent": lambda h, x: is_v_adjacent(
        h, [(0, 0), (1, 0), x], [(0, 1), (1, 0), x], [x]
    ),
    "random_subgraph": lambda h, x: random_subgraph(h, [x], (1, 0), 1),
    "step_certificate": lambda h, x: step_certificate(h, [x, (1, 0)], [(0, 1), (1, 0)]),
}


@pytest.mark.parametrize("vertex", [(0,), (), (0, 1, 2), 0, "01", (0.5, 1), (True, 0)])
@pytest.mark.parametrize("entry", sorted(VERTEX_CALLS))
def test_vertex_not_a_pair_is_input_error(entry, vertex):
    h = PartiteHypergraph(2, (3, 3), frozenset({(1, 0)}))
    with pytest.raises(InputError, match=r"is not a \[part, index\] pair"):
        VERTEX_CALLS[entry](h, vertex)


@pytest.mark.parametrize("g", [("1", 0.0), ("1", 0), (1.0, 0), (1, 0.0), (True, 0), (1, False)])
def test_reference_edge_coordinates_are_checked(g):
    # int() read ("1", 0.0) as the edge (1, 0) and answered [[1], [0]]
    h = PartiteHypergraph(2, (3, 3), frozenset({(1, 0)}))
    assert random_subgraph(h, [], (1, 0), 1) == [[1], [0]]
    with pytest.raises(InputError, match=r"is not a \[part, index\] pair"):
        random_subgraph(h, [], g, 1)


def test_reference_edge_coordinates_in_range():
    h = PartiteHypergraph(2, (3, 3), frozenset({(1, 0)}))
    with pytest.raises(InputError, match="leaves the hypergraph"):
        random_subgraph(h, [], (1, 3), 1)
    with pytest.raises(InputError, match="one vertex per part"):
        random_subgraph(h, [], (1,), 1)


# --- walks ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_walks_on_generated_graphs(seed):
    eh = gen_extension_hypergraph(2, 24, 1, seed=100 + seed)
    h = eh.base
    rng = random.Random(seed)
    p0 = sorted(rng.sample(range(24), 2))
    p1 = sorted(rng.sample(range(24), 2))
    q0 = sorted(rng.sample(range(24), 2))
    q1 = sorted(rng.sample(range(24), 2))
    w = [(0, p0[0]), (1, p1[0]), (0, p0[1]), (1, p1[1])]
    wp = [(0, q0[0]), (1, q1[0]), (0, q0[1]), (1, q1[1])]
    start = walk_discrepancies(h, w, wp)
    steps = adjacency_walk(h, w, wp)
    assert len(steps) - 1 == len(start)
    assert walk_discrepancies(h, steps[-1], wp) == []
    for a, b in zip(steps, steps[1:]):
        cert = step_certificate(h, a, b)  # raises unless the step is V-adjacent
        assert len(cert.v) == len(a) - h.n


def _reference_walk(h, w, w_prime):
    """(steps, stuck positions or None): recompute the discrepancies after every
    step and take the first single-vertex move that certifies as a step."""
    steps = [list(w)]
    while pending := walk_discrepancies(h, steps[-1], w_prime):
        cur, positions = steps[-1], pending[0]
        v = tuple(cur[i] for i in range(len(cur)) if i not in positions)
        moves = (
            cur[:pos] + [(p, b)] + cur[pos + 1 :]
            for pos in positions
            for p in [cur[pos][0]]
            for b in range(h.part_sizes[p])
            if (p, b) not in cur
        )
        for new in moves:
            try:
                if step_certificate(h, cur, new).v == v:
                    break
            except InputError:
                continue
        else:
            return steps, positions
        steps.append(new)
    return steps, None


def test_three_part_walks_fix_each_discrepancy_once():
    finished = stuck = multi = 0
    for seed in range(80):
        h = gen_extension_hypergraph(3, 12, 1, seed=200 + seed).base
        rng = random.Random(seed)
        # two vertices per part, listed as in the two-part walk test
        cols = [[sorted(rng.sample(range(12), 2)) for _ in range(3)] for _ in range(2)]
        w, wp = ([(p, c[p][k]) for k in range(2) for p in range(3)] for c in cols)
        start = walk_discrepancies(h, w, wp)
        want, stuck_at = _reference_walk(h, w, wp)
        if stuck_at is not None:
            assert stuck_at in start
            with pytest.raises(WalkStuckError) as exc:
                adjacency_walk(h, w, wp)
            assert exc.value.discrepancy == tuple(want[-1][i] for i in stuck_at)
            stuck += 1
            continue
        steps = adjacency_walk(h, w, wp)
        assert steps == want
        assert len(steps) - 1 == len(start)
        assert walk_discrepancies(h, steps[-1], wp) == []
        for a, b in zip(steps, steps[1:]):
            step_certificate(h, a, b)
        finished += 1
        multi += len(start) >= 2
    # about 3 in 10 walks finish at m = 12; most of those take several steps
    assert finished >= 20 and multi >= 15 and stuck >= 40


def test_walk_zero_discrepancies_is_identity():
    h = small_graph(1, size=4)
    w = [(0, 0), (1, 1)]
    steps = adjacency_walk(h, w, list(w))
    assert steps == [list(w)]


def test_walk_validation():
    h = small_graph(1, size=4)
    with pytest.raises(InputError):
        adjacency_walk(h, [(0, 0), (1, 0)], [(0, 0)])
    with pytest.raises(InputError):
        adjacency_walk(h, [(0, 0), (1, 0)], [(1, 0), (0, 0)])  # parts differ
    with pytest.raises(InputError):
        adjacency_walk(
            h, [(0, 0), (0, 1), (1, 0)], [(0, 1), (0, 0), (1, 0)]
        )  # order pattern differs


def test_walk_stuck_when_no_move_flips():
    # every single-vertex move keeps the edge present, but the target
    # pattern needs it absent
    h = PartiteHypergraph(2, (2, 2), frozenset({(0, 0), (1, 0), (0, 1)}))
    with pytest.raises(WalkStuckError) as exc:
        adjacency_walk(h, [(0, 0), (1, 0)], [(0, 1), (1, 1)])
    assert exc.value.discrepancy == ((0, 0), (1, 0))


def test_step_certificate_validation():
    h = small_graph(2, size=5)
    with pytest.raises(InputError):
        step_certificate(h, [(0, 0), (1, 0)], [(0, 1), (1, 1)])  # two moves
    with pytest.raises(InputError):
        step_certificate(h, [(0, 0), (1, 0)], [(0, 0), (1, 0)])  # no move
    with pytest.raises(InputError, match="share one length"):
        step_certificate(h, [(0, 0), (1, 0)], [(0, 0)])
    with pytest.raises(InputError, match="agree on parts"):
        step_certificate(h, [(0, 0), (1, 0)], [(1, 1), (1, 0)])  # the move leaves part 0


@pytest.mark.parametrize(
    "w, w_prime, message",
    [
        ([(0, 0), (1, 0)], [(0, 0)], "share one length"),
        ([(0, 0), (1, 0)], [(1, 0), (1, 1)], "agree on parts"),
        ([(0, 7), (1, 0)], [(0, 1), (1, 0)], "leaves the hypergraph"),
    ],
    ids=["length", "parts", "range"],
)
def test_walk_discrepancies_checks_its_lists(w, w_prime, message):
    h = PartiteHypergraph(2, (3, 3), frozenset({(1, 0)}))
    with pytest.raises(InputError, match=message):
        walk_discrepancies(h, w, w_prime)


# --- subgraph selection ---------------------------------------------------------


def test_random_subgraph_dichotomy_exhaustive():
    eh = gen_extension_hypergraph(2, 26, 1, seed=5)
    h = eh.base
    g = next(e for e in sorted(h.edges) if 8 <= e[0] <= 18 and 8 <= e[1] <= 18)
    v = [(0, 2), (0, 23), (1, 3), (1, 22)]
    sel = random_subgraph(h, v, g, s=2, t_prime=0)
    assert all(len(part) == 2 for part in sel)
    assert g[0] in sel[0] and g[1] in sel[1]
    verdicts = {
        dichotomy_verdict(h, v, g, cross) for cross in product(*sel)
    }
    assert None not in verdicts
    assert "iso" in verdicts  # the reference edge itself


def test_random_subgraph_validation_and_stuck():
    h = PartiteHypergraph(2, (3, 3), frozenset({(1, 1)}))
    with pytest.raises(InputError):
        random_subgraph(h, [], (0, 0), 1)  # not an edge
    with pytest.raises(InputError):
        random_subgraph(h, [(0, 1)], (1, 1), 1)  # V meets the edge
    # the window around g is closed off by V on both sides: selection stuck
    with pytest.raises(SelectionStuckError) as exc:
        random_subgraph(h, [(0, 0), (0, 2)], (1, 1), 2)
    assert exc.value.constraints["part"] == 0


def test_random_subgraph_refuses_repeated_v():
    h = PartiteHypergraph(2, (4, 4), frozenset({(1, 1)}))
    # a repeated V vertex is malformed input, not a failed self-check
    with pytest.raises(InputError, match="repeat"):
        random_subgraph(h, [(0, 3), (0, 3)], (1, 1), 1)
    assert random_subgraph(h, [(0, 3)], (1, 1), 1) == [[1], [1]]
    assert dichotomy_verdict(h, [(0, 3), (0, 3)], (1, 1), (1, 1)) is None


def test_random_subgraph_level_check_failure():
    # a selection whose induced subgraph misses level 1: all edges present
    full = PartiteHypergraph(2, (4, 4), frozenset(product(range(4), range(4))))
    with pytest.raises(GenerationError):
        random_subgraph(full, [], (0, 0), 3, t_prime=1)


# --- diagonal ------------------------------------------------------------------


def test_diagonal_hypergraph_example():
    h = PartiteHypergraph(2, (4, 4), frozenset({(0, 1), (2, 3), (3, 2)}))
    d = diagonal_hypergraph(h)
    assert d.size == 4 and d.part_sizes is None
    # only increasing index tuples count: (3,2) is skipped
    assert d.relations == {"R": Relation(2, {(0, 1), (2, 3)})}


def test_diagonal_requires_equal_parts():
    with pytest.raises(InputError):
        diagonal_hypergraph(PartiteHypergraph(2, (2, 3), frozenset()))


def test_diagonal_three_parts():
    h = PartiteHypergraph(3, (3, 3, 3), frozenset({(0, 1, 2), (0, 2, 1)}))
    d = diagonal_hypergraph(h)
    assert d.relations == {"R": Relation(3, {(0, 1, 2)})}


H22 = PartiteHypergraph(2, (2, 2), [(0, 0), (1, 1)])
# Refusals that no other in-process test reaches, each with its message.
REFUSALS = [
    (lambda: PartiteHypergraph(2, (3,), []), "need one positive size per part"),
    (lambda: find_extension_violation(H22, -1), "extension level must be nonnegative"),
    (
        lambda: adjacency_walk(H22, [(0, 0), (0, 0)], [(0, 1), (0, 1)]),
        "vertex lists must be duplicate-free",
    ),
    (lambda: random_subgraph(H22, [], (0, 0), 0), "per-part size must be positive"),
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_refusal_messages(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


def test_no_level_below_zero():
    assert achieved_extension_level(H22, -1) == -1

"""Formulas, definable families, and type counting.

The central checks: the definable family's trace on a box and the
formula's type count over the same box are the same number, and the
whole-system invariants (dimension, shatter function) transfer.
"""

import random
from itertools import combinations, product

import pytest

from instance_gen import (
    member_sets,
    random_formula,
    random_ordered,
    random_structure,
    ref_encodes,
    ref_eval,
    ref_indiscernible,
    ref_pi_phi,
    ref_trace,
    ref_types,
)
from vcn import (
    BudgetExceededError,
    FiniteStructure,
    IndexedFamily,
    InputError,
    PartiteHypergraph,
    QfFormula,
    Relation,
    RelStructure,
    build_counterexample_structure,
    check_encodes,
    check_indiscernible,
    conjoin,
    count_types,
    dim_phi,
    eval_formula,
    format_formula,
    negate,
    parse_formula,
    permute_blocks,
    phi_class,
    pi_phi,
    shatter_fn,
    vc_n_dim,
    verify_ipn_witness,
    zarankiewicz,
)


def edge_formula(n: int = 2) -> QfFormula:
    names = " ".join(f"y{k}" for k in range(n))
    return parse_formula(f"(R x {names})", (1,) * (n + 1))


def test_parse_format_round_trip():
    text = "(and (R x y0) (not (= x y0)))"
    phi = parse_formula(text, (1, 1))
    assert format_formula(phi) == text
    again = parse_formula(format_formula(phi), phi.block_lengths)
    assert again == phi


def test_parse_component_suffixes():
    phi = parse_formula("(or (E x.0 x.1) (= x.1 y0.2))", (2, 3))
    assert "x.1" in format_formula(phi)
    s = random_structure(1, domain=3, signature=(("E", 2),))
    assert isinstance(eval_formula(s, phi, ((0, 1), (2, 0, 1))), bool)


def test_parse_rejects_malformed():
    for text in [
        "(R x y0",  # unbalanced
        "(R x",
        "(R x y1)",  # undeclared block
        "(= x.1 y0)",  # component out of range
        "(R x.a y0)",  # component not a number
        "(R x y0) y0",  # trailing tokens
        "",
        ")",
        "(R z)",  # unknown variable
        "(R x y\u00b2)",  # a superscript is not a block number
        "(not (R x y0) (R x y0))",
        "(and)",
    ]:
        with pytest.raises(InputError):
            parse_formula(text, (1, 1))
    with pytest.raises(InputError):
        QfFormula((1,), ("atom", "R", ((0, 0),)))  # no parameter block


@pytest.mark.parametrize(
    "body",
    [
        ("eq", (0, 0)),
        ("eq", (0, 0), (1, 0), (1, 0)),
        ("eq", (0, 0), (-1, 0)),
        ("eq", (0, 0), (1, "0")),
        ("atom", "R"),
        ("atom", "R", 5),
        ("atom", "R", ((0,),)),
        ("not", ("atom", "R", ((0, 0), [1, 0]))),
    ],
)
def test_malformed_ast_is_input_error(body):
    with pytest.raises(InputError):
        QfFormula((1, 1), body)


def test_eval_formula_on_known_structure():
    s = FiniteStructure(3, {"R": Relation(2, frozenset({(0, 1), (1, 2)}))})
    phi = parse_formula("(R x y0)", (1, 1))
    assert eval_formula(s, phi, ((0,), (1,)))
    assert not eval_formula(s, phi, ((1,), (0,)))
    assert eval_formula(s, negate(phi), ((1,), (0,)))
    both = conjoin(phi, parse_formula("(not (= x y0))", (1, 1)))
    assert eval_formula(s, both, ((0,), (1,)))
    with pytest.raises(InputError):
        eval_formula(s, phi, ((0,), (3,)))
    with pytest.raises(InputError):
        eval_formula(s, parse_formula("(Q x y0)", (1, 1)), ((0,), (0,)))


def test_unknown_relation_arity_checked():
    s = FiniteStructure(2, {"R": Relation(2, frozenset())})
    with pytest.raises(InputError):
        eval_formula(s, parse_formula("(R x y0 y0)", (1, 1)), ((0,), (0,)))


@pytest.mark.parametrize("seed", range(25))
def test_phi_class_members_match_direct_evaluation(seed):
    s = random_structure(seed, domain=3, signature=(("R", 2),))
    phi = edge_formula(1)
    system = phi_class(s, phi)
    assert system.universe.part_sizes == (3,)
    # rebuild the member sets by brute evaluation
    want = set()
    for b in range(3):
        member = frozenset((y,) for y in range(3) if s.holds("R", (b, y)))
        want.add(member)
    from instance_gen import member_sets

    got = {frozenset(t) for t in member_sets(system)}
    assert got == want


@pytest.mark.parametrize("seed", range(60))
def test_count_types_equals_trace_cardinality(seed):
    """Types over a box and the trace on the same box are in bijection."""
    rng = random.Random(seed)
    n = rng.choice([1, 2])
    domain = rng.randint(2, 4)
    s = random_structure(seed, domain=domain, signature=(("R", n + 1),))
    phi = edge_formula(n)
    system = phi_class(s, phi)
    m = rng.randint(1, min(2, domain))
    boxes = tuple(
        tuple((v,) for v in sorted(rng.sample(range(domain), m))) for _ in range(n)
    )
    tc = count_types(s, [phi], boxes)
    selections = tuple(tuple(t[0] for t in box) for box in boxes)
    assert tc.count == len(ref_trace(system, selections))


@pytest.mark.parametrize("seed", range(30))
def test_pi_phi_equals_shatter_fn(seed):
    rng = random.Random(seed + 1000)
    n = rng.choice([1, 2])
    domain = rng.randint(2, 3) if n == 2 else rng.randint(2, 4)
    s = random_structure(seed, domain=domain, signature=(("R", n + 1),))
    phi = edge_formula(n)
    system = phi_class(s, phi)
    for m in range(1, domain + 1):
        assert pi_phi(s, [phi], m) == shatter_fn(system, m)
    assert dim_phi(s, phi) == vc_n_dim(system)


# Block shapes, from one object and one parameter block to pair blocks.
SHAPES = [(1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 1, 1), (1, 2, 1)]
SIGNATURE = (("R", 3), ("S", 2))


def random_instance(seed: int):
    """A seeded structure and a delta of one or two random formulas."""
    rng = random.Random(seed)
    lengths = SHAPES[seed % len(SHAPES)]
    domain = 2 if sum(lengths) > 3 else rng.randint(2, 3)
    structure = random_structure(seed, domain=domain, signature=SIGNATURE)
    delta = [random_formula(rng, lengths, SIGNATURE) for _ in range(1 + seed % 2)]
    return rng, structure, delta


@pytest.mark.parametrize("seed", range(48))
def test_type_counting_matches_pointwise_evaluation(seed):
    rng, structure, delta = random_instance(seed)
    lengths = delta[0].block_lengths
    spaces = [list(product(range(structure.domain_size), repeat=l)) for l in lengths[1:]]
    for m in range(3):
        if m <= min(map(len, spaces)):
            assert pi_phi(structure, delta, m) == ref_pi_phi(structure, delta, m)
    for _ in range(3):
        boxes = [rng.sample(space, rng.randint(0, min(3, len(space)))) for space in spaces]
        assert count_types(structure, delta, boxes).count == len(ref_types(structure, delta, boxes))
        grid = [rng.sample(space, rng.randint(1, min(2, len(space)))) for space in spaces]
        cells = len(list(product(*grid)))
        want = len(ref_types(structure, delta[:1], grid)) == 1 << cells
        assert verify_ipn_witness(structure, delta[0], grid) == want
    # phi_class: one member per object tuple, the cells where phi holds
    objects = product(range(structure.domain_size), repeat=lengths[0])
    want = {
        frozenset(
            tuple(space.index(t) for space, t in zip(spaces, cell))
            for cell in product(*spaces)
            if ref_eval(structure, delta[0], (b, *cell))
        )
        for b in objects
    }
    assert set(member_sets(phi_class(structure, delta[0]))) == want


def test_random_formulas_cover_every_node():
    bodies = [str(phi) for seed in range(48) for phi in random_instance(seed)[2]]
    assert any("(not" in f for f in bodies)
    assert any("(=" in f for f in bodies)
    assert any("(and" in f for f in bodies) and any("(or" in f for f in bodies)
    # an atom repeating a variable, such as (R x y0 y0)
    assert any(
        len(set(atom.split()[1:])) < len(atom.split()[1:])
        for f in bodies
        for atom in f.replace(")", "").split("(")
        if atom.startswith(("R ", "S "))
    )
    assert any(len(random_instance(seed)[2]) == 2 for seed in range(48))


@pytest.mark.parametrize("seed", range(48))
def test_eval_formula_matches_reference(seed):
    _, structure, delta = random_instance(seed)
    for phi in delta:
        spaces = [product(range(structure.domain_size), repeat=l) for l in phi.block_lengths]
        for assignment in product(*spaces):
            assert eval_formula(structure, phi, assignment) == ref_eval(structure, phi, assignment)


def test_type_counting_errors_keep_their_messages():
    s = random_structure(0, domain=3, signature=SIGNATURE)
    phi = parse_formula("(S x y0)", (1, 1))
    with pytest.raises(InputError, match="box size 4 exceeds a parameter tuple space"):
        pi_phi(s, [phi], 4)
    with pytest.raises(InputError, match="box size must be nonnegative"):
        pi_phi(s, [phi], -1)
    with pytest.raises(InputError, match="delta must contain at least one formula"):
        pi_phi(s, [], 1)
    with pytest.raises(InputError, match="all formulas in delta must share block lengths"):
        pi_phi(s, [phi, parse_formula("(S x y0)", (1, 2))], 1)
    unknown = parse_formula("(and (S x y0) (Q x y0))", (1, 1))
    wrong_arity = parse_formula("(R x y0)", (1, 1))
    h = PartiteHypergraph(2, (1, 1), frozenset())
    fam = IndexedFamily(h, {(0, 0): (0,), (1, 0): (1,)})
    for bad, message in ((unknown, "unknown relation Q"), (wrong_arity, "expects arity 3, got 2")):
        for call in (
            lambda: pi_phi(s, [phi, bad], 0),
            lambda: phi_class(s, bad),
            lambda: count_types(s, [bad], [[]]),
            lambda: verify_ipn_witness(s, bad, [[(0,)]]),
            lambda: dim_phi(s, bad),
            lambda: eval_formula(s, bad, ((0,), (1,))),
            lambda: check_encodes(s, bad, fam, h),
            lambda: check_indiscernible(fam, {"order"}, s, [phi, bad], 1),
        ):
            with pytest.raises(InputError, match=message):
                call()
    # a missing vertex or a wrong tuple length is reported before the relations are read
    short = IndexedFamily(h, {(0, 0): (0,)})
    pairs = IndexedFamily(h, {(0, 0): (0, 0), (1, 0): (1, 1)})
    for call, message in (
        (lambda: eval_formula(s, unknown, ((0,),)), "assignment must cover every block"),
        (lambda: eval_formula(s, unknown, ((0, 0), (1,))), r"block tuple \(0, 0\) does not match"),
        (lambda: eval_formula(s, unknown, ((0,), (3,))), r"assignment \(3,\) leaves the domain"),
        (lambda: check_encodes(s, unknown, short, h), r"vertex \(1,0\) has no indexed tuple"),
        (lambda: check_encodes(s, unknown, pairs, h), "indexed tuple length must match"),
        (
            lambda: check_indiscernible(short, {"order"}, s, [unknown], 1),
            r"index vertex \(1, 0\) has no tuple",
        ),
        (
            lambda: check_indiscernible(pairs, {"order"}, s, [unknown], 1),
            "delta block lengths must match the indexed tuple length",
        ),
    ):
        with pytest.raises(InputError, match=message):
            call()


def test_counterexample_dimension_and_shatter_value():
    """The definable family of the (2, 3) counterexample: dimension 1
    uncapped, and a 2 x 2 box realizes 2**(z(2,2,2) - 1) = 8 types."""
    structure = build_counterexample_structure((2, 3))
    phi = parse_formula("(R x y0 y1)", (1, 1, 1))
    assert dim_phi(structure, phi) == 1
    assert pi_phi(structure, [phi], 2) == 8 == 1 << (zarankiewicz(2, 2, 2).z - 1)


def test_dim_phi_size_cap():
    s = random_structure(1, domain=4, signature=(("R", 2),))
    phi = edge_formula(1)
    assert dim_phi(s, phi) == 2
    for cap in range(4):
        assert dim_phi(s, phi, cap) == min(2, cap)
    with pytest.raises(InputError):
        dim_phi(s, phi, -1)


@pytest.mark.parametrize("seed", range(20))
def test_negation_preserves_pi(seed):
    s = random_structure(seed, domain=3, signature=(("R", 3),))
    phi = edge_formula(2)
    for m in (1, 2):
        assert pi_phi(s, [phi], m) == pi_phi(s, [negate(phi)], m)


@pytest.mark.parametrize("seed", range(20))
def test_conjunction_and_set_bounds(seed):
    s = random_structure(seed, domain=3, signature=(("R", 2), ("S", 2)))
    phi = parse_formula("(R x y0)", (1, 1))
    psi = parse_formula("(S x y0)", (1, 1))
    for m in (1, 2):
        p_and = pi_phi(s, [conjoin(phi, psi)], m)
        p_set = pi_phi(s, [phi, psi], m)
        p1, p2 = pi_phi(s, [phi], m), pi_phi(s, [psi], m)
        assert p_and <= p_set <= p1 * p2


@pytest.mark.parametrize("seed", range(15))
def test_parameter_block_permutation_invariance(seed):
    s = random_structure(seed, domain=3, signature=(("R", 3),))
    phi = edge_formula(2)
    swapped = permute_blocks(phi, (0, 2, 1))
    assert dim_phi(s, phi) == dim_phi(s, swapped)
    for m in (1, 2):
        assert pi_phi(s, [phi], m) == pi_phi(s, [swapped], m)


def test_permute_blocks_remaps_every_node():
    phi = parse_formula("(or (not (R x y0 y1)) (= y0.1 y1))", (1, 2, 1))
    swapped = permute_blocks(phi, (0, 2, 1))
    assert swapped.block_lengths == (1, 1, 2)
    assert format_formula(swapped) == "(or (not (R x y1 y0)) (= y1.1 y0))"


def test_permute_blocks_validation():
    phi = edge_formula(2)
    with pytest.raises(InputError):
        permute_blocks(phi, (1, 0, 2))  # object block must stay put
    with pytest.raises(InputError):
        permute_blocks(phi, (0, 1, 1))


def test_count_types_multi_formula_delta():
    s = random_structure(3, domain=3, signature=(("R", 2), ("S", 2)))
    phi = parse_formula("(R x y0)", (1, 1))
    psi = parse_formula("(S x y0)", (1, 1))
    box = (((0,), (1,)),)
    single = count_types(s, [phi], box).count
    double = count_types(s, [phi, psi], box).count
    assert single <= double <= 1 << 4


def test_count_types_validation():
    s = random_structure(0, domain=3)
    phi = parse_formula("(R x y0)", (1, 1))
    with pytest.raises(InputError):
        count_types(s, [phi], (((0,), (0,)),))  # repeated tuple
    with pytest.raises(InputError):
        count_types(s, [phi], ())  # wrong box count
    with pytest.raises(InputError):
        count_types(s, [], (((0,),),))


def test_verify_ipn_witness_positive_and_negative():
    # two parameter points, one object element per 0/1 pattern: 4 patterns
    tuples = set()
    # elements 0..3 encode patterns over parameter pair (4, 5)
    for b, pat in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        for j, bit in enumerate(pat):
            if bit:
                tuples.add((b, 4 + j))
    s = FiniteStructure(6, {"R": Relation(2, frozenset(tuples))})
    phi = parse_formula("(R x y0)", (1, 1))
    assert verify_ipn_witness(s, phi, [[(4,), (5,)]])
    # dropping element 3 removes the (1,1) pattern
    s2 = FiniteStructure(6, {"R": Relation(2, frozenset(t for t in tuples if t[0] != 3))})
    assert not verify_ipn_witness(s2, phi, [[(4,), (5,)]])
    with pytest.raises(BudgetExceededError):
        verify_ipn_witness(s, phi, [[(0,), (1,), (2,), (3,), (4,), (5,)]], budget=8)
    with pytest.raises(InputError):
        verify_ipn_witness(s, phi, [[(4,), (4,)]])


def test_structure_json_round_trip():
    s = random_structure(9, domain=4, signature=(("R", 2), ("S", 3)))
    assert FiniteStructure.from_json(s.to_json()) == s
    with pytest.raises(InputError):
        FiniteStructure.from_json("{}")


# --- indexed families over hypergraphs --------------------------------------


def test_check_encodes_on_label_structure():
    """Vertices labeled by domain elements; phi reads off the edge relation."""
    h = PartiteHypergraph(2, (2, 2), frozenset({(0, 1), (1, 0)}))
    s = FiniteStructure(4, {"E": Relation(2, frozenset({(0, 3), (1, 2)}))})
    fam = IndexedFamily(
        h, {(0, 0): (0,), (0, 1): (1,), (1, 0): (2,), (1, 1): (3,)}
    )
    phi = parse_formula("(E x y0)", (1, 1))
    assert check_encodes(s, phi, fam, h)
    # flip one edge: the encoding must fail
    h2 = PartiteHypergraph(2, (2, 2), frozenset({(0, 1), (1, 1)}))
    assert not check_encodes(s, phi, fam, h2)


def test_check_encodes_validation():
    h = PartiteHypergraph(2, (2, 2), frozenset())
    s = FiniteStructure(2, {"E": Relation(2, frozenset())})
    phi = parse_formula("(E x y0)", (1, 1))
    with pytest.raises(InputError):
        check_encodes(s, phi, IndexedFamily(h, {(0, 0): (0,)}), h)


def test_check_indiscernible_positive():
    # all tuples equal: every delta type collapses, any reduct works
    h = PartiteHypergraph(2, (2, 2), frozenset({(0, 0)}))
    fam = IndexedFamily(h, {v: (0,) for v in [(0, 0), (0, 1), (1, 0), (1, 1)]})
    s = FiniteStructure(2, {"R": Relation(2, frozenset({(0, 0)}))})
    delta = [parse_formula("(R x y0)", (1, 1))]
    assert check_indiscernible(fam, {"order", "parts", "edge"}, s, delta, 2) is True


def test_check_indiscernible_finds_violation():
    # two vertices in one part carry different tuples: same reduct type,
    # different delta type
    h = PartiteHypergraph(1, (2,), frozenset())
    fam = IndexedFamily(h, {(0, 0): (0,), (0, 1): (1,)})
    s = FiniteStructure(2, {"R": Relation(2, frozenset({(0, 0)}))})
    delta = [parse_formula("(R x y0)", (1, 1))]
    res = check_indiscernible(fam, {"parts"}, s, delta, 1)
    assert res is not True
    w, w_prime = res
    assert len(w) == len(w_prime) == 1


def test_check_indiscernible_validation():
    h = PartiteHypergraph(1, (1,), frozenset())
    fam = IndexedFamily(h, {(0, 0): (0,)})
    s = FiniteStructure(2, {"R": Relation(2, frozenset())})
    delta = [parse_formula("(R x y0)", (1, 1))]
    with pytest.raises(InputError):
        check_indiscernible(fam, {"chromatic"}, s, delta, 1)
    with pytest.raises(InputError):
        check_indiscernible(fam, {"order"}, s, delta, 0)
    with pytest.raises(InputError):
        check_indiscernible(fam, {"order"}, s, [parse_formula("(R x.1 y0)", (2, 2))], 1)


def test_check_indiscernible_on_ordered_structure_with_parts():
    # the tuple of an index vertex is its part: parts decide the delta type
    index = RelStructure(4, (2, 2), 2, frozenset({frozenset({0, 2}), frozenset({1, 3})}))
    fam = IndexedFamily(index, {0: (0,), 1: (0,), 2: (1,), 3: (1,)})
    s = FiniteStructure(2, {"R": Relation(2, frozenset({(0, 0)}))})
    delta = [parse_formula("(R x y0)", (1, 1))]
    assert check_indiscernible(fam, {"parts"}, s, delta, 2) is True
    assert check_indiscernible(fam, {"order", "parts", "edge"}, s, delta, 2) is True
    # order alone cannot tell vertex 0 (part 0) from vertex 2 (part 1)
    assert check_indiscernible(fam, {"order"}, s, delta, 1) == ((0,), (2,))


def test_check_indiscernible_on_ordered_graph_without_parts():
    # every vertex indexes itself and E copies the index edges: the edge
    # pattern decides the delta type
    pairs = [(0, 1), (1, 2)]
    index = RelStructure(4, None, 2, frozenset(map(frozenset, pairs)))
    fam = IndexedFamily(index, {v: (v,) for v in range(4)})
    e = frozenset(pairs) | frozenset((b, a) for a, b in pairs)
    s = FiniteStructure(4, {"E": Relation(2, e)})
    delta = [parse_formula("(E x y0)", (1, 1))]
    assert check_indiscernible(fam, {"edge"}, s, delta, 3) is True
    # order alone puts the edge (0, 1) and the non-edge (0, 2) together
    assert check_indiscernible(fam, {"order"}, s, delta, 2) == ((0, 1), (0, 2))


def test_check_indiscernible_rejects_other_index_types():
    s = FiniteStructure(2, {"R": Relation(2, frozenset())})
    fam = IndexedFamily(s, {0: (0,), 1: (1,)})
    with pytest.raises(InputError, match="unsupported index structure"):
        check_indiscernible(fam, {"order"}, s, [parse_formula("(R x y0)", (1, 1))], 1)


def test_indexed_tuples_outside_the_domain_are_refused():
    # (= x y0) holds at (5, 5), but 5 is no element of a domain of 2
    h = PartiteHypergraph(2, (1, 1), frozenset({(0, 0)}))
    s = FiniteStructure(2, {"R": Relation(2, frozenset())})
    phi = parse_formula("(= x y0)", (1, 1))
    unknown = parse_formula("(Q x y0)", (1, 1))
    for tuples, vertex in (
        ({(0, 0): (5,), (1, 0): (5,)}, r"\(5,\) of vertex \(0, 0\)"),
        ({(0, 0): (1,), (1, 0): (2,)}, r"\(2,\) of vertex \(1, 0\)"),
        ({(0, 0): (-1,), (1, 0): (0,)}, r"\(-1,\) of vertex \(0, 0\)"),
    ):
        fam = IndexedFamily(h, tuples)
        message = f"indexed tuple {vertex} leaves the domain"
        for call in (
            lambda: check_encodes(s, phi, fam, h),
            lambda: check_encodes(s, unknown, fam, h),
            lambda: check_indiscernible(fam, {"order"}, s, [phi], 1),
            lambda: check_indiscernible(fam, {"order"}, s, [unknown], 1),
        ):
            with pytest.raises(InputError, match=message):
                call()
    with pytest.raises(InputError, match=r"assignment \(5,\) leaves the domain"):
        eval_formula(s, phi, ((5,), (5,)))


def random_encoding(seed: int):
    """A structure, a formula with one block per part, tuples indexed by the
    vertices (they may repeat), and the hypergraph the formula encodes."""
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    length = rng.randint(1, 2) if n == 2 else 1
    sizes = tuple(rng.randint(1, 3) for _ in range(n))
    domain = rng.randint(2, 3)
    structure = random_structure(seed, domain=domain, signature=SIGNATURE)
    phi = random_formula(rng, (length,) * n, SIGNATURE)
    tuples = {
        (p, i): tuple(rng.randrange(domain) for _ in range(length))
        for p, size in enumerate(sizes)
        for i in range(size)
    }
    cells = list(product(*map(range, sizes)))
    edges = frozenset(
        c for c in cells if ref_eval(structure, phi, [tuples[p, i] for p, i in enumerate(c)])
    )
    h = PartiteHypergraph(n, sizes, edges)
    return rng, structure, phi, IndexedFamily(h, tuples), h


@pytest.mark.parametrize("seed", range(40))
def test_check_encodes_matches_reference(seed):
    rng, structure, phi, fam, h = random_encoding(seed)
    cells = list(product(*map(range, h.part_sizes)))
    flipped = PartiteHypergraph(h.n, h.part_sizes, h.edges ^ {rng.choice(cells)})
    noise = PartiteHypergraph(h.n, h.part_sizes, frozenset(c for c in cells if rng.random() < 0.5))
    for hypergraph, want in ((h, True), (flipped, False), (noise, None)):
        got = check_encodes(structure, phi, fam, hypergraph)
        assert got == ref_encodes(structure, phi, fam, hypergraph)
        assert want is None or got is want


REDUCTS = [set(r) for k in range(4) for r in combinations(("order", "parts", "edge"), k)]


def random_indexed(seed: int):
    """An index, tuples that often repeat, a structure and a delta.

    Odd seeds index a partite hypergraph with 1 to 3 parts; even seeds an
    ordered structure with or without parts and edges.
    """
    rng = random.Random(seed)
    if seed % 2:
        n = rng.randint(1, 3)
        sizes = tuple(rng.randint(1, 3 if n < 3 else 2) for _ in range(n))
        cells = product(*map(range, sizes))
        index = PartiteHypergraph(n, sizes, frozenset(c for c in cells if rng.random() < 0.5))
        vertices = [(p, i) for p, size in enumerate(sizes) for i in range(size)]
    else:
        arity, parts = rng.choice([None, 2, 3]), rng.choice([None, 1, 2])
        index = random_ordered(rng, rng.randint(1, 5), arity, parts)
        vertices = list(range(index.size))
    length, blocks = rng.randint(1, 2), rng.randint(2, 3)
    domain = rng.randint(2, 3)
    pool = [tuple(rng.randrange(domain) for _ in range(length)) for _ in range(rng.randint(1, 3))]
    fam = IndexedFamily(index, {v: rng.choice(pool) for v in vertices})
    structure = random_structure(seed, domain=domain, signature=SIGNATURE)
    delta = [random_formula(rng, (length,) * blocks, SIGNATURE) for _ in range(rng.randint(1, 2))]
    return structure, fam, delta


@pytest.mark.parametrize("seed", range(40))
def test_check_indiscernible_matches_reference(seed):
    structure, fam, delta = random_indexed(seed)
    for reduct in REDUCTS:
        for cap in (1, 2, 3):
            want = ref_indiscernible(fam, reduct, structure, delta, cap)
            assert check_indiscernible(fam, reduct, structure, delta, cap) == want


def test_indexed_cases_reach_every_outcome():
    encodings = [random_encoding(seed) for seed in range(40)]
    assert any(len(set(fam.tuples.values())) < len(fam.tuples) for _, _, _, fam, _ in encodings)
    assert {h.n for *_, h in encodings} == {2, 3}
    indexed = [random_indexed(seed) for seed in range(40)]
    results = [
        check_indiscernible(fam, reduct, structure, delta, cap)
        for structure, fam, delta in indexed
        for reduct in REDUCTS
        for cap in (1, 2, 3)
    ]
    assert True in results and any(r is not True for r in results)
    assert any(len(set(fam.tuples.values())) < len(fam.tuples) for _, fam, _ in indexed)
    partite = [fam.index for _, fam, _ in indexed if isinstance(fam.index, PartiteHypergraph)]
    assert {h.n for h in partite} == {1, 2, 3}
    ordered = [fam.index for _, fam, _ in indexed if isinstance(fam.index, RelStructure)]
    assert {(r.part_sizes is None, r.edges is None) for r in ordered} == {
        (True, True), (True, False), (False, True), (False, False)
    }
    assert {len(delta[0].block_lengths) for _, _, delta in indexed} == {2, 3}

"""Acceptance checks, one per criterion, each ending in a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  A failing criterion shows up as a failing test; nothing here
weakens a check to make it pass.
"""

import math
import random
import time
from itertools import combinations, product

import pytest

from instance_gen import (
    random_family,
    random_structure,
    random_system,
    ref_trace,
    ref_zar,
)
from vcn import (
    BudgetExceededError,
    ColoringProblem,
    FiniteStructure,
    GroundFamily,
    ProductUniverse,
    Relation,
    RelStructure,
    SetSystem,
    arrow_check,
    arrow_scan,
    bar_restrict,
    build_counterexample_structure,
    build_direct_sum_witness,
    build_extremal_family,
    check_extension_level,
    count_types,
    dichotomy_verdict,
    dim_phi,
    direct_sum,
    find_extension_violation,
    gen_extension_hypergraph,
    negate,
    parse_formula,
    phi_class,
    pi_phi,
    points,
    random_subgraph,
    sauer_binomial_bound,
    shatter_fn,
    shift,
    step_certificate,
    vc_n_dim,
    verify_ipn_witness,
    walk_discrepancies,
    adjacency_walk,
    conjoin,
    zarankiewicz,
)


def report(num, text):
    print(f"acceptance {num:02d} PASS - {text}")


def test_criterion_01_small_thresholds():
    """Single-part closed form and the small two-part values, under 10s."""
    t0 = time.time()
    for d in range(1, 5):
        for m in range(d, 7):
            assert zarankiewicz(1, m, d).z == d
    assert zarankiewicz(2, 2, 2).z == 4
    assert zarankiewicz(2, 3, 2).z == ref_zar(2, 3, 2) == 7
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, f"closed form + exhaustive cross-check in {elapsed:.2f}s")


def test_criterion_02_single_part_bound_is_tight():
    """Families of all small subsets meet the binomial bound exactly."""
    for d in range(4):
        for m in range(1, 9):
            universe = ProductUniverse((m,))
            members = tuple(
                sorted(
                    mask
                    for mask in range(1 << m)
                    if bin(mask).count("1") <= d
                )
            )
            system = SetSystem(universe, members)
            z = zarankiewicz(1, m, d + 1).z
            bound = sauer_binomial_bound(1, m, z)
            assert shatter_fn(system, m) == bound
            if d >= 1:
                assert vc_n_dim(system) == min(m, d)
    report(2, "bound met with equality for all-small-subset families, d<=3, m<=8")


def test_criterion_03_random_systems_respect_bound():
    """200 seeded two-part systems stay under the binomial bound."""
    t0 = time.time()
    z_cache = {}
    for seed in range(200):
        system = random_system(seed, n=2, max_part=5, max_members=14)
        d = vc_n_dim(system)
        for m in range(1, min(system.universe.part_sizes) + 1):
            key = (m, d + 1)
            if key not in z_cache:
                z_cache[key] = zarankiewicz(2, m, d + 1).z
            bound = sauer_binomial_bound(2, m, z_cache[key])
            assert shatter_fn(system, m) <= bound
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(3, f"200 systems, every feasible m, in {elapsed:.1f}s")


def test_criterion_04_extremal_family_meets_bound_order():
    fam = build_extremal_family(2, 1, [2])
    assert vc_n_dim(fam) == 1
    z = zarankiewicz(2, 2, 2).z
    assert shatter_fn(fam, 2) == 8 == 1 << (z - 1)
    report(4, "dimension-1 family with shatter value 8 = 2**(z-1) at m=2")


def test_criterion_05_counterexample_structure():
    """The ternary structure defines exactly the extremal family."""
    structure = build_counterexample_structure([2])
    phi = parse_formula("(R x y0 y1)", (1, 1, 1))
    fam = build_extremal_family(2, 1, [2])
    system = phi_class(structure, phi)
    # definable members over the ground tail match the family's members
    ground = fam.universe.part_sizes[0]
    count = len(fam.members)
    definable = set()
    for mask in system.members:
        cells = set()
        for idx in range(system.universe.tuple_count):
            if mask >> idx & 1:
                y0, y1 = system.universe.index_tuple(idx)
                if y0 >= count and y1 >= count:
                    cells.add((y0 - count, y1 - count))
                else:
                    cells = None
                    break
        if cells is not None:
            definable.add(frozenset(cells))
    family_sets = set()
    for mask in fam.members:
        cells = set()
        for idx in range(fam.universe.tuple_count):
            if mask >> idx & 1:
                cells.add(fam.universe.index_tuple(idx))
        family_sets.add(frozenset(cells))
    assert family_sets <= definable
    assert pi_phi(structure, [phi], 2) == 8
    assert dim_phi(structure, phi) == 1
    report(5, "definable family covers the extremal one; pi(2)=8, dim=1")


def test_criterion_06_types_equal_traces():
    """300 seeded triples: type counts equal trace cardinalities."""
    rng = random.Random(606)
    for trial in range(300):
        n = rng.choice([1, 2])
        domain = rng.randint(2, 4)
        structure = random_structure(trial, domain=domain, signature=(("R", n + 1),))
        names = " ".join(f"y{k}" for k in range(n))
        phi = parse_formula(f"(R x {names})", (1,) * (n + 1))
        if trial % 3 == 0:
            phi = negate(phi)
        system = phi_class(structure, phi)
        m = rng.randint(1, min(2, domain))
        boxes = tuple(
            tuple((v,) for v in sorted(rng.sample(range(domain), m)))
            for _ in range(n)
        )
        selections = tuple(tuple(t[0] for t in box) for box in boxes)
        assert count_types(structure, [phi], boxes).count == len(
            ref_trace(system, selections)
        )
        assert pi_phi(structure, [phi], m) == shatter_fn(system, m)
    report(6, "count_types == trace size and pi == shatter on 300 triples")


def test_criterion_07_type_count_algebra():
    """Negation invariance and conjunction bounds over 100 instances."""
    for seed in range(100):
        structure = random_structure(
            seed, domain=3, signature=(("R", 2), ("S", 2))
        )
        phi = parse_formula("(R x y0)", (1, 1))
        psi = parse_formula("(S x y0)", (1, 1))
        m = 1 + seed % 2
        p_phi = pi_phi(structure, [phi], m)
        p_neg = pi_phi(structure, [negate(phi)], m)
        assert p_phi == p_neg
        p_and = pi_phi(structure, [conjoin(phi, psi)], m)
        p_pair = pi_phi(structure, [phi, psi], m)
        p_psi = pi_phi(structure, [psi], m)
        assert p_and <= p_pair <= p_phi * p_psi
        assert math.isclose(
            math.log(p_phi) + math.log(p_psi), math.log(p_phi * p_psi)
        )
    report(7, "negation fixes pi; conjunction and pair counts bounded, 100 instances")


def test_criterion_08_shift_properties():
    """500 seeded families: cardinality kept, downward closed, no new shatters."""

    def shattered(fam):
        out = set()
        for s in range(1 << fam.ground_size):
            seen = set()
            target = 1 << bin(s).count("1")
            for c in fam.members:
                seen.add(c & s)
                if len(seen) == target:
                    out.add(s)
                    break
        return out

    for seed in range(500):
        ground = 4 + seed % 7  # 4..10
        fam = random_family(seed, ground=ground)
        shifted = shift(fam)
        assert len(shifted.members) == len(fam.members)
        members = set(shifted.members)
        for c in members:
            for e in range(ground):
                if c >> e & 1:
                    assert (c ^ (1 << e)) in members
        assert shattered(shifted) <= shattered(fam)
    report(8, "500 families shifted: same size, downward closed, shatter shrank")


def test_criterion_09_arrows_and_sums():
    """Classical two-color threshold plus tagged-sum witnesses."""
    t0 = time.time()
    pair, triple = points(2), points(3)
    ok, checked = arrow_scan(ColoringProblem(pair, triple, points(6), 2))
    assert ok and checked == 1 << 15
    assert time.time() - t0 < 5.0
    assert not arrow_check(ColoringProblem(pair, triple, points(5), 2))

    pt, two = points(1), points(2)
    for a0, b0, a1, b1, k in [
        (pt, pt, pt, pt, 2),
        (pt, two, pt, pt, 2),
        (pt, pt, pt, two, 2),
    ]:
        c = build_direct_sum_witness(a0, b0, a1, b1, k)
        assert arrow_check(
            ColoringProblem(direct_sum(a0, a1), direct_sum(b0, b1), c, k),
            budget=1 << 22,
        )
    big = build_direct_sum_witness(pt, two, pt, two, 2)
    assert big.part_sizes == (17, 3)
    with pytest.raises(BudgetExceededError):
        arrow_check(
            ColoringProblem(direct_sum(pt, pt), direct_sum(two, two), big, 2),
            budget=1 << 12,
        )
    report(9, "threshold at 6 points (32768 colorings), sums verified or refused")


def test_criterion_10_partite_double_restriction():
    """bar-restriction reproduces every bipartite graph on up to 6 vertices."""
    total = 0
    for size in range(2, 7):
        for left in range(1, size):
            right = size - left
            cells = [(i, left + j) for i in range(left) for j in range(right)]
            for mask in range(1 << len(cells)):
                edges = frozenset(
                    frozenset(cells[i])
                    for i in range(len(cells))
                    if mask >> i & 1
                )
                x = RelStructure(size, (left, right), 2, edges)
                assert bar_restrict(x) == x
                total += 1
    report(10, f"{total} bipartite graphs reproduced exactly")


def test_criterion_11_generation_walks_selection():
    """Seeded generation success rate, verified walks, selection dichotomy."""
    successes = 0
    for seed in range(100):
        try:
            eh = gen_extension_hypergraph(2, 10, 1, seed=seed, retries=50)
        except Exception:
            continue
        assert find_extension_violation(eh.base, 1) is None
        successes += 1
    assert successes >= 95

    eh = gen_extension_hypergraph(2, 26, 1, seed=1105)
    h = eh.base
    rng = random.Random(1105)
    walked = 0
    guard = 0
    while walked < 50:
        guard += 1
        assert guard < 5000
        p0 = sorted(rng.sample(range(26), 2))
        p1 = sorted(rng.sample(range(26), 2))
        q0 = sorted(rng.sample(range(26), 2))
        q1 = sorted(rng.sample(range(26), 2))
        w = [(0, p0[0]), (1, p1[0]), (0, p0[1]), (1, p1[1])]
        wp = [(0, q0[0]), (1, q1[0]), (0, q0[1]), (1, q1[1])]
        if len(walk_discrepancies(h, w, wp)) > 2:
            continue
        steps = adjacency_walk(h, w, wp)
        for a, b in zip(steps, steps[1:]):
            step_certificate(h, a, b)  # raises unless genuinely V-adjacent
        assert walk_discrepancies(h, steps[-1], wp) == []
        walked += 1

    g = next(e for e in sorted(h.edges) if 8 <= e[0] <= 18 and 8 <= e[1] <= 18)
    v = [(0, 2), (0, 23), (1, 3), (1, 22)]
    sel = random_subgraph(h, v, g, s=2, t_prime=0)
    for cross in product(*sel):
        assert dichotomy_verdict(h, v, g, cross) is not None
    report(11, f"{successes}/100 seeds generated; 50 walks certified; dichotomy held")


def test_criterion_12_witness_verification():
    """A built witness passes the grid check; the counterexample never does."""
    # 16 pattern elements realize every 0/1 pattern on a 2x2 parameter grid
    grid = [(16,), (17,)], [(18,), (19,)]
    tuples = set()
    for b in range(16):
        for cell_index, (y0, y1) in enumerate(product((16, 17), (18, 19))):
            if b >> cell_index & 1:
                tuples.add((b, y0, y1))
    witness = FiniteStructure(20, {"R": Relation(3, frozenset(tuples))})
    phi = parse_formula("(R x y0 y1)", (1, 1, 1))
    assert verify_ipn_witness(witness, phi, grid)
    assert dim_phi(witness, phi) >= 2

    counterexample = build_counterexample_structure([2])
    elements = range(counterexample.size)
    for pair0 in combinations(elements, 2):
        for pair1 in combinations(elements, 2):
            params = [[(v,) for v in pair0], [(v,) for v in pair1]]
            assert not verify_ipn_witness(counterexample, phi, params)
    report(12, "witness grid fully realized; counterexample fails every 2x2 grid")

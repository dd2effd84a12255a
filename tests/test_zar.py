"""Box-free thresholds against an exhaustive reference.

The reference enumerates every edge set over the full cell grid, so it is
only run at sizes where 2**(m**n) stays tiny; the frozen constants below
were produced by that same enumeration and cross-checked against the
published small values.
"""

import math
import random
import time
from itertools import product

import pytest

from instance_gen import ref_has_box, ref_zar, traced_peak
from vcn import (
    BudgetExceededError,
    InputError,
    PartiteHypergraph,
    contains_complete_partite,
    build_counterexample_structure,
    build_extremal_family,
    shatter_fn,
    vc_n_dim,
    zarankiewicz,
)
from vcn.zar import _adjacent_swaps, _degree_cap, _same_popcount

# (n, m, d) -> threshold, from the exhaustive reference
FROZEN = {
    (2, 2, 2): 4,
    (2, 3, 2): 7,
    (2, 3, 3): 9,
    (3, 2, 2): 8,
    (1, 4, 2): 2,
    (1, 4, 3): 3,
    # d = 1: any one edge is the box, so the threshold is 1
    (2, 3, 1): 1,
    (3, 2, 1): 1,
}


def test_reference_agrees_with_frozen_values():
    for (n, m, d), want in FROZEN.items():
        assert ref_zar(n, m, d) == want


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_zarankiewicz_matches_reference(key):
    n, m, d = key
    res = zarankiewicz(n, m, d)
    assert res.status == "exact"
    assert res.z == FROZEN[key]


@pytest.mark.parametrize(
    "n,m,d,want",
    [
        # classical m x m values (Guy 1969; OEIS A072567 lists z - 1)
        (2, 4, 2, 10),
        (2, 5, 2, 13),
        (2, 6, 2, 17),
        (2, 7, 2, 22),
        (2, 8, 2, 25),
        (2, 9, 2, 30),
        (2, 10, 2, 35),
        (2, 11, 2, 40),
        (2, 12, 2, 46),
        # the 3 x 3 box (Guy 1969; OEIS A001198)
        (2, 4, 3, 14),
        (2, 5, 3, 21),
        (2, 8, 3, 43),
        (2, 9, 3, 50),
        (2, 10, 3, 61),
        (2, 4, 4, 16),  # only the full grid contains the full box
    ],
)
def test_published_bipartite_values(n, m, d, want):
    res = zarankiewicz(n, m, d)
    assert res.status == "exact"
    assert res.z == want
    h = res.extremal_witness
    assert len(h.edges) == want - 1
    assert not contains_complete_partite(h, d)
    assert not ref_has_box(set(h.edges), n, m, d)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("d", range(1, 5))
def test_single_part_closed_form(m, d):
    res = zarankiewicz(1, m, d)
    assert res.status == "exact"
    assert res.z == min(m, d - 1) + 1
    if m >= d:
        assert res.z == d


@pytest.mark.parametrize("width", range(9))
def test_mask_order_matches_sorted_reference(width):
    # the search walks popcounts downward, each from its top mask
    want = sorted(range(1 << width), key=lambda x: (bin(x).count("1"), x), reverse=True)
    tops = [((1 << k) - 1) << (width - k) for k in range(width, -1, -1)]
    assert [mask for top in tops for mask in _same_popcount(top)] == want
    for i in range(0, len(want), 7):
        level = [x for x in want[i:] if bin(x).count("1") == bin(want[i]).count("1")]
        assert list(_same_popcount(want[i])) == level


@pytest.mark.parametrize("m,n", [(1, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4)])
def test_adjacent_swaps_are_coordinate_transpositions(m, n):
    width = m ** (n - 1)
    grid = list(product(range(m), repeat=n - 1))
    swaps = _adjacent_swaps(grid, m)
    assert len(swaps) == (n - 1) * (m - 1)
    transpositions = [(c, j) for c in range(n - 1) for j in range(m - 1)]
    for (low, high, shift), (c, j) in zip(swaps, transpositions):
        swap = {j: j + 1, j + 1: j}
        image = [
            grid.index(tuple(swap.get(x, x) if i == c else x for i, x in enumerate(t)))
            for t in grid
        ]
        for mask in range(1 << width):
            want = sum(1 << image[i] for i in range(width) if mask >> i & 1)
            got = (mask & low) << shift | (mask & high) >> shift | mask & ~(low | high)
            assert got == want
            assert ((mask & low) << shift > mask & high) == (want > mask)
            assert ((mask & low) << shift == mask & high) == (want == mask)


# (n, m, d, node_budget) -> (z, status, witness): one string per vertex of
# the first part, listing its edges' remaining coordinates digit by digit
# in base 36 (a = 10, b = 11).
# The search order decides which extremal witness comes out first, and a
# capped row's answer depends on the node count the budget reads.
FROZEN_WITNESSES = {
    (2, 5, 2, None): (13, "exact", ["1 2 3 4", "0 4", "0 3", "0 2", "0 1"]),
    (2, 6, 2, None): (17, "exact", ["3 4 5", "1 2 5", "0 2 4", "0 1 3", "0 5", "1 4"]),
    (2, 7, 2, None): (
        22, "exact", ["4 5 6", "2 3 6", "0 1 6", "1 3 5", "0 2 5", "0 3 4", "1 2 4"]
    ),
    (2, 8, 2, None): (
        25,
        "exact",
        ["4 5 6 7", "2 3 7", "0 1 7", "1 3 6", "0 2 6", "0 3 5", "1 2 5", "3 4"],
    ),
    (2, 9, 2, None): (
        30,
        "exact",
        ["5 6 7 8", "2 3 4 8", "0 1 8", "1 4 7", "0 3 7", "0 4 6", "1 2 6", "1 3 5", "0 2 5"],
    ),
    (2, 11, 2, None): (
        40,
        "exact",
        [
            "7 8 9 a", "4 5 6 a", "1 2 3 a", "0 3 6 9", "0 2 5 8", "0 1 4 7",
            "1 5 9", "2 4 9", "1 6 8", "3 4 8", "2 6 7",
        ],
    ),
    (2, 12, 2, None): (
        46,
        "exact",
        [
            "8 9 a b", "5 6 7 b", "2 3 4 b", "1 4 7 a", "0 3 6 a", "0 2 7 9",
            "1 3 5 9", "1 2 6 8", "0 4 5 8", "0 1 b", "2 5 a", "4 6 9",
        ],
    ),
    (3, 3, 2, None): (
        23,
        "exact",
        ["01 02 10 11 12 20 21 22", "00 01 02 10 11 20 22", "00 01 02 10 12 20 21"],
    ),
    (2, 7, 3, None): (
        34,
        "exact",
        ["1 2 3 4 5 6", "0 3 4 5 6", "0 1 2 5 6", "0 1 2 3 4", "0 2 4 6", "0 1 3 6", "0 1 4 5"],
    ),
    (2, 8, 3, None): (
        43,
        "exact",
        [
            "1 2 3 4 5 6 7", "0 4 5 6 7", "0 2 3 6 7", "0 1 3 5 7",
            "0 1 2 4 7", "0 1 2 5 6", "0 1 3 4 6", "0 2 3 4 5",
        ],
    ),
    (2, 9, 3, None): (
        50,
        "exact",
        [
            "2 3 4 5 6 7 8", "0 1 5 6 7 8", "0 1 3 4 7 8", "0 1 3 4 5 6", "1 2 4 6 8",
            "1 2 3 5 8", "1 2 3 6 7", "1 2 4 5 7", "0 3 6 8",
        ],
    ),
    (3, 4, 2, None): (
        50,
        "exact",
        [
            "00 01 03 10 12 13 21 22 23 30 31 32 33",
            "00 01 02 03 10 11 12 20 21 22 32 33",
            "01 02 03 10 11 13 20 22 23 30 31 32",
            "00 02 03 11 12 13 20 21 23 30 31 32",
        ],
    ),
    (2, 10, 2, 100_000): (
        35,
        "exact",
        [
            "6 7 8 9", "3 4 5 9", "1 2 5 8", "0 2 4 7", "0 1 9",
            "0 3 8", "1 3 7", "0 5 6", "1 4 6", "2 3 6",
        ],
    ),
    (2, 12, 2, 100_000): (
        46,
        "exact",
        [
            "8 9 a b", "5 6 7 b", "2 3 4 b", "1 4 7 a", "0 3 6 a", "0 2 7 9",
            "1 3 5 9", "1 2 6 8", "0 4 5 8", "0 1 b", "2 5 a", "4 6 9",
        ],
    ),
}


@pytest.mark.parametrize("key", list(FROZEN_WITNESSES), ids=str)
def test_search_order_is_frozen(key):
    z, status, rows = FROZEN_WITNESSES[key]
    res = zarankiewicz(*key)
    assert (res.z, res.status) == (z, status)
    assert res.z_upper == z or status != "exact"
    want = {
        (v, *(int(c, 36) for c in cell))
        for v, row in enumerate(rows)
        for cell in row.split()
    }
    assert sorted(res.extremal_witness.edges) == sorted(want)


@pytest.mark.parametrize("m", range(2, 10))
def test_reiman_bound(m):
    # Reiman 1958: a 2 x 2 box-free m x m bipartite graph has at most
    # m(1 + sqrt(4m - 3))/2 edges
    res = zarankiewicz(2, m, 2)
    assert res.status == "exact"
    assert res.z - 1 <= m * (1 + math.sqrt(4 * m - 3)) / 2


@pytest.mark.parametrize("m,want", [(12, 46), (13, 53)])
def test_descent_reaches_the_frontier(m, want):
    # ex(13, 13; 2, 2) = 52: Collins, Riasanovsky, Wallace & Radziszowski
    # (2016); OEIS A072567.  The counting bound is 52 there, so the first
    # run finds it; at m = 12 it is 46 and a second run finds 45.
    start = time.perf_counter()
    res = zarankiewicz(2, m, 2)
    assert time.perf_counter() - start < 1
    assert (res.z, res.z_upper, res.status) == (want, want, "exact")
    assert len(res.extremal_witness.edges) == want - 1
    assert not ref_has_box(set(res.extremal_witness.edges), 2, m, 2)


@pytest.mark.parametrize(
    "n,m,d",
    [pytest.param(2, m, d, id=f"{d}-{m}") for d in (2, 3) for m in range(1, 7)]
    + [pytest.param(3, m, 2, id=f"n3-{m}") for m in (2, 3, 4)],
)
def test_every_budget_brackets_the_reference(n, m, d):
    # the exhaustive reference while m**n <= 16, where it takes about a
    # second; above it the published values (Guy 1969) for n = 2 and the
    # exact n = 3 values, m = 4 as in test_three_partite_m4_is_exact
    known = {
        (2, 5, 2): 13, (2, 6, 2): 17, (2, 5, 3): 21, (2, 6, 3): 27, (3, 3, 2): 23, (3, 4, 2): 50
    }
    want = known[n, m, d] if m**n > 16 else ref_zar(n, m, d)
    for budget in range(201):
        res = zarankiewicz(n, m, d, budget)
        assert res.z <= want <= res.z_upper
        assert res.status == ("exact" if res.z == res.z_upper else "lower_bound_only")
        edges = set(res.extremal_witness.edges)
        assert len(edges) == res.extremal_edge_count == res.z - 1
        assert not ref_has_box(edges, n, m, d)


@pytest.mark.parametrize("d", [2, 3])
def test_degree_cap_is_the_brute_force_maximum(d):
    # the most edges r layers of popcount <= c hold with sum C(deg, d) <= left
    for r, c in product(range(5), range(6)):
        for left in range(25):
            want = max(
                sum(degs)
                for degs in product(range(c + 1), repeat=r)
                if sum(math.comb(x, d) for x in degs) <= left
            )
            assert _degree_cap(r, c, left, d) == want


def test_three_partite_m4_is_exact():
    # 2**16 candidate layers per vertex: the symmetry rule must prune them
    res = zarankiewicz(3, 4, 2)
    assert res.status == "exact"
    assert res.z == 50
    assert not contains_complete_partite(res.extremal_witness, 2)


def test_four_partite_m3_is_exact():
    # 2**27 candidate layers per vertex
    res = zarankiewicz(4, 3, 2)
    assert res.status == "exact"
    assert res.z == 74
    h = res.extremal_witness
    assert len(h.edges) == 73
    assert not contains_complete_partite(h, 2)
    assert not ref_has_box(set(h.edges), 4, 3, 2)


def test_capped_search_memory_stays_small():
    # 2**27 candidate layers: the search must never list them
    status, peak = traced_peak("", "zarankiewicz(4, 3, 2, node_budget=2_000).status")
    assert status == repr("lower_bound_only")
    assert peak < 4 * 2**20


def test_witness_is_extremal_and_box_free():
    for (n, m, d), want in FROZEN.items():
        res = zarankiewicz(n, m, d)
        h = res.extremal_witness
        assert isinstance(h, PartiteHypergraph)
        assert len(h.edges) == res.extremal_edge_count == want - 1
        assert not contains_complete_partite(h, d)
        assert not ref_has_box(set(h.edges), n, m, d)


def test_budget_exhaustion_reports_lower_bound():
    # the descent looks for 9 edges (Reiman's bound) and skips the full first
    # layer; the first layer it takes, padded with empty layers, is box-free,
    # so the bound counts its 3 edges although no search path reached full depth
    res = zarankiewicz(2, 4, 2, node_budget=3)
    assert res.status == "lower_bound_only"
    assert (res.z, res.z_upper) == (4, 10)
    assert len(res.extremal_witness.edges) == res.extremal_edge_count == 3
    assert not contains_complete_partite(res.extremal_witness, 2)


def test_budget_bounds_time():
    # the budget counts skipped candidates too, so a capped search over
    # 2**25 layers per vertex stops quickly, with a partial incumbent
    start = time.perf_counter()
    res = zarankiewicz(3, 5, 2, node_budget=100_000)
    assert time.perf_counter() - start < 5
    assert res.status == "lower_bound_only"
    assert res.z == 26
    assert len(res.extremal_witness.edges) == res.extremal_edge_count == 25
    assert not contains_complete_partite(res.extremal_witness, 2)


def test_negative_budget_is_input_error():
    for n in (1, 2):
        with pytest.raises(InputError, match="node_budget must be nonnegative"):
            zarankiewicz(n, 3, 2, node_budget=-1)
    with pytest.raises(InputError):
        build_extremal_family(2, 1, [2], node_budget=-5)
    # a budget of 0 still means "expand no node": the empty witness
    res = zarankiewicz(2, 3, 2, node_budget=0)
    assert (res.z, res.status) == (1, "lower_bound_only")


def test_d1_is_exact_in_closed_form_under_any_budget():
    # any one edge is a 1-box, so the empty witness is optimal and no node is
    # searched; a walk over the layers took minutes at n = 4, m = 3
    for n, m in [(2, 3), (3, 5), (4, 3), (5, 4)]:
        for budget in (0, 1000, None):
            res = zarankiewicz(n, m, 1, budget)
            assert (res.z, res.extremal_edge_count, res.status) == (1, 0, "exact")
            assert res.extremal_witness == PartiteHypergraph(n, (m,) * n, frozenset())


def test_d_larger_than_part_never_boxes():
    # no d-box fits, so the threshold sits above the full grid
    res = zarankiewicz(2, 2, 3)
    assert res.z == 5
    assert res.extremal_edge_count == 4


def test_input_validation():
    with pytest.raises(InputError):
        zarankiewicz(0, 2, 2)
    with pytest.raises(InputError):
        zarankiewicz(2, 2, 0)
    with pytest.raises(InputError):
        contains_complete_partite(
            PartiteHypergraph(2, (2, 2), frozenset()), 0
        )


def test_contains_complete_partite_direct():
    grid = PartiteHypergraph(2, (2, 2), frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
    assert contains_complete_partite(grid, 2)
    missing = PartiteHypergraph(2, (2, 2), frozenset({(0, 0), (0, 1), (1, 0)}))
    assert not contains_complete_partite(missing, 2)
    assert contains_complete_partite(missing, 1)
    empty = PartiteHypergraph(2, (2, 2), frozenset())
    assert not contains_complete_partite(empty, 1)


@pytest.mark.parametrize("seed", range(60))
def test_contains_complete_partite_matches_reference(seed):
    rng = random.Random(seed)
    n, m, d = rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 3)
    density = rng.choice([0.5, 0.8, 0.95])
    edges = {t for t in product(range(m), repeat=n) if rng.random() < density}
    h = PartiteHypergraph(n, (m,) * n, frozenset(edges))
    assert contains_complete_partite(h, d) == ref_has_box(edges, n, m, d)
    if 1 < d <= m:
        # one part cut below d, the others kept: no box fits the cut part
        sizes = [m] * n
        sizes[rng.randrange(n)] = d - 1
        kept = frozenset(e for e in edges if all(v < s for v, s in zip(e, sizes)))
        assert not contains_complete_partite(PartiteHypergraph(n, tuple(sizes), kept), d)


def test_hypergraph_json_round_trip():
    h = zarankiewicz(2, 3, 2).extremal_witness
    assert PartiteHypergraph.from_json(h.to_json()) == h


def test_extremal_family_small():
    fam = build_extremal_family(2, 1, [2])
    assert len(fam.members) == 8
    assert vc_n_dim(fam) == 1
    assert shatter_fn(fam, 2) == 8
    z = zarankiewicz(2, 2, 2).z
    assert shatter_fn(fam, 2) >= 1 << (z - 1)


def test_extremal_family_two_blocks():
    fam = build_extremal_family(2, 1, [2, 2])
    assert fam.universe.part_sizes == (4, 4)
    assert vc_n_dim(fam) == 1
    # each block still shatters at full strength
    assert shatter_fn(fam, 2) >= 8


def test_extremal_family_validation():
    with pytest.raises(InputError):
        build_extremal_family(2, 2, [1])  # m below d
    with pytest.raises(InputError):
        build_extremal_family(2, 1, [])
    with pytest.raises(BudgetExceededError):
        build_extremal_family(2, 2, [4], node_budget=2)


def test_counterexample_structure_shape():
    s = build_counterexample_structure([2])
    assert s.size == 10  # 8 members plus 2 shared ground elements
    rel = s.relations["R"]
    assert rel.arity == 3
    # member 0 is the empty set: no triples start with 0
    assert all(t[0] != 0 for t in rel.tuples)

"""Exact thresholds for complete partite sub-hypergraphs, and what they build.

For the complete n-partite n-uniform hypergraph with m vertices per part,
z(n, m, d) is the least edge count that forces a copy of the complete
d-per-part sub-hypergraph.  It is computed exactly by maximizing the edge
count of a d-box-free subgraph with a branch-and-bound over per-vertex
edge layers; the threshold is that maximum plus one.  The symmetry of the
other parts is broken by one lex-leader rule (Crawford, Ginsberg, Luks &
Roy 1996, in the row and column form of Flener et al. 2002).  For n = 2
every node is pruned with the Kovari-Sos-Turan counting bound (each d
columns lie in at most d - 1 rows), and for d = 2 the search descends
from Reiman's bound (1958): each run looks only for a witness as large
as the current upper bound, and one that finds none lowers it by one.

The extremal witnesses feed a set system made of the power sets of
box-free witnesses placed on disjoint blocks: its box dimension collapses
to d while its shatter function stays exponential; the counterexample
structure is its ternary relation, so R(x, y0, y1) defines that system.
"""

from __future__ import annotations

from functools import cache
from itertools import product, repeat
from math import comb, isqrt, prod
from typing import Iterator, Sequence

import vcn

from .errors import BudgetExceededError, FiniteStructure, InputError, PartiteHypergraph
from .errors import Record, Relation

_EXACT = "exact"
_LOWER = "lower_bound_only"


class ZarResult(Record):
    """z <= threshold <= z_upper, status "exact" exactly when they are equal;
    the box-free witness has extremal_edge_count = z - 1 edges."""

    z: int
    extremal_edge_count: int
    extremal_witness: PartiteHypergraph
    status: str
    z_upper: int


def _box_from(
    slices: list[int], d: int, rest: tuple[int, ...], chosen: int, start: int, inter: int
) -> bool:
    """Do d - chosen more of slices[start:], ANDed into inter, hold a d-box over rest?

    A slice is a cell mask over the grid of sizes rest; inter is the AND
    of the chosen slices.  Every partial AND must keep the d ** len(rest)
    cells of a box, so a branch that drops below it is cut.
    """
    if chosen == d:
        # with one coordinate left, the d common cells are the box
        return len(rest) == 1 or _mask_has_box(inter, d, rest)
    need = d ** len(rest)
    for i in range(start, len(slices)):
        nxt = inter & slices[i]
        if nxt.bit_count() >= need and _box_from(slices, d, rest, chosen + 1, i + 1, nxt):
            return True
    return False


def _mask_has_box(mask: int, d: int, sizes: tuple[int, ...]) -> bool:
    """Does a cell mask over the grid of sizes hold a full d x ... x d box?

    The cell (t0, ..., tk) is one bit, the last coordinate varying
    fastest, so the mask splits into sizes[0] slices over the remaining
    coordinates; a box is d slices whose AND holds a smaller box.
    """
    if len(sizes) == 1:
        return mask.bit_count() >= d
    rest = sizes[1:]
    step = prod(rest)
    full = (1 << step) - 1
    slices = [mask >> (a * step) & full for a in range(sizes[0])]
    return _box_from(slices, d, rest, 0, 0, full)


def contains_complete_partite(h: PartiteHypergraph, d: int) -> bool:
    """True when h contains the complete sub-hypergraph on d vertices per part."""
    if d < 1:
        raise InputError("d must be positive")
    return _mask_has_box(h._cell_mask(), d, h.part_sizes)


def _same_popcount(mask: int) -> Iterator[int]:
    """mask, then every smaller mask of its popcount, descending.

    The next mask is the largest smaller one with the same popcount: clear
    the trailing ones, move the lowest remaining set bit down one place
    and pack the cleared ones right below it.  The run ends at the mask
    whose set bits are all at the bottom.
    """
    while True:
        yield mask
        cleared = mask & (mask + 1)  # trailing ones removed
        if not cleared:
            return
        low = cleared & -cleared
        mask = cleared - (low >> (mask ^ (mask + 1)).bit_length())


def _degree_cap(r: int, c: int, left: int, d: int) -> int:
    """Most edges r layers of popcount <= c hold with sum C(popcount, d) <= left.

    C(., d) is convex, so among degree vectors with one sum the balanced
    one spends the least: the most is reached by q or q + 1 edges per
    layer, q the largest degree all r layers can take.  left >= 0.
    """
    q = c
    while r * comb(q, d) > left:
        q -= 1
    if q == c:
        return r * c
    # all r layers cannot take q + 1, so q + 1 >= d, and raising one layer
    # from q to q + 1 costs C(q, d - 1) >= 1; fewer than r layers get it
    return r * q + (left - r * comb(q, d)) // comb(q, d - 1)


def _adjacent_swaps(grid: list[tuple[int, ...]], m: int) -> list[tuple[int, int, int]]:
    """The swap j <-> j+1 of each coordinate, as (low, high, shift) on cell masks.

    low holds the cells with that coordinate at j and high = low << shift
    the cells at j+1, so the swap exchanges the bits of low and high.
    """
    swaps = []
    for c in range(len(grid[0])):
        shift = m ** (len(grid[0]) - 1 - c)
        for j in range(m - 1):
            low = sum(1 << i for i, t in enumerate(grid) if t[c] == j)
            swaps.append((low, low << shift, shift))
    return swaps


def zarankiewicz(
    n: int, m: int, d: int, node_budget: int | None = None
) -> ZarResult:
    """Least edge count forcing a complete d-per-part sub-hypergraph.

    Runs a branch-and-bound over per-vertex layers of the first part,
    maximizing the edge count among d-box-free subgraphs; the threshold is
    that maximum plus one.  Layers are tried by popcount, then mask,
    descending, each child resuming at its parent's mask, so the search
    keeps O(depth) state.  A layer is skipped when an adjacent swap of
    one coordinate's values fixes every earlier layer and raises it; the
    lexicographically largest optimum is maximal in its orbit, so it is
    never cut and is the one found first.

    For n = 2 a layer is a vertex's neighbourhood, and Kovari-Sos-Turan
    counting holds: each d vertices of the second part lie in at most
    d - 1 layers, so the layers' C(popcount, d) sum to at most
    (d - 1) * C(m, d).  Every popcount is pruned with what is left of that
    sum, and the same bound over all m layers caps the maximum.  For d = 2
    the search descends from the least of that cap and Reiman's bound
    (1958): a run looks only for a witness of T edges, T the current
    bound, and stops at the first; a run that finds none proves the
    maximum below T, and T drops by one.  For d >= 3 the cap is looser,
    so one run climbs from the empty witness instead.

    Every candidate that passes both popcount bounds counts as one node
    against the budget, over all runs.  When the node budget runs out the
    best edge count found in any run, partial layer lists included, still
    yields a valid lower bound on the threshold, flagged by status, never
    silently reported as exact.  z_upper is then one more than the
    proven bound on the maximum: the current T for d = 2, the counting
    cap for d >= 3, and m ** n for n >= 3.  It equals z on exact rows.
    """
    if n < 1 or m < 1 or d < 1:
        raise InputError("n, m, d must be positive")
    if node_budget is not None and node_budget < 0:
        raise InputError("node_budget must be nonnegative")
    if n == 1 or d == 1:
        # n = 1: edges are single vertices, so any d of them form the target;
        # d = 1: any one edge is the target, so the empty witness is optimal
        k = m if m < d else d - 1
        witness = PartiteHypergraph(n, (m,) * n, frozenset((v,) for v in range(k)))
        return ZarResult(k + 1, k, witness, _EXACT, k + 1)

    width = m ** (n - 1)
    grid = list(product(range(m), repeat=n - 1))
    rest = (m,) * (n - 1)
    sub_d_size = d ** (n - 1)
    if n == 2:
        cost = [comb(c, d) for c in range(m + 1)]
        capacity = (d - 1) * comb(m, d)

        @cache
        def most(r: int, c: int, left: int) -> int:
            return _degree_cap(r, c, left, d)

    else:
        # d layers that share d cells need not hold a box: count nothing,
        # and the bound is the popcount bound
        cost = [0] * (width + 1)
        capacity = 0

        def most(r: int, c: int, left: int) -> int:
            return r * c

    def violates(layers: list[int], new: int) -> bool:
        # a box through the new layer is the new layer and d - 1 earlier ones
        return new.bit_count() >= sub_d_size and _box_from(layers, d, rest, 1, 0, new)

    best_total = 0
    best_layers: list[int] = []  # the empty subgraph is always box-free
    nodes = 0
    floor = goal = 0  # a run prunes what cannot beat floor and stops at goal
    stop = False

    def dfs(
        layers: list[int], total: int, left: int, start: int, tied: list[tuple[int, int, int]]
    ):
        nonlocal best_total, best_layers, nodes, floor, stop
        if total > best_total:
            # the layers not yet chosen may stay empty: a prefix is a witness
            best_total = total
            best_layers = list(layers)
        if total > floor:
            floor = total
            if floor >= goal:
                stop = True
                return
        remaining = m - len(layers)
        top = start.bit_count()
        for count in range(top, -1, -1):
            if total + most(remaining, count, left) <= floor:
                break  # later layers have no larger popcount: none can help
            after = left - cost[count]
            if after < 0:
                continue  # the sum would pass (d - 1) * C(m, d): this layer closes a box
            reach = total + count + most(remaining - 1, count, after)
            first = start if count == top else ((1 << count) - 1) << (width - count)
            for mask in _same_popcount(first):
                if reach <= floor:
                    break
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    stop = True
                    return
                # a swap that fixes every earlier layer and raises this one
                # maps the sequence to a larger one in its orbit: skip it
                if any((mask & low) << shift > mask & high for low, high, shift in tied):
                    continue
                if violates(layers, mask):
                    continue
                layers.append(mask)
                fixed = [s for s in tied if (mask & s[0]) << s[2] == mask & s[1]]
                dfs(layers, total + count, after, mask, fixed)
                layers.pop()
                if stop:
                    return

    upper = most(m, width, capacity)
    if n == 2 and d == 2:
        # Reiman 1958: at most m(1 + sqrt(4m - 3))/2 edges; each run looks
        # for a witness of upper edges only
        upper = min(upper, (m + isqrt(m * m * (4 * m - 3))) // 2)
        base = upper - 1
    else:
        base = 0
    while True:
        floor, goal, stop = base, upper, False
        dfs([], 0, capacity, (1 << width) - 1, _adjacent_swaps(grid, m))
        capped = node_budget is not None and nodes > node_budget
        if capped or floor > base:
            break
        upper, base = base, base - 1  # no witness beats base: the maximum is at most base
    if not capped:
        upper = floor

    edges = frozenset(
        (v, *grid[i])
        for v, mask in enumerate(best_layers)
        for i in range(width)
        if mask >> i & 1
    )
    witness = PartiteHypergraph(n, (m,) * n, edges)
    status = _LOWER if capped else _EXACT
    return ZarResult(best_total + 1, best_total, witness, status, upper + 1)


def build_extremal_family(
    n: int, d: int, m_range: Sequence[int], node_budget: int | None = None
) -> vcn.setsys.SetSystem:
    """Union of power sets of box-free extremal witnesses on disjoint blocks.

    For each m the extremal (d+1)-box-free witness with z(n,m,d+1)-1 edges
    is placed on fresh blocks of every part; the members are all subsets
    of each witness's edge set.  The result has box dimension exactly d
    while its shatter function at m stays at least 2**(z-1).
    """
    from .setsys import ProductUniverse, SetSystem

    if n < 1 or d < 1:
        raise InputError("n and d must be positive")
    sizes = [int(m) for m in m_range]
    if not sizes:
        raise InputError("m_range must be nonempty")
    if any(m < d for m in sizes):
        raise InputError("every m must be at least d")
    total = sum(sizes)
    universe = ProductUniverse((total,) * n)
    members: set[int] = set()
    offset = 0
    for m in sizes:
        res = zarankiewicz(n, m, d + 1, node_budget)
        if res.status != _EXACT:
            raise BudgetExceededError(
                f"threshold search for m={m} hit its budget; "
                "the construction needs a true extremal witness"
            )
        cells = [
            universe.tuple_index(tuple(offset + v for v in e))
            for e in sorted(res.extremal_witness.edges)
        ]
        subsets = [0]
        for c in cells:
            subsets += [sub | 1 << c for sub in subsets]
        members.update(subsets)
        offset += m
    return SetSystem(universe, tuple(sorted(members)))


def build_counterexample_structure(
    m_range: Sequence[int], node_budget: int | None = None
) -> FiniteStructure:
    """Ternary structure whose definable family is the n=2, d=1 extremal system.

    The domain lists one element per family member (in sorted member
    order) followed by the shared ground part; R(b, a0, a1) holds exactly
    when the pair (a0, a1) lies in the member named b.  The formula
    R(x, y0, y1) then defines the family, with every ground element
    contributing the empty member.
    """
    from .setsys import bit_indices

    sizes = [int(m) for m in m_range]
    if any(m < 1 for m in sizes):
        raise InputError("block sizes must be positive")
    fam = build_extremal_family(2, 1, sizes, node_budget)
    ground = fam.universe.part_sizes[0]
    count = len(fam.members)
    tuples = set()
    for idx, member in enumerate(fam.members):
        for a0, a1 in map(divmod, bit_indices(member), repeat(ground)):
            tuples.add((idx, count + a0, count + a1))
    return FiniteStructure(count + ground, {"R": Relation(3, frozenset(tuples))})

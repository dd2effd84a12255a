"""Exact thresholds for complete partite sub-hypergraphs, and what they build.

For the complete n-partite n-uniform hypergraph with m vertices per part,
z(n, m, d) is the least edge count that forces a copy of the complete
d-per-part sub-hypergraph.  It is computed exactly by maximizing the edge
count of a d-box-free subgraph with a branch-and-bound over per-vertex
edge layers; the threshold is that maximum plus one.  The symmetry of the
other parts is broken by one lex-leader rule (Crawford, Ginsberg, Luks &
Roy 1996, in the row and column form of Flener et al. 2002).

The extremal witnesses feed a set system made of the power sets of
box-free witnesses placed on disjoint blocks: its box dimension collapses
to d while its shatter function stays exponential.  fmodel turns that
system into a ternary structure whose definable family reproduces it.
"""

from __future__ import annotations

import json
from itertools import product
from math import prod
from typing import Iterator, Sequence

import vcn

from .errors import BudgetExceededError, InputError, Record, _decode

_EXACT = "exact"
_LOWER = "lower_bound_only"


class PartiteHypergraph(Record):
    """n-partite n-uniform hypergraph; an edge picks one vertex per part."""

    n: int
    part_sizes: tuple[int, ...]
    edges: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.n < 1:
            raise InputError("n must be positive")
        sizes = tuple(int(s) for s in self.part_sizes)
        if len(sizes) != self.n or any(s < 1 for s in sizes):
            raise InputError("need one positive size per part")
        edges = frozenset(tuple(map(int, e)) for e in self.edges)
        # one pass per part; only a failing edge set is walked, in sorted
        # order, so the error names its least bad edge
        if set(map(len, edges)) - {self.n} or any(
            min(col) < 0 or max(col) >= s for col, s in zip(zip(*edges), sizes)
        ):
            for e in sorted(edges):
                if len(e) != self.n:
                    raise InputError(f"edge {e} does not pick one vertex per part")
                if any(not 0 <= v < s for v, s in zip(e, sizes)):
                    raise InputError(f"edge {e} leaves its parts")
        object.__setattr__(self, "part_sizes", sizes)
        object.__setattr__(self, "edges", edges)

    def _doc(self) -> dict:
        return {"n": self.n, "part_sizes": self.part_sizes, "edges": sorted(self.edges)}

    def to_json(self) -> str:
        return json.dumps(self._doc(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PartiteHypergraph":
        """Read a hypergraph document; a sample's "t" and "seed" are checked, then dropped."""

        def build(doc):
            return cls(doc["n"], doc["part_sizes"], doc["edges"])

        return _decode(text, "hypergraph", build, _HYPERGRAPH_SHAPE)


# The hypergraph document, keys in field order: PartiteHypergraph reads the first
# three, hyperrand.ExtensionHypergraph all five; each is checked where present.
_HYPERGRAPH_SHAPE = {"n": int, "part_sizes": [int], "edges": [[int]], "t": int, "seed": int}


class ZarResult(Record):
    z: int
    extremal_edge_count: int
    extremal_witness: PartiteHypergraph
    status: str


class ErdosBound(Record):
    ex_bound: float
    z_bound: float
    epsilon: float
    degenerate: bool


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
    if any(d > s for s in h.part_sizes):
        return False
    mask = 0
    for e in h.edges:
        cell = 0
        for v, s in zip(e, h.part_sizes):
            cell = cell * s + v
        mask |= 1 << cell
    return _mask_has_box(mask, d, h.part_sizes)


def _masks_from(start: int, width: int) -> Iterator[tuple[int, int]]:
    """(popcount, mask) pairs from start down: popcount, then mask, descending.

    Within one popcount the next mask is the largest smaller one with the
    same popcount: clear the trailing ones, move the lowest remaining set
    bit down one place and pack the cleared ones right below it.  After
    the smallest mask of a popcount comes the top k-1 bits of the width.
    """
    mask = start
    k = start.bit_count()
    while True:
        yield k, mask
        cleared = mask & (mask + 1)  # trailing ones removed
        if cleared:
            low = cleared & -cleared
            mask = cleared - (low >> (mask ^ (mask + 1)).bit_length())
        elif k:
            k -= 1
            mask = ((1 << k) - 1) << (width - k)
        else:
            return


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
    never cut and is the one found first.  Every candidate that passes
    the popcount bound counts as one node against the budget.  When the
    node budget runs out the best edge count found so far, partial layer
    lists included, still yields a valid lower bound on the threshold,
    flagged by status, never silently reported as exact.
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
        return ZarResult(k + 1, k, witness, _EXACT)

    width = m ** (n - 1)
    grid = list(product(range(m), repeat=n - 1))
    rest = (m,) * (n - 1)
    sub_d_size = d ** (n - 1)

    def violates(layers: list[int], new: int) -> bool:
        # a box through the new layer is the new layer and d - 1 earlier ones
        return new.bit_count() >= sub_d_size and _box_from(layers, d, rest, 1, 0, new)

    best_total = 0
    best_layers: list[int] = []  # the empty subgraph is always box-free
    nodes = 0
    exhausted = False

    def dfs(layers: list[int], total: int, start: int, tied: list[tuple[int, int, int]]):
        nonlocal best_total, best_layers, nodes, exhausted
        if total > best_total:
            # the layers not yet chosen may stay empty: a prefix is a witness
            best_total = total
            best_layers = list(layers)
        if len(layers) == m:
            return
        remaining = m - len(layers)
        for count, mask in _masks_from(start, width):
            if total + remaining * count <= best_total:
                break  # masks come by popcount: no later mask can help
            if exhausted:
                return
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                exhausted = True
                return
            # a swap that fixes every earlier layer and raises this one maps
            # the sequence to a larger one in its orbit: skip it
            if any((mask & low) << shift > mask & high for low, high, shift in tied):
                continue
            if violates(layers, mask):
                continue
            layers.append(mask)
            fixed = [s for s in tied if (mask & s[0]) << s[2] == mask & s[1]]
            dfs(layers, total + count, mask, fixed)
            layers.pop()

    dfs([], 0, (1 << width) - 1, _adjacent_swaps(grid, m))

    edges = frozenset(
        (v, *grid[i])
        for v, mask in enumerate(best_layers)
        for i in range(width)
        if mask >> i & 1
    )
    witness = PartiteHypergraph(n, (m,) * n, edges)
    status = _LOWER if exhausted else _EXACT
    return ZarResult(best_total + 1, best_total, witness, status)


def erdos_bound(n: int, m: int, d: int) -> ErdosBound:
    """Power-saving upper bounds for box-free edge counts; advisory only.

    epsilon = 1 / d**(n-1); the extremal count is at most m**(n-epsilon)
    and the threshold at most (n*m)**(n-epsilon).  For n = 1 the exponent
    degenerates and the record says so.
    """
    if n < 1 or m < 1 or d < 1:
        raise InputError("n, m, d must be positive")
    eps = 1.0 / d ** (n - 1)
    return ErdosBound(
        ex_bound=float(m) ** (n - eps),
        z_bound=float(n * m) ** (n - eps),
        epsilon=eps,
        degenerate=(n == 1),
    )


def z22_lower_bound(m: int) -> float:
    """Advisory lower bound for the 2 x 2 box threshold in the balanced case."""
    if m < 1:
        raise InputError("m must be positive")
    return m**1.5 * (1.0 - m ** (-1.0 / 6.0))


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

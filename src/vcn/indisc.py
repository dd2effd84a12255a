"""Families of indiscernibles indexed by partite hypergraphs and ordered structures.

The paper collapses indiscernibles indexed by hypergraphs: a family of
element tuples, one per index vertex, is indiscernible for a set of
formulas when index tuples of equal reduct type get equal formula types.
This module holds that side: IndexedFamily, check_encodes (does a formula
on the indexed tuples reproduce a hypergraph's edges) and
check_indiscernible (the first index tuples whose reduct types agree and
whose formula types differ).  Both read fmodel's one evaluator, which
compiles each formula once and builds one indexed tuple's truth pattern at
a time; type counting itself stays in fmodel, which never loads this
module.
"""

from __future__ import annotations

from itertools import combinations, product
from math import prod
from typing import Iterable, Mapping, Sequence

from .errors import FiniteStructure, InputError, PartiteHypergraph, Record, Relation
from .fmodel import QfFormula, _check_delta, _types
from .setsys import _rows


class IndexedFamily(Record):
    """Equal-length element tuples indexed by the vertices of a partite
    hypergraph or an ordered structure."""

    index: PartiteHypergraph | FiniteStructure
    tuples: Mapping[object, tuple[int, ...]]

    def __post_init__(self):
        tups = {k: tuple(int(v) for v in t) for k, t in dict(self.tuples).items()}
        lengths = {len(t) for t in tups.values()}
        if len(lengths) > 1:
            raise InputError("indexed tuples must share one length")
        object.__setattr__(self, "tuples", tups)

    @property
    def tuple_length(self) -> int:
        return len(next(iter(self.tuples.values()))) if self.tuples else 0


def _index_view(index: PartiteHypergraph | FiniteStructure):
    """The vertices of an index in order, and the ordered structure it is.

    A structure is its own view, on the vertices 0..size-1.  A partite
    hypergraph is read through its partite view: its (part, position)
    vertices in part-major order, its parts convex, and each edge shifted
    to the positions of the vertices it picks.
    """
    if isinstance(index, FiniteStructure):
        return range(index.size), index
    if not isinstance(index, PartiteHypergraph):
        raise InputError("unsupported index structure")
    sizes = index.part_sizes
    vertices = [(p, i) for p in range(index.n) for i in range(sizes[p])]
    starts = [sum(sizes[:p]) for p in range(index.n)]
    edges = [tuple(s + v for s, v in zip(starts, e)) for e in index.edges]
    return vertices, FiniteStructure(len(vertices), {"R": Relation(index.n, edges)}, sizes)


def _check_family(
    structure: FiniteStructure, fam: IndexedFamily, vertices, lengths: Sequence[int]
) -> None:
    """Refuse an indexed family that no mask over the blocks can read.

    Checked before any relation is read, in this order: a vertex without an
    indexed tuple, a tuple length other than a block length, a tuple outside
    the domain.
    """
    for v in vertices:
        if v not in fam.tuples:
            raise InputError(f"vertex {v} has no indexed tuple")
    if any(length != fam.tuple_length for length in lengths):
        raise InputError("indexed tuple length must match every block length")
    for v in vertices:
        if any(not 0 <= x < structure.size for x in fam.tuples[v]):
            raise InputError(f"indexed tuple {fam.tuples[v]} of vertex {v} leaves the domain")


def check_encodes(
    structure: FiniteStructure,
    phi: QfFormula,
    fam: IndexedFamily,
    hypergraph: PartiteHypergraph,
) -> bool:
    """True when phi on the indexed tuples reproduces the hypergraph's edges.

    Block j of phi is fed the tuple indexed by the part-j vertex of each
    cross tuple, so the formula needs exactly one block per part.
    """
    if len(phi.block_lengths) != hypergraph.n:
        raise InputError("formula needs one block per hypergraph part")
    sizes = hypergraph.part_sizes
    vertices = [(p, i) for p, size in enumerate(sizes) for i in range(size)]
    _check_family(structure, fam, vertices, phi.block_lengths)
    lists = [[fam.tuples[p, i] for i in range(size)] for p, size in enumerate(sizes)]
    pattern, cells = _types(structure, [phi], lists), prod(sizes[1:])
    mask = sum(pattern(t) << p * cells for p, t in enumerate(lists[0]))
    return mask == hypergraph._cell_mask()


def check_indiscernible(
    fam: IndexedFamily,
    reduct: Iterable[str],
    structure: FiniteStructure,
    delta: Sequence[QfFormula],
    arity_cap: int,
):
    """Check that index tuples with equal reduct types get equal delta types.

    The index is read as an ordered structure on vertex positions, a
    partite hypergraph through its partite view.  The reduct names which
    of its relations count: any subset of {"order", "parts", "edge"}.
    Equality atoms always count.  Returns True, or the first violating
    pair of index tuples, in the index's own vertex keys.

    Each formula is compiled once over the D distinct indexed tuples.  A
    tuple's pattern, D ** (blocks - 1) bits per formula, is built when the
    scan first reaches a vertex that carries it, so an early violation
    builds few.  A delta type reads one bit per block map and formula.
    """
    reduct = frozenset(reduct)
    if not reduct <= {"order", "parts", "edge"}:
        raise InputError("reduct must be a subset of {order, parts, edge}")
    if arity_cap < 1:
        raise InputError("arity cap must be positive")
    shape = _check_delta(delta)
    vertices, view = _index_view(fam.index)
    _check_family(structure, fam, vertices, shape)
    # column[x]: the slot of position x's tuple among the distinct indexed tuples
    slot: dict = {}
    column = [slot.setdefault(fam.tuples[v], len(slot)) for v in vertices]
    objects, blocks = list(slot), len(shape)
    pattern, cells = _types(structure, delta, [objects] * blocks), len(slot) ** (blocks - 1)
    built: dict = {}  # built[c]: the pattern of slot c, once the scan has reached it
    fs = range(len(delta))
    part = (view.part_ids() or [0] * view.size) if "parts" in reduct else None
    rel = view.relations.get("R") if "edge" in reduct else None
    edges = rel and {frozenset(t) for t in rel.tuples}

    def reduct_type(w):
        # a rank pattern fixes every pairwise sign, an equality pattern every
        # pairwise equality; with a repeated position a set is smaller than
        # every edge
        pattern = tuple(map((sorted(set(w)) if "order" in reduct else w).index, w))
        parts = tuple(part[x] for x in w) if part is not None else None
        hits = rel and tuple(frozenset(s) in edges for s in combinations(w, rel.arity))
        return (pattern, parts, hits)

    def delta_type(w):
        cols = [column[x] for x in w]
        for c in cols:
            if c not in built:
                built[c] = pattern(objects[c])
        # one cell per map of the parameter blocks into w
        gs = _rows([len(slot)] * (blocks - 1), [cols] * (blocks - 1))
        return tuple(built[c] >> g + f * cells & 1 for c in cols for g in gs for f in fs)

    for length in range(1, arity_cap + 1):
        groups: dict = {}
        for w in product(range(len(vertices)), repeat=length):
            key = reduct_type(w)
            val = delta_type(w)
            if key in groups:
                prev_w, prev_val = groups[key]
                if prev_val != val:
                    return tuple(vertices[x] for x in prev_w), tuple(vertices[x] for x in w)
            else:
                groups[key] = (w, val)
    return True

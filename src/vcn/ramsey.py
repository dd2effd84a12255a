"""Ordered relational structures and exhaustive partition-arrow checking.

Structures carry their domain in a fixed linear order, optional convex
part predicates, and an optional symmetric uniform edge relation.  Order
rigidity makes substructure copies and embeddings the same thing: a copy
of A inside B is an increasing vertex selection whose induced
substructure equals A.  A structure is its value: its fields are
normalised on construction, so copies and hereditary closures compare
structures with == and collect them in dicts.

The arrow predicate C -> (B)^A_k is decided by a pruned depth-first
search for a bad coloring: the A-copies of C are colored in index order,
and a color is skipped wherever it would make some B-copy monochromatic,
so a whole block of good colorings is ruled out at once.  The count it
reports, colorings_checked, is the number of colorings decided before the
answer: all k**N when the arrow holds, or the lexicographic rank of the
first bad coloring plus one when it fails.  The search refuses up front
when k**N exceeds its budget rather than sampling, which keeps every
reported arrow exact.

The direct-sum builder composes pigeonhole-sized witnesses along the
chain argument that proves two arrow problems can be solved jointly on a
tagged disjoint union.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .errors import (
    BudgetExceededError, InputError, Record, Relation, _decode_structure, _structure_doc
)


class RelStructure(Record):
    """Ordered structure: convex optional parts, optional uniform edges."""

    size: int
    part_sizes: tuple[int, ...] | None = None
    edge_arity: int | None = None
    edges: frozenset[frozenset[int]] | None = None

    def __post_init__(self):
        if self.size < 0:
            raise InputError("size must be nonnegative")
        if self.part_sizes is not None:
            sizes = tuple(int(s) for s in self.part_sizes)
            if any(s < 0 for s in sizes) or sum(sizes) != self.size:
                raise InputError("part sizes must be nonnegative and cover the domain")
            object.__setattr__(self, "part_sizes", sizes)
        if (self.edge_arity is None) != (self.edges is None):
            raise InputError("edge arity and edge set must be declared together")
        if self.edges is not None:
            if self.edge_arity < 1:
                raise InputError("edge arity must be positive")
            edges = frozenset(frozenset(map(int, e)) for e in self.edges)
            # one pass over the edges; only a failing edge set is walked, in
            # sorted order, so the error names its least bad edge
            vertices = frozenset().union(*edges)
            if set(map(len, edges)) - {self.edge_arity} or vertices - frozenset(range(self.size)):
                for e in sorted(map(sorted, edges)):
                    if len(e) != self.edge_arity:
                        raise InputError(f"edge {e} does not match the arity")
                    if any(not 0 <= v < self.size for v in e):
                        raise InputError(f"edge {e} leaves the domain")
            object.__setattr__(self, "edges", edges)

    def part_ids(self) -> tuple[int, ...] | None:
        if self.part_sizes is None:
            return None
        out = []
        for p, s in enumerate(self.part_sizes):
            out.extend([p] * s)
        return tuple(out)

    def to_json(self) -> str:
        rels = {}
        if self.edges is not None:
            rels["R"] = Relation(self.edge_arity, map(sorted, self.edges))
        doc = _structure_doc(self.size, rels)
        doc["order"] = list(range(self.size))
        if self.part_sizes is not None:
            parts, start = [], 0
            for s in self.part_sizes:
                parts.append(list(range(start, start + s)))
                start += s
            doc["parts"] = parts
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RelStructure":
        """Read a structure document; of its relations only R is kept, as the edges."""

        def build(size, part_sizes, relations):
            r = relations.get("R")
            if r is None:
                return cls(size, part_sizes)
            return cls(size, part_sizes, r.arity, r.tuples)

        return _decode_structure(text, build)


def points(k: int) -> RelStructure:
    """Plain ordered set on k vertices."""
    return RelStructure(k)


def induced(structure: RelStructure, subset: Sequence[int]) -> RelStructure:
    """Substructure on the given vertices, relabeled along the order."""
    subset = sorted(set(int(v) for v in subset))
    if any(not 0 <= v < structure.size for v in subset):
        raise InputError("subset leaves the domain")
    pos = {v: i for i, v in enumerate(subset)}
    part_sizes = None
    part_ids = structure.part_ids()
    if part_ids is not None:
        counts = [0] * len(structure.part_sizes)
        for v in subset:
            counts[part_ids[v]] += 1
        part_sizes = tuple(counts)
    edges = None
    if structure.edges is not None:
        keep = set(subset)
        edges = frozenset(
            frozenset(pos[v] for v in e) for e in structure.edges if e <= keep
        )
    return RelStructure(len(subset), part_sizes, structure.edge_arity, edges)


class EmbeddingSet(Record):
    """Increasing vertex selections of the target realizing the source."""

    source: RelStructure
    target: RelStructure
    embeddings: tuple[tuple[int, ...], ...]


def _check_signatures(a: RelStructure, b: RelStructure) -> None:
    if (a.part_sizes is None) != (b.part_sizes is None):
        raise InputError("structures disagree on having parts")
    if a.part_sizes is not None and len(a.part_sizes) != len(b.part_sizes):
        raise InputError("structures disagree on the number of parts")
    if a.edge_arity != b.edge_arity:
        raise InputError("structures disagree on the edge arity")


def copies(target: RelStructure, source: RelStructure) -> EmbeddingSet:
    """All copies of source inside target, in lexicographic order."""
    _check_signatures(target, source)
    found = []
    want_parts = source.part_ids()
    target_parts = target.part_ids()
    for subset in combinations(range(target.size), source.size):
        if want_parts is not None:
            if tuple(target_parts[v] for v in subset) != want_parts:
                continue  # cheap prefilter before building the substructure
        if induced(target, subset) == source:
            found.append(subset)
    return EmbeddingSet(source, target, tuple(found))


_ARROW_BUDGET = 1 << 20  # default cap on the k**N colorings of one arrow check


class ColoringProblem(Record):
    a: RelStructure
    b: RelStructure
    c: RelStructure
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError("number of colors must be positive")


def arrow_scan(problem: ColoringProblem, budget: int = _ARROW_BUDGET) -> tuple[bool, int]:
    """Like arrow_check but also reports how many colorings were decided.

    The count is every coloring, k**N for N A-copies, when the arrow
    holds, and the lexicographic rank of the first bad coloring plus one
    when it fails.  The budget caps k**N up front, before any search.
    """
    a_copies = copies(problem.c, problem.a).embeddings
    b_copies = copies(problem.c, problem.b).embeddings
    inner = copies(problem.b, problem.a).embeddings
    k, n = problem.k, len(a_copies)
    total = k**n
    if total > budget:
        raise BudgetExceededError(
            f"{total} colorings exceed the budget of {budget}; refusing to sample"
        )
    if b_copies and not inner:
        return True, total  # no inner copies: every B-copy is vacuously constant
    index = {emb: i for i, emb in enumerate(a_copies)}
    # closing[i]: for each B-copy whose last A-copy is i, the bitmask of
    # its other A-copies; coloring i with c makes that B-copy constant
    # exactly when every one of them already has color c
    closing: list[list[int]] = [[] for _ in range(n)]
    for emb_b in b_copies:
        ids = sorted(index[tuple(emb_b[v] for v in e)] for e in inner)
        closing[ids[-1]].append(sum(1 << i for i in ids[:-1]))
    # depth-first over positions in index order, colors ascending: the
    # order of itertools.product, so the first leaf is the first bad
    # coloring; a pruned branch holds only colorings with a constant B-copy
    color = [0] * n
    by_color = [0] * k  # bitmask of the positions holding each color
    pos, c = 0, 0
    while pos < n:
        while c < k and any(o & by_color[c] == o for o in closing[pos]):
            c += 1
        if c < k:
            color[pos] = c
            by_color[c] |= 1 << pos
            pos, c = pos + 1, 0
        elif pos == 0:
            return True, total
        else:
            pos -= 1
            c = color[pos]
            by_color[c] &= ~(1 << pos)
            c += 1
    rank = 0
    for c in color:
        rank = rank * k + c
    return False, rank + 1


def arrow_check(problem: ColoringProblem, budget: int = _ARROW_BUDGET) -> bool:
    """Exhaustively decide C -> (B)^A_k.

    True when every k-coloring of the A-copies of C admits a B-copy whose
    A-copies are monochromatic.  Refuses when the coloring count exceeds
    the budget.
    """
    return arrow_scan(problem, budget)[0]


def hereditary_closure(structures: Iterable[RelStructure]) -> list[RelStructure]:
    """All induced substructures up to order isomorphism, empty one included.

    Sorted by size, part sizes (none first), edge arity (none first),
    then the sorted list of sorted edges.
    """
    seen = dict.fromkeys(
        induced(s, subset)
        for s in structures
        for r in range(s.size + 1)
        for subset in combinations(range(s.size), r)
    )
    return sorted(
        seen,
        key=lambda s: (
            s.size,
            s.part_sizes or (),
            -1 if s.edge_arity is None else s.edge_arity,
            sorted(sorted(e) for e in s.edges or ()),
        ),
    )


def direct_sum(a0: RelStructure, a1: RelStructure) -> RelStructure:
    """Disjoint union with two fresh convex part tags, a0 before a1."""
    if a0.part_sizes is not None or a1.part_sizes is not None:
        raise InputError("summands must not already carry parts")
    if a0.edge_arity != a1.edge_arity:
        raise InputError("summands disagree on the edge arity")
    edges = None
    if a0.edges is not None:
        shifted = {frozenset(v + a0.size for v in e) for e in a1.edges}
        edges = frozenset(a0.edges | shifted)
    return RelStructure(a0.size + a1.size, (a0.size, a1.size), a0.edge_arity, edges)


def ordered_set_oracle(budget: int = _ARROW_BUDGET) -> Callable:
    """Arrow witness oracle for plain ordered sets.

    Exact pigeonhole sizes where classical, otherwise an incremental
    exhaustive search that refuses past its budget.
    """

    def oracle(a: RelStructure, b: RelStructure, k: int) -> RelStructure:
        if a != points(a.size) or b != points(b.size):
            raise InputError("the default oracle handles plain ordered sets only")
        if a.size == b.size:
            return b
        if a.size == 0:
            return b  # every coloring is constant on the single empty copy
        if a.size == 1:
            return points(k * (b.size - 1) + 1)
        if (a.size, b.size, k) == (2, 3, 2):
            return points(6)
        for size in range(b.size, b.size + 12):
            candidate = points(size)
            if arrow_check(ColoringProblem(a, b, candidate, k), budget):
                return candidate
        raise BudgetExceededError(
            f"no ordered-set witness found up to size {b.size + 11}"
        )

    return oracle


def build_direct_sum_witness(
    a0: RelStructure,
    b0: RelStructure,
    a1: RelStructure,
    b1: RelStructure,
    k: int,
    witness_oracle: Callable | None = None,
) -> RelStructure:
    """Construct C with C -> (B0 + B1) for the direct-sum arrow problem.

    Following the chain argument: pick C1 solving the second problem, let
    m be the number of A1-copies of C1, then iterate the first problem's
    oracle m times starting from its own witness; the tagged disjoint
    union of the final chain element and C1 is returned.
    """
    if k < 1:
        raise InputError("number of colors must be positive")
    oracle = witness_oracle if witness_oracle is not None else ordered_set_oracle()
    c1 = oracle(a1, b1, k)
    m = len(copies(c1, a1).embeddings)
    c = oracle(a0, b0, k)
    for _ in range(m):
        c = oracle(a0, c, k)
    return direct_sum(c, c1)


def flatten(structure: RelStructure) -> RelStructure:
    """Forget the parts, keep order and edges."""
    return RelStructure(structure.size, None, structure.edge_arity, structure.edges)


def encode_tilde(x0: RelStructure) -> RelStructure:
    """Partite double of an ordered uniform hypergraph.

    Each part is a full copy of the domain; an edge joins position-tagged
    copies (i in part 0, j in part 1, ...) exactly when the index tuple is
    strictly increasing and forms an edge of the source.  Supports arity 2
    and 3.
    """
    if x0.part_sizes is not None:
        raise InputError("source must be partless")
    if x0.edges is None or x0.edge_arity not in (2, 3):
        raise InputError("source needs a declared edge relation of arity 2 or 3")
    m = x0.size
    r = x0.edge_arity
    edges = [[p * m + v for p, v in enumerate(sorted(e))] for e in x0.edges]
    return RelStructure(r * m, (m,) * r, r, edges)


def bar_restrict(x: RelStructure) -> RelStructure:
    """Recover a partite hypergraph from the double of its flattening.

    Selects, inside encode_tilde(flatten(x)), the part-p copy of each
    part-p vertex of x; the induced substructure must equal x, anything
    else indicates an encoding bug.
    """
    if x.part_sizes is None or x.edges is None:
        raise InputError("input must carry parts and an edge relation")
    if len(x.part_sizes) != x.edge_arity:
        raise InputError("parts must match the edge arity")
    part_ids = x.part_ids()
    for e in x.edges:
        if len({part_ids[v] for v in e}) != x.edge_arity:
            raise InputError(f"edge {sorted(e)} is not cross-part")
    m = x.size
    bar = induced(encode_tilde(flatten(x)), [part_ids[v] * m + v for v in range(m)])
    if bar != x:
        raise RuntimeError("partite double restriction failed to reproduce the input")
    return bar

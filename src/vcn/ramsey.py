"""Ordered relational structures and exhaustive partition-arrow checking.

A structure is the one FiniteStructure: a linearly ordered domain, convex
parts and named relations; the encodings read R as a uniform hypergraph,
each edge an increasing tuple, as RelStructure builds it from edge sets,
and refuse any other tuple.
Order rigidity makes substructure copies and embeddings the same thing:
a copy of A inside B is an increasing vertex selection whose induced
substructure equals A.  A structure is its value, so copies and closures
compare structures with == and collect them in dicts.

The arrow predicate C -> (B)^A_k is decided by a pruned depth-first
search for a bad coloring: the A-copies of C are colored in colex order
(by the reversed tuple), and a color is skipped wherever it would make
some B-copy monochromatic, so a whole block of good colorings is ruled
out at once.  The count it reports, colorings_checked, is the number of
colorings decided before the answer: all k**N when the arrow holds, or
the colex rank of the first bad coloring plus one when it fails.  The
budget counts search nodes, one per color placed at one position; the
search refuses when it runs out rather than sampling, which keeps every
reported arrow exact.

The direct-sum builder composes classical witness sizes along the
chain argument that proves two arrow problems can be solved jointly on a
tagged disjoint union.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Sequence

from .errors import BudgetExceededError, FiniteStructure, InputError, Record, Relation


def RelStructure(
    size: int,
    part_sizes: Sequence[int] | None = None,
    edge_arity: int | None = None,
    edges: Iterable[Iterable[int]] | None = None,
) -> FiniteStructure:
    """The structure whose relation R holds each edge, a vertex set, as an increasing tuple.

    Without an edge arity and edge set the structure has no relation.
    """
    plain = FiniteStructure(size, {}, part_sizes)  # the size and the parts are checked first
    if (edge_arity is None) != (edges is None):
        raise InputError("edge arity and edge set must be declared together")
    if edges is None:
        return plain
    if edge_arity < 1:
        raise InputError("edge arity must be positive")
    edges = {tuple(sorted(set(map(int, e)))) for e in edges}
    # one pass over the edges; only a failing edge set is walked, in sorted
    # order, so the error names its least bad edge
    vertices = set(chain.from_iterable(edges))
    if set(map(len, edges)) - {edge_arity} or vertices - set(range(size)):
        for e in sorted(edges):
            if len(e) != edge_arity:
                raise InputError(f"edge {list(e)} does not match the arity")
            if any(not 0 <= v < size for v in e):
                raise InputError(f"edge {list(e)} leaves the domain")
    return FiniteStructure(size, {"R": Relation(edge_arity, edges)}, plain.part_sizes)


def points(k: int) -> FiniteStructure:
    """Plain ordered set on k vertices."""
    return FiniteStructure(k, {})


def induced(structure: FiniteStructure, subset: Sequence[int]) -> FiniteStructure:
    """Substructure on the given vertices, relabeled along the order."""
    subset = sorted(set(map(int, subset)))
    if subset and (subset[0] < 0 or subset[-1] >= structure.size):
        raise InputError("subset leaves the domain")
    pos = {v: i for i, v in enumerate(subset)}
    relations = {
        name: Relation(rel.arity, _relabel(rel.tuples, pos))
        for name, rel in structure.relations.items()
    }
    return FiniteStructure(len(subset), relations, _part_counts(structure, subset))


def _part_counts(structure: FiniteStructure, subset: Sequence[int]) -> tuple | None:
    """How many vertices of the subset lie in each part, or None without parts."""
    part_ids = structure.part_ids()
    if part_ids is None:
        return None
    counts = [0] * len(structure.part_sizes)
    for v in subset:
        counts[part_ids[v]] += 1
    return tuple(counts)


def _relabel(tuples: Iterable[tuple[int, ...]], pos: dict[int, int]) -> set[tuple[int, ...]]:
    """The tuples inside pos's keys, each vertex renamed to its position pos[v]."""
    keep = set(pos)
    return {tuple(map(pos.get, t)) for t in tuples if keep.issuperset(t)}


class EmbeddingSet(Record):
    """Increasing vertex selections of the target realizing the source."""

    source: FiniteStructure
    target: FiniteStructure
    embeddings: tuple[tuple[int, ...], ...]


def _arities(s: FiniteStructure) -> dict[str, int]:
    """The arity of each relation by name: a structure's signature beside its parts."""
    return {name: rel.arity for name, rel in s.relations.items()}


def _check_signatures(a: FiniteStructure, b: FiniteStructure) -> None:
    if (a.part_sizes is None) != (b.part_sizes is None):
        raise InputError("structures disagree on having parts")
    if a.part_sizes is not None and len(a.part_sizes) != len(b.part_sizes):
        raise InputError("structures disagree on the number of parts")
    if _arities(a) != _arities(b):
        raise InputError("structures disagree on the edge arity")


def copies(target: FiniteStructure, source: FiniteStructure) -> EmbeddingSet:
    """All copies of source inside target, in lexicographic order.

    A selection is a copy when its parts follow source's and, for every
    relation, the target tuples inside it, relabeled along it, are
    exactly source's: the test induced(target, selection) == source,
    without building the substructure.
    """
    _check_signatures(target, source)
    found = []
    want_parts = source.part_ids()
    target_parts = target.part_ids()
    relations = [(target.relations[name].tuples, r.tuples) for name, r in source.relations.items()]
    for subset in combinations(range(target.size), source.size):
        if want_parts is not None and tuple(target_parts[v] for v in subset) != want_parts:
            continue
        pos = dict(zip(subset, range(source.size)))
        if all(_relabel(tuples, pos) == want for tuples, want in relations):
            found.append(subset)
    return EmbeddingSet(source, target, tuple(found))


_ARROW_BUDGET = 1 << 20  # default cap on the search nodes of one arrow check


class ColoringProblem(Record):
    a: FiniteStructure
    b: FiniteStructure
    c: FiniteStructure
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError("number of colors must be positive")


def arrow_scan(problem: ColoringProblem, budget: int | None = None) -> tuple[bool, int]:
    """Like arrow_check but also reports how many colorings were decided.

    The count is every coloring, k**N for N A-copies, when the arrow
    holds, and the colex rank of the first bad coloring plus one when it
    fails.  The budget caps the search nodes, one per color placed at
    one position; None means the default of 2**20.
    """
    budget = _ARROW_BUDGET if budget is None else budget
    if budget < 0:
        raise InputError("budget must be nonnegative")
    # colex order (by the reversed tuple) closes every B-copy as early as it can
    a_copies = sorted(copies(problem.c, problem.a).embeddings, key=lambda e: e[::-1])
    b_copies = copies(problem.c, problem.b).embeddings
    inner = copies(problem.b, problem.a).embeddings
    k, n = problem.k, len(a_copies)
    if b_copies and not inner:
        return True, k**n  # no inner copies: every B-copy is vacuously constant
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
    pos, c, nodes = 0, 0, 0
    while pos < n:
        while c < k and any(o & by_color[c] == o for o in closing[pos]):
            c += 1
        if c < k:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"arrow search passed its budget of {budget} nodes")
            color[pos] = c
            by_color[c] |= 1 << pos
            pos, c = pos + 1, 0
        elif pos == 0:
            return True, k**n
        else:
            pos -= 1
            c = color[pos]
            by_color[c] &= ~(1 << pos)
            c += 1
    rank = 0
    for c in color:
        rank = rank * k + c
    return False, rank + 1


def arrow_check(problem: ColoringProblem, budget: int | None = None) -> bool:
    """Exhaustively decide C -> (B)^A_k.

    True when every k-coloring of the A-copies of C admits a B-copy whose
    A-copies are monochromatic.  Refuses when the search nodes exceed the
    budget; None means arrow_scan's default.
    """
    return arrow_scan(problem, budget)[0]


def hereditary_closure(structures: Iterable[FiniteStructure]) -> list[FiniteStructure]:
    """All induced substructures up to order isomorphism, empty one included.

    Sorted by size, part sizes (none first), then the relations by name,
    each by its arity and its sorted tuples (no relation first).
    """
    found = {}
    for s in structures:
        for r in range(s.size + 1):
            for subset in combinations(range(s.size), r):
                # induced(s, subset) is built only for a key not seen before
                pos = dict(zip(subset, range(r)))
                rels = {
                    name: (rel.arity, frozenset(_relabel(rel.tuples, pos)))
                    for name, rel in s.relations.items()
                }
                parts = _part_counts(s, subset)
                key = (r, parts, frozenset(rels.items()))
                if key not in found:
                    relations = {name: Relation(*rel) for name, rel in rels.items()}
                    found[key] = FiniteStructure(r, relations, parts)
    return sorted(
        found.values(),
        key=lambda s: (
            s.size,
            s.part_sizes or (),
            [(name, rel.arity, sorted(rel.tuples)) for name, rel in sorted(s.relations.items())],
        ),
    )


def direct_sum(a0: FiniteStructure, a1: FiniteStructure) -> FiniteStructure:
    """Disjoint union with two fresh convex part tags, a0 before a1."""
    if a0.part_sizes is not None or a1.part_sizes is not None:
        raise InputError("summands must not already carry parts")
    if _arities(a0) != _arities(a1):
        raise InputError("summands disagree on the edge arity")
    relations = {
        name: Relation(
            rel.arity,
            rel.tuples | {tuple(v + a0.size for v in t) for t in a1.relations[name].tuples},
        )
        for name, rel in a0.relations.items()
    }
    return FiniteStructure(a0.size + a1.size, relations, (a0.size, a1.size))


def ordered_set_oracle(a: FiniteStructure, b: FiniteStructure, k: int) -> FiniteStructure:
    """Arrow witness for plain ordered sets, from the classical sizes alone.

    B itself with one color (C -> (B)^A_1 holds exactly when B embeds in
    C) or where every B-copy holds at most one A-copy; the pigeonhole
    size k(|B|-1)+1 for one-point A; 6 for pairs, triangles and two
    colors (R(3,3) = 6).  Every other case is refused.
    """
    if a != points(a.size) or b != points(b.size):
        raise InputError("the ordered-set oracle handles plain ordered sets only")
    if k < 1:
        raise InputError("number of colors must be positive")
    if k == 1 or a.size == 0 or a.size >= b.size:
        return b  # one color, or at most one A-copy in each B-copy
    if a.size == 1:
        return points(k * (b.size - 1) + 1)
    if (a.size, b.size, k) == (2, 3, 2):
        return points(6)
    raise BudgetExceededError(f"no ordered-set witness is known for a={a.size}, b={b.size}, k={k}")


def build_direct_sum_witness(
    a0: FiniteStructure,
    b0: FiniteStructure,
    a1: FiniteStructure,
    b1: FiniteStructure,
    k: int,
) -> FiniteStructure:
    """Construct C with C -> (B0 + B1) for the direct-sum arrow problem.

    Following the chain argument: pick C1 solving the second problem, let
    m be the number of A1-copies of C1, then iterate the first problem's
    oracle m times starting from its own witness; the tagged disjoint
    union of the final chain element and C1 is returned.
    """
    if k < 1:
        raise InputError("number of colors must be positive")
    c1 = ordered_set_oracle(a1, b1, k)
    m = len(copies(c1, a1).embeddings)
    c = ordered_set_oracle(a0, b0, k)
    for _ in range(m):
        c = ordered_set_oracle(a0, c, k)
    return direct_sum(c, c1)


def flatten(structure: FiniteStructure) -> FiniteStructure:
    """Forget the parts, keep order and relations."""
    return FiniteStructure(structure.size, structure.relations)


def _check_increasing(rel: Relation) -> None:
    """Refuse an edge relation holding a tuple that is not strictly increasing."""
    bad = [t for t in rel.tuples if any(u >= v for u, v in zip(t, t[1:]))]
    if bad:
        raise InputError(f"edge {list(min(bad))} is not strictly increasing")


def encode_tilde(x0: FiniteStructure) -> FiniteStructure:
    """Partite double of an ordered uniform hypergraph.

    Each part is a full copy of the domain; an edge joins position-tagged
    copies (i in part 0, j in part 1, ...) exactly when the index tuple is
    strictly increasing and forms an edge of the source, at every arity;
    every tuple of R must be strictly increasing, as RelStructure writes
    each edge.
    """
    if x0.part_sizes is not None:
        raise InputError("source must be partless")
    rel = x0.relations.get("R")
    if rel is None:
        raise InputError("source needs a declared edge relation")
    _check_increasing(rel)
    m, r = x0.size, rel.arity
    edges = [tuple(p * m + v for p, v in enumerate(e)) for e in rel.tuples]
    return FiniteStructure(r * m, {"R": Relation(r, edges)}, (m,) * r)


def bar_restrict(x: FiniteStructure) -> FiniteStructure:
    """Recover a partite hypergraph from the double of its flattening.

    Selects, inside encode_tilde(flatten(x)), the part-p copy of each
    part-p vertex of x; the induced substructure must equal x, anything
    else indicates an encoding bug.
    """
    rel = x.relations.get("R")
    if x.part_sizes is None or rel is None:
        raise InputError("input must carry parts and an edge relation")
    if len(x.part_sizes) != rel.arity:
        raise InputError("parts must match the edge arity")
    _check_increasing(rel)
    part_ids = x.part_ids()
    for e in sorted(rel.tuples):
        if len({part_ids[v] for v in e}) != rel.arity:
            raise InputError(f"edge {list(e)} is not cross-part")
    m = x.size
    bar = induced(encode_tilde(flatten(x)), [part_ids[v] * m + v for v in range(m)])
    if bar != x:
        raise RuntimeError("partite double restriction failed to reproduce the input")
    return bar

"""Random ordered partite hypergraphs with verified extension behaviour.

Edges over the full part product are sampled independently with
probability 1/2 from a seeded generator, then an exhaustive finite
extension check is run and the sample is retried until it passes.  The
level-t check demands, for every part j, a realizer for every
positive/negative adjacency pattern combined with an order window, where
the pattern tuples and the finite window endpoints together cost at most
t; a window only obliges when some vertex lies strictly inside it.  The
check reads each part's adjacency as bitmasks: an instance's realizers
are the window's vertices that close each positive tuple into an edge
and no negative one, an AND of one mask per tuple.  The sample that
passes is returned as an ExtensionHypergraph: the PartiteHypergraph as its
base, labelled with the level it passed and its seed.

Vertices are (part, position) pairs ordered part-major.  Two equal-length
vertex sets sharing a tail V are V-adjacent when the natural map is an
order-and-parts isomorphism, every edge mixing the moved vertices with V
agrees, and exactly the full cross edge differs.  Adjacency walks repair
one edge discrepancy per step by moving a single vertex, and the greedy
subgraph selector picks part subsets whose cross tuples are each either
isomorphic or V-adjacent to a reference edge.

Deciding adjacency, taking a walk step and admitting a selected vertex
all rest on one order rule and one agreement check.  The order rule is
the V-window: a vertex may move only strictly between its nearest V
vertices in its part (and V-adjacency needs a V without repeats).  The
agreement check: for every nonempty set S of the parts that may draw
from V (short of all parts), every choice of V vertices on S and every
pick of candidate values off S, the edge read before the move equals
the edge read after it.  Adjacency lets every part draw from V; a walk
step or a selected vertex keeps its own part off V, since the full
cross edge through it is the one allowed to change.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Iterable, Sequence

from .errors import (
    _HYPERGRAPH_SHAPE,
    FiniteStructure,
    GenerationError,
    InputError,
    PartiteHypergraph,
    Record,
    Relation,
    SelectionStuckError,
    WalkStuckError,
    _decode,
    _drain,
)

Vertex = tuple[int, int]  # (part, position)
_RETRIES = 50  # default number of sampling attempts of gen_extension_hypergraph


class ExtensionHypergraph(Record):
    """A sampled hypergraph, labelled with its verified extension level t and seed.

    Its document is the hypergraph document plus "t" and "seed".
    """

    base: PartiteHypergraph
    t: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.base, PartiteHypergraph):
            raise InputError("base must be a PartiteHypergraph")
        if type(self.t) is not int or self.t < 0:  # exact: True is no level
            raise InputError("t must be a nonnegative integer")
        if type(self.seed) is not int:
            raise InputError("seed must be an integer")

    def to_json(self) -> str:
        # "seed" and "t" sort after the hypergraph document's keys
        return f'{self.base.to_json()[:-1]}, "seed": {self.seed}, "t": {self.t}}}'

    @classmethod
    def from_json(cls, text: str) -> "ExtensionHypergraph":
        def build(doc):
            # every key is read, in the shape's order, before anything is built
            n, sizes, edges, t, seed = map(doc.__getitem__, _HYPERGRAPH_SHAPE)
            return cls(PartiteHypergraph(n, sizes, _drain(edges)), t, seed)

        return _decode(text, "hypergraph", build, _HYPERGRAPH_SHAPE)


class VAdjacencyWitness(Record):
    w: tuple[Vertex, ...]
    w_prime: tuple[Vertex, ...]
    v: tuple[Vertex, ...]
    flipped_edge: tuple[Vertex, ...]


def _check_vertex(h: PartiteHypergraph, v: Vertex) -> Vertex:
    try:
        p, i = v
    except (TypeError, ValueError):
        p = i = None
    if type(p) is not int or type(i) is not int:  # exact: True is no index
        raise InputError(f"vertex {v} is not a [part, index] pair")
    if not 0 <= p < h.n or not 0 <= i < h.part_sizes[p]:
        raise InputError(f"vertex {v} leaves the hypergraph")
    return (p, i)


def find_extension_violation(h: PartiteHypergraph, t: int):
    """First failing level-t extension instance, or None.

    An instance fixes a part j, disjoint positive/negative tuple sets over
    the other parts, and an order window over part j; its cost is the
    tuple count plus the number of finite window endpoints.  Every
    instance of cost at most t whose window strictly contains a vertex
    must admit a realizer.
    """
    if t < 0:
        raise InputError("extension level must be nonnegative")
    if t == 0:
        return None  # a cost-0 instance names no tuple, and every part holds a vertex
    for j in range(h.n):
        size = h.part_sizes[j]
        # adj[x]: the part-j vertices that close the other-part tuple x into an edge
        adj = dict.fromkeys(
            product(*(range(h.part_sizes[p]) for p in range(h.n) if p != j)), 0
        )
        for e in h.edges:
            adj[e[:j] + e[j + 1 :]] |= 1 << e[j]
        others = list(adj)
        # the windows of cost at most t that strictly contain a vertex
        windows: list[tuple[int | None, int | None, int]] = [(None, None, 0)]
        windows += [(None, hi, 1) for hi in range(1, size)]
        windows += [(lo, None, 1) for lo in range(size - 1)]
        if t >= 2:
            windows += [(lo, hi, 2) for lo in range(size) for hi in range(lo + 2, size)]
        for lo, hi, wcost in windows:
            start = 0 if lo is None else lo + 1
            inside = (1 << (size if hi is None else hi)) - (1 << start)
            # an instance without tuples is realized by any vertex inside
            for total in range(1, t - wcost + 1):
                for s0 in range(total + 1):
                    for a0 in combinations(others, s0):
                        pos = inside
                        for x in a0:
                            pos &= adj[x]
                        rest = [x for x in others if x not in a0] if s0 < total else []
                        for a1 in combinations(rest, total - s0):
                            realizers = pos
                            for x in a1:
                                realizers &= ~adj[x]
                            if not realizers:
                                return (j, a0, a1, (lo, hi))
    return None


def check_extension_level(h: PartiteHypergraph, t: int) -> bool:
    return find_extension_violation(h, t) is None


def achieved_extension_level(h: PartiteHypergraph, cap: int) -> int:
    """Largest level up to cap that the hypergraph passes, -1 if none."""
    for level in range(cap, -1, -1):
        if check_extension_level(h, level):
            return level
    return -1


def gen_extension_hypergraph(
    n: int, part_size: int, t: int, seed: int, retries: int | None = None
) -> ExtensionHypergraph:
    """Sample edges at density 1/2 until the level-t check passes.

    Attempt i derives its generator deterministically from the seed
    (seed * 1000003 + i, feeding the standard generator), and edges are
    drawn one bit per cross tuple in row-major order, so results are
    reproducible byte for byte.  Raises after the retry budget (None
    means the default of 50 attempts), carrying the best level any
    attempt achieved (-1 after zero attempts).
    """
    retries = _RETRIES if retries is None else retries
    if any(type(x) is not int for x in (n, part_size, t, retries, seed)):  # exact: no bool
        raise InputError("n, part_size, t, retries and seed must be integers")
    if n < 1 or part_size < 1 or retries < 0:
        raise InputError("n and part_size must be positive, retries nonnegative")
    if t < 0:
        raise InputError("extension level must be nonnegative")
    best = -1
    for attempt in range(retries):
        rng = random.Random(seed * 1_000_003 + attempt)
        # drawn straight into the hypergraph, so the edge set is built once
        cells = product(*(range(part_size) for _ in range(n)))
        h = PartiteHypergraph(n, (part_size,) * n, (e for e in cells if rng.getrandbits(1)))
        if check_extension_level(h, t):
            return ExtensionHypergraph(h, t, seed)
        best = max(best, achieved_extension_level(h, t - 1))
    raise GenerationError(
        f"no sample passed level {t} within {retries} attempts", best_t=best
    )


def _by_part(v: Iterable[Vertex]) -> dict[int, list[int]]:
    """The second entries of (part, index) pairs, grouped by part."""
    by_part: dict[int, list[int]] = {}
    for p, i in v:
        by_part.setdefault(p, []).append(i)
    return by_part


def _mixed_agree(
    h: PartiteHypergraph,
    v_by_part: dict[int, list[int]],
    left: Sequence[Sequence[int]],
    right: Sequence[int],
    free: Sequence[int],
) -> bool:
    """Do all edges mixing V with the left values agree with the right ones?

    For every nonempty set S of free parts short of all parts, every
    choice of V vertices on S and every pick of one left value per part
    off S, the edge filled from the left pick must equal the edge filled
    from the right values (one per part) off S.
    """
    parts = range(h.n)
    for k in range(1, min(len(free), h.n - 1) + 1):
        for on_v in combinations(free, k):
            pools = [v_by_part.get(p, ()) if p in on_v else left[p] for p in parts]
            for fill in product(*pools):
                other = tuple(fill[p] if p in on_v else right[p] for p in parts)
                if (fill in h.edges) != (other in h.edges):
                    return False
    return True


def dichotomy_verdict(
    h: PartiteHypergraph,
    v: Sequence[Vertex],
    g: Sequence[int],
    cross: Sequence[int],
) -> str | None:
    """Classify a cross tuple against the reference edge: iso, adjacent, or None.

    Both ends must pick one vertex per part; an end that meets V, a
    repeated vertex in V, or a cross vertex outside its reference
    vertex's V-window gives None.
    """
    v = [_check_vertex(h, x) for x in v]
    if len(g) != h.n or len(cross) != h.n:
        raise InputError("an end must pick one vertex per part")
    g, gp = ([_check_vertex(h, x)[1] for x in enumerate(end)] for end in (g, cross))
    if len(set(v)) != len(v) or any(x in v for x in enumerate(g)):
        return None
    by_part = _by_part(v)
    for p in range(h.n):
        # strictly inside the window, so the cross end avoids V as well
        lo, hi = _window(h, by_part, p, g[p])
        if not lo < gp[p] < hi:
            return None
    if not _mixed_agree(h, by_part, [[i] for i in g], gp, range(h.n)):
        return None
    return "iso" if (tuple(g) in h.edges) == (tuple(gp) in h.edges) else "adjacent"


def is_v_adjacent(
    h: PartiteHypergraph,
    w: Sequence[Vertex],
    w_prime: Sequence[Vertex],
    v: Sequence[Vertex],
) -> bool:
    """Decide V-adjacency of two vertex sets sharing the tail V.

    Both sets must list one vertex per part followed by V itself.  The
    natural map must preserve order and parts, every edge using at least
    one V vertex must agree, and the full cross edge must differ.
    """
    if len(w) != len(w_prime) or len(w) < h.n:
        raise InputError("sets must share one length and start with one vertex per part")
    v = [_check_vertex(h, x) for x in v]
    w = [_check_vertex(h, x) for x in w]
    w_prime = [_check_vertex(h, x) for x in w_prime]
    if w[h.n :] != v or w_prime[h.n :] != v:
        raise InputError("both sets must end with the shared tail V")
    g, gp = w[: h.n], w_prime[: h.n]
    for p in range(h.n):
        if g[p][0] != p or gp[p][0] != p:
            raise InputError("the leading vertices must cover the parts in order")
    # a repeat in V or a vertex of V on an end gives None
    return dichotomy_verdict(h, v, [x[1] for x in g], [x[1] for x in gp]) == "adjacent"


def _check_lists(
    h: PartiteHypergraph, w: Sequence[Vertex], w_prime: Sequence[Vertex]
) -> tuple[list[Vertex], list[Vertex]]:
    """Checked vertices of two lists of one length, with the same part at each position."""
    w = [_check_vertex(h, x) for x in w]
    w_prime = [_check_vertex(h, x) for x in w_prime]
    if len(w) != len(w_prime):
        raise InputError("vertex lists must share one length")
    if any(a[0] != b[0] for a, b in zip(w, w_prime)):
        raise InputError("positions must agree on parts")
    return w, w_prime


def walk_discrepancies(
    h: PartiteHypergraph, w: Sequence[Vertex], w_prime: Sequence[Vertex]
) -> list[tuple[int, ...]]:
    """Sorted position tuples, one position per part, whose edges differ."""
    w, w_prime = _check_lists(h, w, w_prime)
    by_part = _by_part((p, pos) for pos, (p, _) in enumerate(w))
    out = []
    for positions in product(*(by_part.get(p, ()) for p in range(h.n))):
        left = tuple(w[i][1] for i in positions)
        right = tuple(w_prime[i][1] for i in positions)
        if (left in h.edges) != (right in h.edges):
            out.append(tuple(sorted(positions)))
    return sorted(out)


def adjacency_walk(
    h: PartiteHypergraph,
    w: Sequence[Vertex],
    w_prime: Sequence[Vertex],
) -> list[list[Vertex]]:
    """Move one vertex at a time until the set matches the target's edges.

    The inputs must be positionally order-and-parts isomorphic vertex
    lists.  Each step flips exactly one discrepant cross edge by moving
    one of its vertices, keeping every V-mixed edge intact, so consecutive
    sets are V-adjacent for V the untouched remainder.  Raises when no
    replacement vertex exists for a discrepancy.
    """
    w, w_prime = _check_lists(h, w, w_prime)
    if len(set(w)) != len(w) or len(set(w_prime)) != len(w_prime):
        raise InputError("vertex lists must be duplicate-free")
    for i, j in combinations(range(len(w)), 2):
        if w[i][0] == w[j][0]:
            if (w[i][1] < w[j][1]) != (w_prime[i][1] < w_prime[j][1]):
                raise InputError("positions must agree on the order pattern")

    cur = list(w)
    walk = [list(cur)]
    # a step flips the cross edge at its positions and no other one through
    # the moved vertex, so the discrepancies found up front are fixed in order
    for positions in walk_discrepancies(h, cur, w_prime):
        if not _walk_step(h, cur, positions):
            raise WalkStuckError(
                "no replacement vertex fixes the discrepancy; "
                "the extension level is too low for this walk",
                discrepancy=tuple(cur[i] for i in positions),
            )
        walk.append(list(cur))
    if walk_discrepancies(h, cur, w_prime):
        raise RuntimeError("walk left a discrepancy; walk bug")
    return walk


def _window(h: PartiteHypergraph, v_by_part: dict[int, list[int]], p: int, i: int):
    """(lo, hi): the V positions in part p nearest to i, else the part's ends."""
    same_part = v_by_part.get(p, [])
    lo = max((x for x in same_part if x < i), default=-1)
    hi = min((x for x in same_part if x > i), default=h.part_sizes[p])
    return lo, hi


def _walk_step(h, cur, positions) -> bool:
    """Move one vertex of cur to flip the edge at the given positions; False if none can."""
    v_by_part = _by_part(cur[i] for i in range(len(cur)) if i not in positions)
    g = [0] * h.n
    for i in positions:
        g[cur[i][0]] = cur[i][1]
    left = [[i] for i in g]
    edge = tuple(g) in h.edges
    for pos in positions:
        p, old = cur[pos]
        lo, hi = _window(h, v_by_part, p, old)
        free = [q for q in range(h.n) if q != p]
        gp = list(g)
        for b in range(lo + 1, hi):
            if (p, b) in cur:
                continue
            gp[p] = b
            if (tuple(gp) in h.edges) == edge:
                continue
            if not _mixed_agree(h, v_by_part, left, gp, free):
                continue
            cur[pos] = (p, b)
            return True
    return False


def step_certificate(
    h: PartiteHypergraph,
    wa: Sequence[Vertex],
    wb: Sequence[Vertex],
) -> VAdjacencyWitness:
    """Recover (V, flipped edge) for one walk step and verify V-adjacency."""
    wa, wb = _check_lists(h, wa, wb)
    moved = [i for i in range(len(wa)) if wa[i] != wb[i]]
    if len(moved) != 1:
        raise InputError("a step must move exactly one vertex")
    flips = walk_discrepancies(h, wa, wb)  # each one holds the moved position
    if len(flips) != 1:
        raise InputError("a step must flip exactly one cross edge")
    positions = flips[0]
    v = tuple(wa[i] for i in range(len(wa)) if i not in positions)
    g = sorted((wa[i] for i in positions), key=lambda x: x[0])
    gp = sorted((wb[i] for i in positions), key=lambda x: x[0])
    if not is_v_adjacent(h, [*g, *v], [*gp, *v], v):
        raise InputError("step fails the V-adjacency conditions")
    return VAdjacencyWitness(tuple(wa), tuple(wb), v, tuple(gp))


def random_subgraph(
    h: PartiteHypergraph,
    v: Sequence[Vertex],
    g: Sequence[int],
    s: int,
    t_prime: int = 0,
) -> list[list[int]]:
    """Greedily select s vertices per part around a reference edge g.

    Every selected vertex matches its part's reference vertex in order
    position relative to V and agrees with it on every edge mixing V with
    previously selected vertices.  Afterwards every cross tuple of the
    selection is either isomorphic or V-adjacent to the reference edge,
    and the induced subgraph must pass the level-t' extension check.
    """
    if s < 1:
        raise InputError("per-part size must be positive")
    v = [_check_vertex(h, x) for x in v]
    if len(g) != h.n:
        raise InputError("reference edge must pick one vertex per part")
    g = tuple(_check_vertex(h, x)[1] for x in enumerate(g))
    if g not in h.edges:
        raise InputError("reference tuple must be an edge")
    if any((p, i) in v for p, i in enumerate(g)):
        raise InputError("V must avoid the reference edge")
    if len(set(v)) != len(v):
        raise InputError("V must not repeat a vertex")
    chosen: list[list[int]] = [[g[p]] for p in range(h.n)]
    by_part = _by_part(v)
    for p in range(h.n):
        free = [q for q in range(h.n) if q != p]
        left = list(chosen)
        lo, hi = _window(h, by_part, p, g[p])
        for b in range(lo + 1, hi):
            if len(chosen[p]) == s:
                break
            if b == g[p]:
                continue
            left[p] = [b]
            if _mixed_agree(h, by_part, left, g, free):
                chosen[p].append(b)
        if len(chosen[p]) < s:
            raise SelectionStuckError(
                f"part {p} yielded {len(chosen[p])} of {s} vertices",
                constraints={
                    "part": p,
                    "window": (lo, hi),
                    "v_neighbours": {q: by_part.get(q, []) for q in range(h.n)},
                },
            )
    for cross in product(*chosen):
        if dichotomy_verdict(h, v, g, cross) is None:
            raise RuntimeError("selection violated the dichotomy; selection bug")
    chosen = [sorted(part) for part in chosen]
    sub_edges = frozenset(
        pos
        for pos in product(range(s), repeat=h.n)
        if tuple(part[i] for part, i in zip(chosen, pos)) in h.edges
    )
    sub = PartiteHypergraph(h.n, (s,) * h.n, sub_edges)
    if not check_extension_level(sub, t_prime):
        raise GenerationError(
            f"selected subgraph failed the level-{t_prime} extension check",
            best_t=achieved_extension_level(sub, t_prime - 1),
        )
    return chosen


def diagonal_hypergraph(h: PartiteHypergraph) -> FiniteStructure:
    """Ordered uniform hypergraph read along aligned part positions.

    Parts must share one size s; an increasing index tuple is an edge of
    the output exactly when feeding position q_i to part i hits an edge.
    """
    sizes = set(h.part_sizes)
    if len(sizes) != 1:
        raise InputError("parts must share one size")
    edges = [e for e in h.edges if all(a < b for a, b in zip(e, e[1:]))]
    return FiniteStructure(h.part_sizes[0], {"R": Relation(h.n, edges)})

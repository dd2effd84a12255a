"""Seeded random instances, naive reference implementations, and the two
fresh-interpreter memory probes that every memory test uses.

The reference functions recompute everything with frozensets of tuples
and plain loops, deliberately avoiding the bitmask representation the
package uses, so the two sides can only agree when both are right.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

from vcn import (
    BoxSpec,
    BudgetExceededError,
    ColoringProblem,
    FiniteStructure,
    GroundFamily,
    PartiteHypergraph,
    ProductUniverse,
    QfFormula,
    Relation,
    RelStructure,
    SetSystem,
    copies,
    induced,
)


def traced_peak(setup: str, call: str) -> tuple[str, int]:
    """The repr of call's result and the peak of the memory it allocates, in
    bytes, traced in a fresh interpreter after setup: a transient peak in the
    test process would stay in its peak RSS, which later tests read."""
    script = (
        f"import tracemalloc\nfrom vcn import *\n{setup}\ntracemalloc.start()\n"
        f"print(repr({call}), tracemalloc.get_traced_memory()[1])\n"
    )
    return _child(script)


def capped_rss_peak(setup: str, call: str, address_limit: int) -> tuple[str, int]:
    """The repr of call's result and the peak resident set, in bytes, of a
    fresh interpreter that caps its own address space at address_limit
    bytes before setup: a call that outgrows the cap fails there with
    MemoryError instead of exhausting the host."""
    script = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({address_limit}, {address_limit}))\n"
        f"from vcn import *\n{setup}\nresult = repr({call})\n"
        "with open('/proc/self/status') as status:\n"
        "    peak = next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
        "print(result, peak * 1024)\n"
    )
    return _child(script)


def _child(script: str) -> tuple[str, int]:
    """Run script in a fresh interpreter that prints a repr and a number."""
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result, peak = proc.stdout.rsplit(" ", 1)
    return result, int(peak)


def random_system(seed: int, n: int = 2, max_part: int = 4, max_members: int = 12) -> SetSystem:
    rng = random.Random(seed)
    sizes = tuple(rng.randint(1, max_part) for _ in range(n))
    universe = ProductUniverse(sizes)
    count = rng.randint(1, max_members)
    members = set()
    for _ in range(count):
        members.add(rng.getrandbits(universe.tuple_count))
    return SetSystem(universe, tuple(sorted(members)))


def random_family(seed: int, ground: int = 6, count: int | None = None) -> GroundFamily:
    rng = random.Random(seed)
    if count is None:
        count = rng.randint(1, min(12, 1 << ground))
    members = set()
    for _ in range(count):
        members.add(rng.getrandbits(ground))
    return GroundFamily(ground, tuple(sorted(members)))


def ref_shift(family: GroundFamily) -> GroundFamily:
    """Down-shifts to a fixpoint, one member at a time against a snapshot per element."""
    members = set(family.members)
    changed = True
    while changed:
        changed = False
        for e in range(family.ground_size):
            bit = 1 << e
            snapshot = frozenset(members)
            for c in snapshot:
                if c & bit and (c ^ bit) not in snapshot and (c ^ bit) not in members:
                    members.remove(c)
                    members.add(c ^ bit)
                    changed = True
    return GroundFamily(family.ground_size, tuple(sorted(members)))


def random_structure(
    seed: int, domain: int = 4, signature: tuple[tuple[str, int], ...] = (("R", 2),)
) -> FiniteStructure:
    rng = random.Random(seed)
    rels = {}
    for name, arity in signature:
        tuples = frozenset(
            t for t in product(range(domain), repeat=arity) if rng.getrandbits(1)
        )
        rels[name] = Relation(arity, tuples)
    return FiniteStructure(domain, rels)


# --- reference views of set systems ---------------------------------------


def member_sets(system: SetSystem) -> list[frozenset]:
    """Members as frozensets of universe tuples."""
    out = []
    for mask in system.members:
        cells = set()
        for idx in range(system.universe.tuple_count):
            if mask >> idx & 1:
                cells.add(system.universe.index_tuple(idx))
        out.append(frozenset(cells))
    return out


def ref_trace(system: SetSystem, selections) -> set[frozenset]:
    """Trace on the box as a set of frozensets of box cells."""
    cells = set(product(*selections))
    return {member & cells for member in member_sets(system)}


def ref_is_shattered(system: SetSystem, selections) -> bool:
    cells = list(product(*selections))
    want = 1 << len(cells)
    return len(ref_trace(system, selections)) == want


def ref_shatter(system: SetSystem, m: int) -> int:
    best = 0
    pools = [combinations(range(s), m) for s in system.universe.part_sizes]
    for selections in product(*pools):
        best = max(best, len(ref_trace(system, selections)))
    if m == 0:
        return 1 if system.members else 0
    return best


def ref_dim(system: SetSystem) -> int:
    best = 0
    for m in range(1, min(system.universe.part_sizes) + 1):
        pools = [combinations(range(s), m) for s in system.universe.part_sizes]
        if any(ref_is_shattered(system, sel) for sel in product(*pools)):
            best = m
        else:
            break
    return best


def ref_gather(system: SetSystem, box: BoxSpec) -> list[int]:
    """Each member restricted to the box cells, one shift per member and cell.

    Bit i stands for the i-th cell of the box grid, row-major in the
    box's own selection order.
    """
    cells = box.cell_indices(system.universe)
    out = []
    for member in system.members:
        t = 0
        for i, cell in enumerate(cells):
            if member >> cell & 1:
                t |= 1 << i
        out.append(t)
    return out


# --- reference formula evaluation ------------------------------------------


def ref_eval(structure: FiniteStructure, phi: QfFormula, assignment) -> bool:
    """phi under one tuple per block, by recursion on the formula; assumes
    the relations exist with the arities the atoms use."""

    def holds(node) -> bool:
        op = node[0]
        if op == "atom":
            values = tuple(assignment[b][c] for b, c in node[2])
            return values in structure.relations[node[1]].tuples
        if op == "eq":
            (b1, c1), (b2, c2) = node[1], node[2]
            return assignment[b1][c1] == assignment[b2][c2]
        if op == "not":
            return not holds(node[1])
        if op == "and":
            return all(holds(child) for child in node[1:])
        return any(holds(child) for child in node[1:])

    return holds(phi.body)


def ref_encodes(structure: FiniteStructure, phi: QfFormula, fam, hypergraph) -> bool:
    """Whether phi holds on exactly the edges, one cross tuple at a time."""
    for cross in product(*(range(s) for s in hypergraph.part_sizes)):
        env = [fam.tuples[p, i] for p, i in enumerate(cross)]
        if ref_eval(structure, phi, env) != (cross in hypergraph.edges):
            return False
    return True


def _ref_edges(s: FiniteStructure):
    """The arity of a structure's relation R and its tuples as vertex sets,
    or (None, None) without R."""
    r = s.relations.get("R")
    return (None, None) if r is None else (r.arity, {frozenset(t) for t in r.tuples})


def ref_indiscernible(fam, reduct, structure: FiniteStructure, delta, arity_cap: int):
    """True, or the first pair of index tuples (lengths 1..arity_cap, each in
    product order) with equal reduct types and unequal delta types.

    Vertices compare by the index order (part-major for a partite
    hypergraph); a delta type is every formula at every map from the
    blocks into the tuple.
    """
    index = fam.index
    if isinstance(index, PartiteHypergraph):
        vertices = [(p, i) for p, size in enumerate(index.part_sizes) for i in range(size)]
        part = {v: v[0] for v in vertices}
        arity = index.n
        edges = {frozenset(enumerate(e)) for e in index.edges}
    else:
        vertices = list(range(index.size))
        sizes = index.part_sizes or (index.size,)
        part = dict(enumerate(p for p, size in enumerate(sizes) for _ in range(size)))
        arity, edges = _ref_edges(index)
    blocks = len(delta[0].block_lengths)

    def reduct_type(w):
        pairs = list(combinations(w, 2))
        if "order" in reduct:
            signs = tuple((a > b) - (a < b) for a, b in pairs)
        else:
            signs = tuple(a != b for a, b in pairs)
        parts = tuple(part[v] for v in w) if "parts" in reduct else None
        hits = None
        if "edge" in reduct and arity:
            hits = tuple(frozenset(s) in edges for s in combinations(w, arity))
        return signs, parts, hits

    def delta_type(w):
        return tuple(
            ref_eval(structure, phi, [fam.tuples[w[i]] for i in sigma])
            for sigma in product(range(len(w)), repeat=blocks)
            for phi in delta
        )

    for length in range(1, arity_cap + 1):
        first = {}
        for w in product(vertices, repeat=length):
            key, value = reduct_type(w), delta_type(w)
            if key not in first:
                first[key] = (w, value)
            elif first[key][1] != value:
                return first[key][0], w
    return True


# --- reference type counting -----------------------------------------------


def ref_types(structure: FiniteStructure, delta, lists) -> set[tuple[bool, ...]]:
    """Distinct truth patterns of the object tuples on the product of lists,
    evaluated one assignment at a time."""
    objects = product(range(structure.size), repeat=delta[0].block_lengths[0])
    cells = list(product(*lists))
    return {
        tuple(ref_eval(structure, phi, (b, *cell)) for phi in delta for cell in cells)
        for b in objects
    }


def ref_pi_phi(structure: FiniteStructure, delta, m: int) -> int:
    """Maximum type count over all parameter boxes of size m, box by box."""
    spaces = [
        list(product(range(structure.size), repeat=length))
        for length in delta[0].block_lengths[1:]
    ]
    return max(
        len(ref_types(structure, delta, boxes))
        for boxes in product(*(combinations(space, m) for space in spaces))
    )


def ref_dim_phi(structure: FiniteStructure, phi: QfFormula) -> int:
    """Largest m such that some box of size m per block realizes all
    2 ** m ** n patterns, box by box."""
    spaces = [structure.size**length for length in phi.block_lengths[1:]]
    m = 0
    while m < min(spaces) and ref_pi_phi(structure, [phi], m + 1) == 1 << (m + 1) ** len(spaces):
        m += 1
    return m


def random_formula(rng: random.Random, lengths, signature, depth: int = 2) -> QfFormula:
    """Random formula over the blocks: atoms (variables may repeat), equalities,
    negations, conjunctions and disjunctions."""
    variables = [(b, c) for b, length in enumerate(lengths) for c in range(length)]

    def node(d):
        kind = rng.choice(["atom", "atom", "eq"] if d == 0 else ["atom", "eq", "not", "and", "or"])
        if kind == "atom":
            name, arity = rng.choice(signature)
            return ("atom", name, tuple(rng.choice(variables) for _ in range(arity)))
        if kind == "eq":
            return ("eq", rng.choice(variables), rng.choice(variables))
        if kind == "not":
            return ("not", node(d - 1))
        return (kind, *(node(d - 1) for _ in range(rng.randint(1, 3))))

    return QfFormula(tuple(lengths), node(depth))


# --- reference box-free threshold ------------------------------------------


def ref_has_box(edges: set, n: int, m: int, d: int) -> bool:
    if d > m:
        return False
    for selections in product(*(combinations(range(m), d) for _ in range(n))):
        if all(t in edges for t in product(*selections)):
            return True
    return False


def ref_zar(n: int, m: int, d: int) -> int:
    """Exhaustive threshold over all edge sets; only for tiny m**n."""
    cells = list(product(range(m), repeat=n))
    best = 0
    for mask in range(1 << len(cells)):
        edges = {cells[i] for i in range(len(cells)) if mask >> i & 1}
        if len(edges) > best and not ref_has_box(edges, n, m, d):
            best = len(edges)
    return best + 1


# --- reference extension check ---------------------------------------------


def ref_extension_ok(h, t: int) -> bool:
    """Naive level-t check; enumerates instances in a different order."""
    for j in range(h.n):
        size = h.part_sizes[j]
        others = list(product(*(range(h.part_sizes[p]) for p in range(h.n) if p != j)))

        def relates(b, tup):
            full = list(tup)
            full.insert(j, b)
            return tuple(full) in h.edges

        # windows keyed by endpoint count
        windows = {(lo, hi) for lo in [None, *range(size)] for hi in [None, *range(size)]}
        for lo, hi in windows:
            start = 0 if lo is None else lo + 1
            stop = size if hi is None else hi
            interior = list(range(start, stop))
            if not interior:
                continue
            wcost = (lo is not None) + (hi is not None)
            if wcost > t:
                continue
            budget = t - wcost
            for signs in product((0, 1, None), repeat=len(others)):
                picked = [(tup, s) for tup, s in zip(others, signs) if s is not None]
                if len(picked) > budget:
                    continue
                ok = any(
                    all(relates(b, tup) == bool(s) for tup, s in picked)
                    for b in interior
                )
                if not ok:
                    return False
    return True


# --- reference V-adjacency -------------------------------------------------


def _ref_v_conditions(h, w, w_prime) -> tuple[bool, bool]:
    """(map and mixed edges agree, full edge differs) for w -> w_prime.

    Both lists start with one vertex per part (g, then g') followed by
    the shared tail V; vertices are (part, position) pairs.
    """
    n = h.n
    if len(set(w)) != len(w) or len(set(w_prime)) != len(w_prime):
        return False, False
    # the natural map w_i -> w'_i keeps parts and the part-major order
    pairs = list(zip(w, w_prime))
    if any(a[0] != b[0] for a, b in pairs):
        return False, False
    for (a, b), (c, d) in combinations(pairs, 2):
        if (a < c) != (b < d):
            return False, False

    def edge(verts, picks):
        return tuple(verts[i][1] for i in picks) in h.edges

    by_part = [[i for i, x in enumerate(w) if x[0] == p] for p in range(n)]
    for picks in product(*by_part):
        from_g = sum(i < n for i in picks)
        if 0 < from_g < n and edge(w, picks) != edge(w_prime, picks):
            return False, False
    full = tuple(range(n))
    return True, edge(w, full) != edge(w_prime, full)


def ref_v_adjacent(h, w, w_prime, v) -> bool:
    """V-adjacency from the definition: an order-and-parts map, every
    cross tuple using both a V vertex and a moved vertex agrees, and the
    full cross edge differs."""
    assert list(w[h.n :]) == list(v) == list(w_prime[h.n :])
    agree, differs = _ref_v_conditions(h, w, w_prime)
    return agree and differs


def ref_dichotomy(h, v, g, cross) -> str | None:
    """'iso' or 'adjacent' when map and mixed edges agree, else None."""
    gv = [(p, i) for p, i in enumerate(g)] + list(v)
    cv = [(p, i) for p, i in enumerate(cross)] + list(v)
    agree, differs = _ref_v_conditions(h, gv, cv)
    if not agree:
        return None
    return "adjacent" if differs else "iso"


def random_v_instance(seed: int, n: int):
    """(h, v, g, g'), g' often moving one vertex; V mostly avoids g and g'."""
    rng = random.Random(seed)
    sizes = tuple(rng.randint(3, 5) for _ in range(n))
    density = rng.choice([0.2, 0.5, 0.8])
    edges = frozenset(
        t for t in product(*(range(s) for s in sizes)) if rng.random() < density
    )
    h = PartiteHypergraph(n, sizes, edges)
    g = [rng.randrange(s) for s in sizes]
    gp = list(g)
    for p in rng.sample(range(n), 1 if rng.random() < 0.6 else rng.randint(1, n)):
        gp[p] = rng.randrange(sizes[p])
    through_ends = rng.random() < 0.15
    free = [
        (p, i)
        for p in range(n)
        for i in range(sizes[p])
        if through_ends or i not in (g[p], gp[p])
    ]
    v = sorted(rng.sample(free, min(len(free), rng.randint(1, 4))))
    return h, v, g, gp


# --- reference arrow scan --------------------------------------------------


def ref_arrow_scan(problem: ColoringProblem, budget: int = 1 << 20) -> tuple[bool, int]:
    """Walk every coloring in product order over the A-copies in colex
    order (by the reversed tuple); stop at the first bad one."""
    a_copies = sorted(copies(problem.c, problem.a).embeddings, key=lambda e: e[::-1])
    b_copies = copies(problem.c, problem.b).embeddings
    inner = copies(problem.b, problem.a).embeddings
    total = problem.k ** len(a_copies)
    if total > budget:
        raise BudgetExceededError(
            f"{total} colorings exceed the budget of {budget}; refusing to sample"
        )
    index = {emb: i for i, emb in enumerate(a_copies)}
    b_sets = []
    for emb_b in b_copies:
        b_sets.append(tuple(index[tuple(emb_b[v] for v in e)] for e in inner))
    checked = 0
    for coloring in product(range(problem.k), repeat=len(a_copies)):
        checked += 1
        mono = False
        for bs in b_sets:
            if not bs:
                mono = True  # no inner copies: constant vacuously
                break
            first = coloring[bs[0]]
            if all(coloring[i] == first for i in bs):
                mono = True
                break
        if not mono:
            return False, checked
    return True, checked


def random_ordered(
    rng: random.Random, size: int, arity: int | None, parts: int | None
) -> FiniteStructure:
    """Ordered structure with random convex parts and random edges."""
    part_sizes = None
    if parts is not None:
        cuts = sorted(rng.randint(0, size) for _ in range(parts - 1))
        part_sizes = tuple(b - a for a, b in zip([0, *cuts], [*cuts, size]))
    edges = None
    if arity is not None:
        edges = frozenset(
            frozenset(e) for e in combinations(range(size), arity) if rng.random() < 0.5
        )
    return RelStructure(size, part_sizes, arity, edges)


def _ref_part_of(structure: FiniteStructure, v: int) -> int | None:
    if structure.part_sizes is None:
        return None
    start = 0
    for p, size in enumerate(structure.part_sizes):
        start += size
        if v < start:
            return p


def ref_copies(target: FiniteStructure, source: FiniteStructure) -> tuple | None:
    """Copies of source in target, pointwise; None when signatures disagree.

    An increasing selection counts when each selected vertex lies in the
    part of the source vertex it stands for, and an index tuple of the
    source is an edge exactly when the target vertices it selects are.
    """
    (arity, source_edges), (target_arity, target_edges) = _ref_edges(source), _ref_edges(target)
    if (
        (target.part_sizes is None) != (source.part_sizes is None)
        or len(target.part_sizes or ()) != len(source.part_sizes or ())
        or target_arity != arity
    ):
        return None
    found = []
    for sel in combinations(range(target.size), source.size):
        if any(_ref_part_of(target, v) != _ref_part_of(source, i) for i, v in enumerate(sel)):
            continue
        if source_edges is not None and any(
            (frozenset(idx) in source_edges) != (frozenset(sel[i] for i in idx) in target_edges)
            for idx in combinations(range(source.size), arity)
        ):
            continue
        found.append(sel)
    return tuple(found)


def ref_closure(structures) -> list[FiniteStructure]:
    """Induced substructures deduplicated by an explicit key, in the documented order.

    The structures must share one signature.  The key is (size, part
    sizes or (), arity or -1, sorted edge tuples), read off each vertex
    subset pointwise; sorting the distinct keys gives the order.
    """
    keys = set()
    for s in structures:
        for r in range(s.size + 1):
            for sub in combinations(range(s.size), r):
                parts = ()
                if s.part_sizes is not None:
                    parts = tuple(
                        sum(_ref_part_of(s, v) == p for v in sub)
                        for p in range(len(s.part_sizes))
                    )
                arity, s_edges = _ref_edges(s)
                edges = ()
                if s_edges is not None:
                    edges = tuple(
                        idx
                        for idx in combinations(range(r), arity)
                        if frozenset(sub[i] for i in idx) in s_edges
                    )
                arity = -1 if arity is None else arity
                keys.add((r, parts, arity, edges))
    return [
        RelStructure(
            size,
            None if structures[0].part_sizes is None else parts,
            None if arity == -1 else arity,
            None if arity == -1 else frozenset(map(frozenset, edges)),
        )
        for size, parts, arity, edges in sorted(keys)
    ]


def random_arrow_problem(seed: int) -> ColoringProblem:
    """Small arrow problem: plain sets, ordered graphs or 3-graphs, maybe parts.

    B is usually an induced substructure of C and A one of B, so copies
    exist; otherwise A or B is drawn on its own and may embed nowhere.
    """
    rng = random.Random(seed)
    arity = rng.choice([None, 2, 3])
    parts = rng.choice([None, None, 1, 2])
    k = rng.randint(1, 3)
    c = random_ordered(rng, rng.randint(0, 7), arity, parts)
    if rng.random() < 0.8:
        b = induced(c, rng.sample(range(c.size), rng.randint(0, c.size)))
    else:
        b = random_ordered(rng, rng.randint(0, 4), arity, parts)
    if rng.random() < 0.8:
        a = induced(b, rng.sample(range(b.size), rng.randint(0, max(0, min(b.size - 1, 3)))))
    else:
        a = random_ordered(rng, rng.randint(0, 3), arity, parts)
    return ColoringProblem(a, b, c, k)


def random_copy_pair(seed: int) -> tuple[FiniteStructure, FiniteStructure]:
    """Target and source; the source is usually induced, else drawn anew.

    One source in five gets its own signature, which may disagree with
    the target's.
    """
    rng = random.Random(seed)
    arity = rng.choice([None, 2, 3])
    parts = rng.choice([None, 1, 2, 3])
    target = random_ordered(rng, rng.randint(0, 8), arity, parts)
    if rng.random() < 0.2:
        arity, parts = rng.choice([None, 2, 3]), rng.choice([None, 1, 2, 3])
        return target, random_ordered(rng, rng.randint(0, 4), arity, parts)
    if rng.random() < 0.6:
        size = min(target.size, rng.randint(0, 4))
        return target, induced(target, rng.sample(range(target.size), size))
    return target, random_ordered(rng, rng.randint(0, 4), arity, parts)

"""Finite structures, quantifier-free formulas, and parameter-type counting.

A structure is the library's one FiniteStructure, defined in errors
beside PartiteHypergraph: a domain, named relations and optional parts.
Its parts and order matter only where it indexes a family of indiscernibles.

A formula here is quantifier-free with positional variable blocks: block 0
is the object block (rendered "x"), blocks 1..n are parameter blocks
(rendered "y0", "y1", ...).  Every block has a declared length, so a block
is assigned a tuple of domain elements.  Evaluating a formula over all
object tuples against a fixed structure yields a set system over the
product of the parameter tuple spaces; counting distinct truth patterns of
object tuples against finite parameter boxes counts realized types.  The
two views agree cell by cell, and the test suite checks that agreement
directly.  Every evaluation here, from one assignment (eval_formula) to
the encoding and indiscernibility checks, reads one evaluator, which
compiles each formula once and builds one object tuple's truth pattern
at a time; type counting over all boxes is the shatter function of the
delta-type system.

Formulas are exchanged as s-expressions, e.g.::

    (and (R x y0 y1) (not (= x y0)))

Variable tokens name a block ("x", "y0", "y1", ...) with an optional
component suffix ("x.2" is component 2 of block 0).  A token is x or
y<n>, optionally followed by .<c>, where n and c are ASCII numerals
without a leading zero; any other token is an unknown variable.  The
parser only spells the AST; QfFormula is the one place that checks
arities and variable ranges, however a formula was built.
"""

from __future__ import annotations

import re
from functools import cache, reduce
from itertools import chain, combinations, product
from math import prod
from operator import and_, getitem, or_
from typing import Callable, Iterable, Mapping, Sequence

from .errors import FiniteStructure, InputError, PartiteHypergraph
from .errors import Record, Relation, _bits
from .setsys import ProductUniverse, SetSystem, _max_trace, _rows, vc_n_dim


# Formula AST nodes are nested tuples:
#   ("atom", name, ((block, comp), ...))
#   ("eq", (block, comp), (block, comp))
#   ("not", node) / ("and", node, ...) / ("or", node, ...)


class QfFormula(Record):
    """Quantifier-free formula over positional variable blocks."""

    block_lengths: tuple[int, ...]
    body: tuple

    def __post_init__(self):
        lengths = tuple(int(v) for v in self.block_lengths)
        if len(lengths) < 2:
            raise InputError("a formula needs an object block and a parameter block")
        if any(v < 1 for v in lengths):
            raise InputError("block lengths must be positive")
        object.__setattr__(self, "block_lengths", lengths)
        _validate_node(self.body, lengths)

    @property
    def n(self) -> int:
        """Number of parameter blocks."""
        return len(self.block_lengths) - 1

    def __str__(self) -> str:
        return format_formula(self)


def _var_token(var: tuple[int, int]) -> str:
    """The token of a (block, component) pair: x, x.2, y0, y1.3, ..."""
    block, comp = var
    name = "x" if block == 0 else f"y{block - 1}"
    return name if comp == 0 else f"{name}.{comp}"


def _parse_var(token: str) -> tuple[int, int]:
    """The (block, component) pair a variable token names."""
    match = re.fullmatch(r"(?:x|y(0|[1-9][0-9]*))(?:\.(0|[1-9][0-9]*))?", token)
    if match is None:
        raise InputError(f"unknown variable {token!r}")
    block, comp = match.groups()
    return (0 if block is None else 1 + int(block), int(comp or 0))


def _validate_node(node, lengths):
    """Check a node's shape, arities and variable ranges against the blocks."""
    if not isinstance(node, tuple) or not node:
        raise InputError(f"bad formula node {node!r}")
    op = node[0]
    if op in ("atom", "eq"):
        if len(node) != 3 or op == "atom" and not (
            isinstance(node[1], str) and isinstance(node[2], tuple)
        ):
            raise InputError(f"bad formula node {node!r}")
        for var in node[2] if op == "atom" else node[1:]:
            block, comp = var if isinstance(var, tuple) and len(var) == 2 else (None, None)
            if not isinstance(block, int) or not isinstance(comp, int) or block < 0:
                raise InputError(f"variable {var!r} is not a (block, component) pair")
            if block >= len(lengths) or not 0 <= comp < lengths[block]:
                raise InputError(f"variable {_var_token(var)!r} leaves the declared blocks")
    elif op == "not":
        if len(node) != 2:
            raise InputError("negation takes one argument")
        _validate_node(node[1], lengths)
    elif op in ("and", "or"):
        if len(node) < 2:
            raise InputError(f"{op} needs at least one argument")
        for child in node[1:]:
            _validate_node(child, lengths)
    else:
        raise InputError(f"unknown operator {op!r}")


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise InputError("unexpected end of formula")
    tok = tokens[pos]
    if tok == "(":
        out = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos)
            out.append(item)
        if pos >= len(tokens):
            raise InputError("unbalanced parentheses")
        return out, pos + 1
    if tok == ")":
        raise InputError("unexpected ')'")
    return tok, pos + 1


def _to_node(sexpr):
    """The AST node an s-expression spells; QfFormula checks it.

    A bare token or an empty list stays as it is, for QfFormula to reject.
    """
    if not isinstance(sexpr, list) or not sexpr:
        return sexpr
    head, *args = sexpr
    if head in ("not", "and", "or"):
        return (head, *map(_to_node, args))
    vars_ = tuple(_parse_var(a) if isinstance(a, str) else _to_node(a) for a in args)
    return ("eq", *vars_) if head == "=" else ("atom", head, vars_)


def parse_formula(text: str, block_lengths: Sequence[int] = (1, 1)) -> QfFormula:
    """Parse an s-expression against declared block lengths."""
    tokens = _tokenize(text)
    if not tokens:
        raise InputError("empty formula")
    sexpr, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise InputError("trailing tokens after formula")
    return QfFormula(block_lengths, _to_node(sexpr))


def format_formula(phi: QfFormula) -> str:
    def render(node):
        op = node[0]
        if op == "atom":
            return "(" + " ".join([node[1], *map(_var_token, node[2])]) + ")"
        if op == "eq":
            return f"(= {_var_token(node[1])} {_var_token(node[2])})"
        if op == "not":
            return f"(not {render(node[1])})"
        return "(" + " ".join([op, *map(render, node[1:])]) + ")"

    return render(phi.body)


def negate(phi: QfFormula) -> QfFormula:
    return QfFormula(phi.block_lengths, ("not", phi.body))


def conjoin(phi: QfFormula, psi: QfFormula) -> QfFormula:
    if phi.block_lengths != psi.block_lengths:
        raise InputError("conjunction needs matching block shapes")
    return QfFormula(phi.block_lengths, ("and", phi.body, psi.body))


def permute_blocks(phi: QfFormula, perm: Sequence[int]) -> QfFormula:
    """Reorder parameter blocks: new block j is the old block perm[j].

    The object block must stay in place; exchanging it with a parameter
    block would change which family the formula defines, not merely
    relabel it.
    """
    perm = tuple(int(v) for v in perm)
    if sorted(perm) != list(range(len(phi.block_lengths))):
        raise InputError("perm must rearrange all blocks")
    if perm[0] != 0:
        raise InputError("the object block cannot move")
    position = {old: new for new, old in enumerate(perm)}

    def remap(node):
        op = node[0]
        if op == "atom":
            return ("atom", node[1], tuple((position[b], c) for b, c in node[2]))
        if op == "eq":
            b1, c1 = node[1]
            b2, c2 = node[2]
            return ("eq", (position[b1], c1), (position[b2], c2))
        if op == "not":
            return ("not", remap(node[1]))
        return (op, *(remap(child) for child in node[1:]))

    lengths = tuple(phi.block_lengths[old] for old in perm)
    return QfFormula(lengths, remap(phi.body))


def eval_formula(
    structure: FiniteStructure, phi: QfFormula, assignment: Sequence[Sequence[int]]
) -> bool:
    """Evaluate phi under one tuple per block."""
    lists = _block_lists(structure, [[t] for t in assignment], phi.block_lengths, "assignment")
    return _types(structure, [phi], lists)(lists[0][0]) == 1


def block_tuples(structure: FiniteStructure, length: int) -> list[tuple[int, ...]]:
    """All length-long domain tuples in row-major order."""
    return list(product(range(structure.size), repeat=length))


def _types(
    structure: FiniteStructure, delta: Sequence[QfFormula], lists: Sequence[Sequence]
) -> Callable[[tuple], int]:
    """The truth pattern, as an int, of an object tuple of lists[0].

    Each formula is compiled once; a pattern is built when it is asked
    for, one object tuple at a time.  Bit f * cells + g holds formula f on
    cell g of the row-major product of the parameter lists.
    """
    sizes = [len(lst) for lst in lists]
    strides = [prod(sizes[j + 1 :]) for j in range(len(sizes))]
    cells = strides[0]
    full = (1 << cells) - 1
    diagonal = frozenset((v, v) for v in range(structure.size))

    def cylinder(vars_, tuples):
        """The cells whose values at vars_ form a tuple in tuples, by object tuple."""
        if not cells:
            return lambda t: 0
        # comps[b]: the components of block b that vars_ reads, for block 0 and each it reads
        blocks = sorted({0, *(b for b, _ in vars_)})
        comps = {b: sorted({c for bb, c in vars_ if bb == b}) for b in blocks}
        # offsets[b][key]: bit offsets of the block-b tuples whose values at comps[b] are key
        offsets = {}
        for b, cs in comps.items():
            groups = offsets[b] = {}
            for p, t in enumerate(lists[b]):
                groups.setdefault(tuple(t[c] for c in cs), []).append(p * strides[b])
        # keys[k]: the parameter-block keys of the satisfying assignments, by object key k
        keys = {k: [] for k in offsets[0]}
        if len(tuples) < prod(map(len, offsets.values())):
            # a key reads each component where vars_ first names it; repeats must agree
            pos = [[vars_.index((b, c)) for c in cs] for b, cs in comps.items()]
            same = [(i, vars_.index(var)) for i, var in enumerate(vars_) if vars_.index(var) < i]
            for t in tuples:
                if all(t[i] == t[j] for i, j in same):
                    key = [tuple([t[i] for i in ps]) for ps in pos]
                    if all(k in offsets[b] for k, b in zip(key, comps)):
                        keys[key[0]].append(key[1:])
        else:
            slots = [(blocks.index(b), comps[b].index(c)) for b, c in vars_]
            for key in product(*offsets.values()):
                if tuple(key[i][j] for i, j in slots) in tuples:
                    keys[key[0]].append(key[1:])
        tables = [offsets[b] for b in blocks[1:]]

        def build(k) -> int:
            spots = (product(*map(getitem, tables, key)) for key in keys[k])
            mask = _bits(map(sum, chain.from_iterable(spots)), cells)
            # the blocks vars_ leaves free: every position, by one carry-free product
            for b, size in enumerate(sizes):
                if b not in comps:
                    mask *= _bits(range(0, size * strides[b], strides[b]), size * strides[b])
            return mask

        # a per-object memo would hold the whole space again
        if len(offsets[0]) < len(lists[0]):
            build = cache(build)
        return lambda t: build(tuple(t[c] for c in comps[0]))

    def compile_(node):
        op = node[0]
        if op == "atom":
            name, vars_ = node[1], node[2]
            rel = structure.relations.get(name)
            if rel is None:
                raise InputError(f"unknown relation {name}")
            if rel.arity != len(vars_):
                raise InputError(
                    f"relation {name} expects arity {rel.arity}, got {len(vars_)}"
                )
            return cylinder(vars_, rel.tuples)
        if op == "eq":
            return cylinder(node[1:], diagonal)
        if op == "not":
            inner = compile_(node[1])
            return lambda t: full ^ inner(t)
        parts = [compile_(child) for child in node[1:]]
        join = and_ if op == "and" else or_
        return lambda t: reduce(join, [part(t) for part in parts])

    formulas = [compile_(phi.body) for phi in delta]
    return lambda t: sum(f(t) << i * cells for i, f in enumerate(formulas))


def phi_class(structure: FiniteStructure, phi: QfFormula) -> SetSystem:
    """Set system of phi's definable sets, one member per object tuple.

    The universe has one part per parameter block, of size
    domain ** block_length, with parameter tuples indexed row-major.
    """
    spaces = [block_tuples(structure, l) for l in phi.block_lengths]
    universe = ProductUniverse(tuple(len(s) for s in spaces[1:]))
    members = set(map(_types(structure, [phi], spaces), spaces[0]))
    return SetSystem(universe, tuple(sorted(members)))


class TypeCount(Record):
    boxes: tuple[tuple[tuple[int, ...], ...], ...]
    count: int


def _check_delta(delta: Sequence[QfFormula]) -> tuple[int, ...]:
    if not delta:
        raise InputError("delta must contain at least one formula")
    shape = delta[0].block_lengths
    for phi in delta:
        if phi.block_lengths != shape:
            raise InputError("all formulas in delta must share block lengths")
    return shape


def _block_lists(
    structure: FiniteStructure, lists: Sequence, lengths: Sequence[int], kind: str,
    nonempty: bool = False,
) -> list[tuple[tuple[int, ...], ...]]:
    """One checked tuple list per block, of the given lengths; kind names them in errors."""
    if len(lists) != len(lengths):
        raise InputError(f"one {kind} list per block required")
    norm = []
    for lst, length in zip(lists, lengths):
        lst = tuple(tuple(int(v) for v in t) for t in lst)
        if nonempty and not lst:
            raise InputError(f"{kind} lists must be nonempty")
        for t in lst:
            if len(t) != length:
                raise InputError(f"{kind} tuple {t} does not match block length {length}")
            if any(not 0 <= v < structure.size for v in t):
                raise InputError(f"{kind} tuple {t} leaves the domain")
        if len(set(lst)) != len(lst):
            raise InputError(f"{kind} tuples must be distinct")
        norm.append(lst)
    return norm


def count_types(
    structure: FiniteStructure,
    delta: Sequence[QfFormula],
    boxes: Sequence[Sequence[Sequence[int]]],
) -> TypeCount:
    """Number of distinct truth patterns of object tuples on the boxes."""
    shape = _check_delta(delta)
    norm = _block_lists(structure, boxes, shape[1:], "box")
    objects = block_tuples(structure, shape[0])
    patterns = set(map(_types(structure, delta, [objects, *norm]), objects))
    return TypeCount(tuple(norm), len(patterns))


def pi_phi(structure: FiniteStructure, delta: Sequence[QfFormula], m: int) -> int:
    """Maximum type count over all parameter boxes of size m per block.

    This is a shatter function of the delta-type system: one member per
    object tuple over the universe (formula, parameter tuple of each
    block), where every box takes the formula coordinate whole.
    """
    shape = _check_delta(delta)
    if m < 0:
        raise InputError("box size must be nonnegative")
    spaces = [block_tuples(structure, l) for l in shape]
    if any(m > len(s) for s in spaces[1:]):
        raise InputError(f"box size {m} exceeds a parameter tuple space")
    types = list(set(map(_types(structure, delta, spaces), spaces[0])))
    sizes = [len(delta), *map(len, spaces[1:])]
    return _max_trace(types, sizes, [len(delta)] + [m] * (len(sizes) - 1), 0)


def dim_phi(
    structure: FiniteStructure, phi: QfFormula, size_cap: int | None = None
) -> int:
    """Box dimension of the formula's definable family."""
    return vc_n_dim(phi_class(structure, phi), size_cap)


def verify_ipn_witness(
    structure: FiniteStructure, phi: QfFormula, params: Sequence[Sequence[Sequence[int]]]
) -> bool:
    """Check that every 0/1 pattern on the parameter grid is realized.

    The grid is the index product over the given parameter lists; a
    pattern s is realized when some object tuple satisfies phi exactly on
    the cells in s.  Each object tuple realizes one pattern, so with fewer
    object tuples than the 2 ** cells patterns the answer is False before
    any pattern is built.  There is no budget: the check is exact, and a
    pattern it builds never holds more than log2(objects) bits.
    """
    norm = _block_lists(structure, params, phi.block_lengths[1:], "parameter", True)
    cells = prod(map(len, norm))
    objects = block_tuples(structure, phi.block_lengths[0])
    pattern = _types(structure, [phi], [objects, *norm])  # a bad formula raises on any grid
    if len(objects).bit_length() <= cells:
        return False
    return len(set(map(pattern, objects))) == 1 << cells


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

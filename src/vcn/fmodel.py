"""Finite structures, quantifier-free formulas, and parameter-type counting.

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
turns each formula into one bitmask over an assignment space, so type
counting over all boxes is the shatter function of the delta-type system.

Formulas are exchanged as s-expressions, e.g.::

    (and (R x y0 y1) (not (= x y0)))

Variable tokens name a block ("x", "y0", "y1", ...) with an optional
component suffix ("x.2" is component 2 of block 0).
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import chain, combinations, product
from math import prod
from operator import and_, mul, or_
from typing import Iterable, Mapping, Sequence

from .errors import _STRUCTURE_SHAPE, BudgetExceededError, InputError, Record, _decode
from .setsys import ProductUniverse, SetSystem, _max_trace, vc_n_dim


class Relation(Record):
    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.arity < 1:
            raise InputError("relation arity must be positive")
        tups = frozenset(tuple(int(v) for v in t) for t in self.tuples)
        for t in tups:
            if len(t) != self.arity:
                raise InputError(f"tuple {t} does not match arity {self.arity}")
        object.__setattr__(self, "tuples", tups)


class FiniteStructure(Record):
    """Finite relational structure on domain {0..domain_size-1}."""

    domain_size: int
    relations: Mapping[str, Relation]

    def __post_init__(self):
        if self.domain_size < 1:
            raise InputError("domain must be nonempty")
        rels = dict(self.relations)
        for name, rel in rels.items():
            for t in rel.tuples:
                if any(not 0 <= v < self.domain_size for v in t):
                    raise InputError(f"relation {name} tuple {t} leaves the domain")
        object.__setattr__(self, "relations", rels)

    def holds(self, name: str, t: Sequence[int]) -> bool:
        rel = self.relations.get(name)
        if rel is None:
            raise InputError(f"unknown relation {name}")
        if len(t) != rel.arity:
            raise InputError(f"relation {name} expects arity {rel.arity}, got {len(t)}")
        return tuple(t) in rel.tuples

    def to_json(self) -> str:
        doc = {
            "domain": self.domain_size,
            "relations": {
                name: {"arity": rel.arity, "tuples": sorted(list(t) for t in rel.tuples)}
                for name, rel in sorted(self.relations.items())
            },
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FiniteStructure":
        def build(doc):
            rels = {
                name: Relation(spec["arity"], frozenset(map(tuple, spec["tuples"])))
                for name, spec in doc["relations"].items()
            }
            return cls(doc["domain"], rels)

        return _decode(text, "structure", build, _STRUCTURE_SHAPE)


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
    from .zar import build_extremal_family

    sizes = [int(m) for m in m_range]
    if any(m < 1 for m in sizes):
        raise InputError("block sizes must be positive")
    fam = build_extremal_family(2, 1, sizes, node_budget)
    ground = fam.universe.part_sizes[0]
    count = len(fam.members)
    tuples = set()
    for idx, member in enumerate(fam.members):
        for a0, a1 in fam.member_tuples(member):
            tuples.add((idx, count + a0, count + a1))
    return FiniteStructure(
        count + ground, {"R": Relation(3, frozenset(tuples))}
    )


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


def _block_name(index: int) -> str:
    return "x" if index == 0 else f"y{index - 1}"


def _parse_var(token: str, lengths: tuple[int, ...]):
    name, _, comp = token.partition(".")
    try:
        comp_idx = int(comp) if comp else 0
    except ValueError:
        raise InputError(f"unknown variable {token!r}") from None
    if name == "x":
        block = 0
    elif name.startswith("y") and name[1:].isdecimal():
        block = 1 + int(name[1:])
    else:
        raise InputError(f"unknown variable {token!r}")
    if block >= len(lengths) or not 0 <= comp_idx < lengths[block]:
        raise InputError(f"variable {token!r} leaves the declared blocks")
    return (block, comp_idx)


def _validate_node(node, lengths):
    if not isinstance(node, tuple) or not node:
        raise InputError(f"bad formula node {node!r}")
    op = node[0]
    if op in ("atom", "eq"):
        if len(node) != 3 or op == "atom" and not isinstance(node[2], tuple):
            raise InputError(f"bad formula node {node!r}")
        for var in node[2] if op == "atom" else node[1:]:
            block, comp = var if isinstance(var, tuple) and len(var) == 2 else (None, None)
            if not isinstance(block, int) or not isinstance(comp, int):
                raise InputError(f"variable {var!r} is not a (block, component) pair")
            if not 0 <= block < len(lengths) or not 0 <= comp < lengths[block]:
                raise InputError(f"variable ({block},{comp}) leaves the declared blocks")
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


def _to_node(sexpr, lengths):
    if isinstance(sexpr, str):
        raise InputError(f"bare token {sexpr!r} is not a formula")
    if not sexpr:
        raise InputError("empty expression")
    head = sexpr[0]
    if not isinstance(head, str):
        raise InputError("operator position must hold a symbol")
    if head == "not":
        if len(sexpr) != 2:
            raise InputError("not takes one argument")
        return ("not", _to_node(sexpr[1], lengths))
    if head in ("and", "or"):
        if len(sexpr) < 2:
            raise InputError(f"{head} needs at least one argument")
        return (head, *(_to_node(child, lengths) for child in sexpr[1:]))
    if head == "=":
        if len(sexpr) != 3 or not all(isinstance(t, str) for t in sexpr[1:]):
            raise InputError("= takes two variables")
        return ("eq", _parse_var(sexpr[1], lengths), _parse_var(sexpr[2], lengths))
    # relation application
    if not all(isinstance(t, str) for t in sexpr[1:]):
        raise InputError(f"relation {head} takes variables only")
    return ("atom", head, tuple(_parse_var(t, lengths) for t in sexpr[1:]))


def parse_formula(text: str, block_lengths: Sequence[int] = (1, 1)) -> QfFormula:
    """Parse an s-expression against declared block lengths."""
    tokens = _tokenize(text)
    if not tokens:
        raise InputError("empty formula")
    sexpr, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise InputError("trailing tokens after formula")
    lengths = tuple(int(v) for v in block_lengths)
    return QfFormula(lengths, _to_node(sexpr, lengths))


def format_formula(phi: QfFormula) -> str:
    def var_token(v):
        block, comp = v
        name = _block_name(block)
        return name if comp == 0 else f"{name}.{comp}"

    def render(node):
        op = node[0]
        if op == "atom":
            return "(" + " ".join([node[1], *map(var_token, node[2])]) + ")"
        if op == "eq":
            return f"(= {var_token(node[1])} {var_token(node[2])})"
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
    if len(assignment) != len(phi.block_lengths):
        raise InputError("assignment must cover every block")
    env = []
    for tup, length in zip(assignment, phi.block_lengths):
        tup = tuple(int(v) for v in tup)
        if len(tup) != length:
            raise InputError(f"block tuple {tup} does not match length {length}")
        if any(not 0 <= v < structure.domain_size for v in tup):
            raise InputError(f"assignment {tup} leaves the domain")
        env.append(tup)
    return _formula_masks(structure, [phi], [[t] for t in env])[0] == 1


def block_tuples(structure: FiniteStructure, length: int) -> list[tuple[int, ...]]:
    """All length-long domain tuples in row-major order."""
    return list(product(range(structure.domain_size), repeat=length))


def _bits(offsets: Iterable[int], space: int) -> int:
    """The mask over space assignments whose set bits are the offsets."""
    buf = bytearray(space // 8 + 1)
    for o in offsets:
        buf[o >> 3] |= 1 << (o & 7)
    return int.from_bytes(buf, "little")


def _formula_masks(
    structure: FiniteStructure, delta: Sequence[QfFormula], lists: Sequence[Sequence]
) -> list[int]:
    """One bitmask per formula over an assignment space.

    The space is the row-major product of lists, one list of tuples per
    block, object block first: bit i holds the formula at assignment i.
    """
    sizes = [len(lst) for lst in lists]
    strides = [prod(sizes[j + 1 :]) for j in range(len(sizes))]
    space = prod(sizes)
    full = (1 << space) - 1
    diagonal = frozenset((v, v) for v in range(structure.domain_size))

    def cylinder(vars_, tuples) -> int:
        """The assignments whose values at vars_ form a tuple in tuples."""
        if not space:
            return 0
        # comps[b]: the components of block b that vars_ reads, for each block it reads
        blocks = sorted({b for b, _ in vars_})
        comps = {b: sorted({c for bb, c in vars_ if bb == b}) for b in blocks}
        # offsets[b][key]: bit offsets of the block-b tuples whose values at comps[b] are key
        offsets = {}
        for b, cs in comps.items():
            groups = offsets[b] = {}
            for p, t in enumerate(lists[b]):
                groups.setdefault(tuple(t[c] for c in cs), []).append(p * strides[b])
        keys = []  # one key per mentioned block, for each satisfying assignment of vars_
        if len(tuples) < prod(map(len, offsets.values())):
            for t in tuples:
                value = {}
                if all(value.setdefault(var, v) == v for var, v in zip(vars_, t)):
                    key = [tuple(value[b, c] for c in cs) for b, cs in comps.items()]
                    if all(k in offsets[b] for k, b in zip(key, comps)):
                        keys.append(key)
        else:
            slots = [(list(comps).index(b), comps[b].index(c)) for b, c in vars_]
            for key in product(*offsets.values()):
                if tuple(key[i][j] for i, j in slots) in tuples:
                    keys.append(key)
        hits = (map(sum, product(*(offsets[b][k] for b, k in zip(comps, key)))) for key in keys)
        mask = _bits(chain.from_iterable(hits), space)
        # the blocks vars_ leaves free: every position, by one carry-free product
        for b, size in enumerate(sizes):
            if b not in comps:
                mask *= _bits(range(0, size * strides[b], strides[b]), size * strides[b])
        return mask

    def build(node) -> int:
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
            return full ^ build(node[1])
        masks = [build(child) for child in node[1:]]
        return reduce(and_ if op == "and" else or_, masks)

    return [build(phi.body) for phi in delta]


def _types(
    structure: FiniteStructure, delta: Sequence[QfFormula], lists: Sequence[Sequence]
) -> list[int]:
    """Truth pattern of each object tuple of lists[0], in list order, as an int.

    Bit f * cells + g holds formula f on cell g of the row-major product
    of the parameter lists.
    """
    masks = _formula_masks(structure, delta, lists)
    cells = prod(len(lst) for lst in lists[1:])
    low = (1 << cells) - 1
    return [
        sum((mask >> p * cells & low) << f * cells for f, mask in enumerate(masks))
        for p in range(len(lists[0]))
    ]


def phi_class(structure: FiniteStructure, phi: QfFormula) -> SetSystem:
    """Set system of phi's definable sets, one member per object tuple.

    The universe has one part per parameter block, of size
    domain ** block_length, with parameter tuples indexed row-major.
    """
    spaces = [block_tuples(structure, l) for l in phi.block_lengths]
    universe = ProductUniverse(tuple(len(s) for s in spaces[1:]))
    members = set(_types(structure, [phi], spaces))
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


def _param_lists(
    structure: FiniteStructure, lists: Sequence, lengths: Sequence[int], kind: str,
    nonempty: bool = False,
) -> list[tuple[tuple[int, ...], ...]]:
    """One checked tuple list per parameter block; kind names them in errors."""
    norm = []
    for lst, length in zip(lists, lengths):
        lst = tuple(tuple(int(v) for v in t) for t in lst)
        if nonempty and not lst:
            raise InputError(f"{kind} lists must be nonempty")
        for t in lst:
            if len(t) != length:
                raise InputError(f"{kind} tuple {t} does not match block length {length}")
            if any(not 0 <= v < structure.domain_size for v in t):
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
    if len(boxes) != len(shape) - 1:
        raise InputError("one parameter box per parameter block required")
    norm = _param_lists(structure, boxes, shape[1:], "box")
    patterns = set(_types(structure, delta, [block_tuples(structure, shape[0]), *norm]))
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
    types = list(set(_types(structure, delta, spaces)))
    if m == 0:
        return 1  # every object tuple has the one empty pattern
    sizes = (len(delta), *(len(s) for s in spaces[1:]))
    pools = [[tuple(range(len(delta)))], *(combinations(range(s), m) for s in sizes[1:])]
    cap = min(len(types), 1 << len(delta) * m ** (len(sizes) - 1))
    return _max_trace(types, sizes, pools, 0, cap)


def dim_phi(
    structure: FiniteStructure, phi: QfFormula, size_cap: int | None = None
) -> int:
    """Box dimension of the formula's definable family."""
    return vc_n_dim(phi_class(structure, phi), size_cap)


def verify_ipn_witness(
    structure: FiniteStructure,
    phi: QfFormula,
    params: Sequence[Sequence[Sequence[int]]],
    budget: int = 1 << 16,
) -> bool:
    """Check that every 0/1 pattern on the parameter grid is realized.

    The grid is the index product over the given parameter lists; a
    pattern s is realized when some object tuple satisfies phi exactly on
    the cells in s.  Refuses (never samples) when the pattern count
    exceeds the budget.
    """
    if len(params) != phi.n:
        raise InputError("one parameter list per parameter block required")
    norm = _param_lists(structure, params, phi.block_lengths[1:], "parameter", True)
    grid = 1
    for lst in norm:
        grid *= len(lst)
    total = 1 << grid
    if total > budget:
        raise BudgetExceededError(
            f"{total} patterns exceed the budget of {budget}; refusing to sample"
        )
    objects = block_tuples(structure, phi.block_lengths[0])
    return len(set(_types(structure, [phi], [objects, *norm]))) == total


class IndexedFamily(Record):
    """Equal-length element tuples indexed by the vertices of a partite
    hypergraph or an ordered structure."""

    index: PartiteHypergraph | RelStructure
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


def _index_view(index: PartiteHypergraph | RelStructure):
    """Vertices in order, the part of each, edge arity and edges of an index.

    A partite hypergraph reads as the ordered structure it stands for: its
    (part, position) vertices in part-major order, its parts convex, and
    each edge as the set of vertices it picks.  A structure without parts
    has a single part.
    """
    from .ramsey import RelStructure
    from .zar import PartiteHypergraph

    if isinstance(index, PartiteHypergraph):
        vertices = [(p, i) for p in range(index.n) for i in range(index.part_sizes[p])]
        part_sizes, arity = index.part_sizes, index.n
        edges = {frozenset(enumerate(e)) for e in index.edges}
    elif isinstance(index, RelStructure):
        vertices = list(range(index.size))
        part_sizes, arity = index.part_sizes or (index.size,), index.edge_arity or 0
        edges = index.edges or frozenset()
    else:
        raise InputError("unsupported index structure")
    parts = [p for p, s in enumerate(part_sizes) for _ in range(s)]
    return vertices, dict(zip(vertices, parts)), arity, edges


def _check_in_domain(structure: FiniteStructure, fam: IndexedFamily, vertices) -> None:
    """Refuse an indexed tuple that leaves the domain: no mask can read it."""
    for v in vertices:
        if any(not 0 <= x < structure.domain_size for x in fam.tuples[v]):
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
    for p, i in vertices:
        if (p, i) not in fam.tuples:
            raise InputError(f"vertex ({p},{i}) has no indexed tuple")
    for p, length in enumerate(phi.block_lengths):
        if fam.tuple_length != length:
            raise InputError("indexed tuple length must match every block length")
    _check_in_domain(structure, fam, vertices)
    lists = [[fam.tuples[p, i] for i in range(size)] for p, size in enumerate(sizes)]
    strides = [prod(sizes[p + 1 :]) for p in range(len(sizes))]
    edges = _bits((sum(map(mul, e, strides)) for e in hypergraph.edges), prod(sizes))
    return _formula_masks(structure, [phi], lists)[0] == edges


def check_indiscernible(
    fam: IndexedFamily,
    reduct: Iterable[str],
    structure: FiniteStructure,
    delta: Sequence[QfFormula],
    arity_cap: int,
):
    """Check that index tuples with equal reduct types get equal delta types.

    The reduct names which index relations count: any subset of
    {"order", "parts", "edge"}.  Equality atoms always count.  Returns
    True, or the first violating pair of index tuples.

    Each formula is evaluated once, up front, as a mask over every block
    map into the D distinct indexed tuples: D ** blocks bits per formula,
    built even when the first index tuples already violate.  A delta
    type then reads one bit per block map and formula.
    """
    reduct = frozenset(reduct)
    if not reduct <= {"order", "parts", "edge"}:
        raise InputError("reduct must be a subset of {order, parts, edge}")
    if arity_cap < 1:
        raise InputError("arity cap must be positive")
    shape = _check_delta(delta)
    if any(l != fam.tuple_length for l in shape):
        raise InputError("delta block lengths must match the indexed tuple length")
    vertices, part_of, edge_arity, edge_set = _index_view(fam.index)
    for v in vertices:
        if v not in fam.tuples:
            raise InputError(f"index vertex {v} has no tuple")
    _check_in_domain(structure, fam, vertices)
    rank = {v: i for i, v in enumerate(vertices)}
    # column[v]: the position of v's tuple among the distinct indexed tuples
    slot: dict = {}
    column = {v: slot.setdefault(fam.tuples[v], len(slot)) for v in vertices}
    blocks = len(shape)
    strides = [len(slot) ** (blocks - 1 - j) for j in range(blocks)]
    masks = _formula_masks(structure, delta, [list(slot)] * blocks)
    data = [mask.to_bytes(len(slot) ** blocks // 8 + 1, "little") for mask in masks]

    def reduct_type(w):
        sign = []
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                a, b = rank[w[i]], rank[w[j]]
                if "order" in reduct:
                    sign.append((a > b) - (a < b))
                else:
                    sign.append(0 if a == b else 1)
        parts = tuple(part_of[v] for v in w) if "parts" in reduct else None
        edges = None
        if "edge" in reduct and edge_arity:
            # with a repeated vertex the set is smaller than every edge
            edges = tuple(
                frozenset(w[i] for i in idx) in edge_set
                for idx in combinations(range(len(w)), edge_arity)
            ) if len(w) >= edge_arity else ()
        return (tuple(sign), parts, edges)

    def delta_type(w):
        cols = [column[v] for v in w]
        offsets = [0]  # one bit offset per block map into w, block 0 outermost
        for stride in strides:
            offsets = [o + c * stride for o in offsets for c in cols]
        return tuple(bits[o >> 3] >> (o & 7) & 1 for o in offsets for bits in data)

    for length in range(1, arity_cap + 1):
        groups: dict = {}
        for w in product(vertices, repeat=length):
            key = reduct_type(w)
            val = delta_type(w)
            if key in groups:
                prev_w, prev_val = groups[key]
                if prev_val != val:
                    return (prev_w, w)
            else:
                groups[key] = (w, val)
    return True

"""Finite structures, quantifier-free formulas, and parameter-type counting.

A structure is the library's one FiniteStructure, defined in errors
beside PartiteHypergraph: a domain, named relations and optional parts.
Its parts and order matter only where it indexes a family of
indiscernibles; the encoding and indiscernibility checks live in indisc,
which reads this module's evaluator.

A formula here is quantifier-free with positional variable blocks: block 0
is the object block (rendered "x"), blocks 1..n are parameter blocks
(rendered "y0", "y1", ...).  Every block has a declared length, so a block
is assigned a tuple of domain elements.  Evaluating a formula over all
object tuples against a fixed structure yields a set system over the
product of the parameter tuple spaces; counting distinct truth patterns of
object tuples against finite parameter boxes counts realized types.  The
two views agree cell by cell, and the test suite checks that agreement
directly.  Every evaluation, from one assignment (eval_formula) to type
counting and the checks of indisc, reads one evaluator, which compiles
each formula once and builds one object tuple's truth pattern at a time.
Type counting over all boxes is the shatter function of the delta-type
system.  pi_phi and dim_phi read that system on the support of delta:
each parameter component keeps the values its atoms see and m inert
values, which stand for every other value.

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
from itertools import chain, islice, product
from math import prod
from operator import and_, getitem, or_
from typing import Callable, Sequence

from .errors import FiniteStructure, InputError, Record, _bits
from .setsys import ProductUniverse, SetSystem, _max_trace, vc_n_dim


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
        # the blocks vars_ leaves free: every position, by one carry-free product
        spans = [(size, strides[b]) for b, size in enumerate(sizes) if b not in comps]
        free = prod(_bits(range(0, n * s, s), n * s) for n, s in spans)

        def build(k) -> int:
            spots = (product(*map(getitem, tables, key)) for key in keys[k])
            return _bits(map(sum, chain.from_iterable(spots)), cells) * free

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
    return _definable(structure, phi, [block_tuples(structure, l) for l in phi.block_lengths[1:]])


def _definable(structure: FiniteStructure, phi: QfFormula, params: Sequence) -> SetSystem:
    """phi's definable sets over the product of the parameter lists."""
    objects = block_tuples(structure, phi.block_lengths[0])
    universe = ProductUniverse(tuple(map(len, params)))
    members = set(map(_types(structure, [phi], [objects, *params]), objects))
    return SetSystem(universe, members)


def _support(structure: FiniteStructure, delta: Sequence[QfFormula], m: int) -> list[list]:
    """One tuple list per parameter block: the support of delta, with m inert values.

    A value is inert at a parameter component when no atom has it, in any
    tuple of its relation, at a position that reads the component.  Every
    atom reading an inert value is false, so inert values give equal
    columns, and a box's inert values rename one to one into the first m
    without changing a trace.  So a component keeps the values its atoms
    see and its first max(m, 1) inert values (one keeps a list nonempty),
    and one that an equality reads keeps every value.  A bad atom adds
    nothing: the evaluator refuses it.
    """
    seen: dict = {}  # seen[b, c]: the values atoms read at component c of block b; None: all
    nodes = [phi.body for phi in delta]
    while nodes:
        op, *args = nodes.pop()
        if op == "eq":
            seen.update(dict.fromkeys(args))
        elif op != "atom":
            nodes += args
        elif args[0] in structure.relations:
            rel = structure.relations[args[0]]
            for p, var in enumerate(args[1] if rel.arity == len(args[1]) else ()):
                if var[0] and seen.get(var, ()) is not None:
                    seen.setdefault(var, set()).update(t[p] for t in rel.tuples)
    domain = range(structure.size)

    def values(var):
        vals = seen.get(var, set())
        if vals is None:
            return domain
        return sorted({*vals, *islice((v for v in domain if v not in vals), max(m, 1))})

    lengths = enumerate(delta[0].block_lengths[1:], 1)
    return [list(product(*(values((b, c)) for c in range(l)))) for b, l in lengths]


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
    block), where every box takes the formula coordinate whole.  Every
    box has the traces of a box on the support of delta (see _support),
    so the search reads only that.
    """
    shape = _check_delta(delta)
    if m < 0:
        raise InputError("box size must be nonnegative")
    if any(m > structure.size**l for l in shape[1:]):
        raise InputError(f"box size {m} exceeds a parameter tuple space")
    lists = _support(structure, delta, m)
    objects = block_tuples(structure, shape[0])
    types = list(set(map(_types(structure, delta, [objects, *lists]), objects)))
    sizes = [len(delta), *map(len, lists)]
    return _max_trace(types, sizes, [len(delta)] + [m] * len(lists), 0)


def dim_phi(
    structure: FiniteStructure, phi: QfFormula, size_cap: int | None = None
) -> int:
    """Box dimension of the formula's definable family.

    A shattered m-box needs 2 ** m ** n distinct members, at most one per
    object tuple, so the family is read on the support of phi with the
    inert values of the largest such m (see _support).
    """
    m = 0
    while 1 << (m + 1) ** phi.n <= structure.size ** phi.block_lengths[0]:
        m += 1
    return vc_n_dim(_definable(structure, phi, _support(structure, [phi], m)), size_cap)


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

"""Set systems over product universes and their box-shatter combinatorics.

A universe is a product X = X_0 x ... x X_{n-1} of finite parts.  A set
system is a family of subsets of the tuple space of X, each subset stored
as a bit vector over tuples in row-major order.  A box is a product of
equally sized selections A_i, one per part; the system shatters the box
when its trace on the box realizes every subset of the box's tuple grid.
The box dimension of a system is the largest selection size m for which
some box of size m is shattered, and the shatter function records, for
each m, the largest trace a size-m box attains.  Traces are gathered from
row words: the bits of a member over the last part, one word per index
tuple of the other parts.

Ground families (plain families over an unstructured ground set) support
the element-wise down-shift used to compress a family without increasing
its shatter behaviour.
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import chain, combinations, product
from math import comb, prod
from operator import and_, itemgetter, or_
from typing import Iterable, Iterator, Sequence

from .errors import InputError, Record, _decode


class ProductUniverse(Record):
    """Product of n finite parts, with row-major tuple indexing."""

    part_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.part_sizes) < 1:
            raise InputError("universe needs at least one part")
        if any(s < 1 for s in self.part_sizes):
            raise InputError("part sizes must be positive")
        object.__setattr__(self, "part_sizes", tuple(int(s) for s in self.part_sizes))

    @property
    def n(self) -> int:
        return len(self.part_sizes)

    @property
    def tuple_count(self) -> int:
        return prod(self.part_sizes)

    def strides(self) -> tuple[int, ...]:
        out = [1] * self.n
        for i in range(self.n - 2, -1, -1):
            out[i] = out[i + 1] * self.part_sizes[i + 1]
        return tuple(out)

    def tuple_index(self, t: Sequence[int]) -> int:
        if len(t) != self.n:
            raise InputError(f"tuple length {len(t)} != {self.n}")
        idx = 0
        for v, size, stride in zip(t, self.part_sizes, self.strides()):
            if not 0 <= v < size:
                raise InputError(f"coordinate {v} out of range for part of size {size}")
            idx += v * stride
        return idx

    def index_tuple(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < self.tuple_count:
            raise InputError(f"tuple index {idx} out of range")
        out = []
        for stride in self.strides():
            out.append(idx // stride)
            idx %= stride
        return tuple(out)

    def tuples(self) -> Iterator[tuple[int, ...]]:
        """All tuples in row-major (index) order."""
        return product(*(range(s) for s in self.part_sizes))


def _members(members: Iterable[int], width: int, too_wide: str) -> tuple[int, ...]:
    """Sorted distinct bit masks, each within width bits."""
    members = tuple(sorted(int(m) for m in members))
    if any(m < 0 or m.bit_length() > width for m in members):
        raise InputError(too_wide)
    if len(set(members)) != len(members):
        raise InputError("members must be distinct")
    return members


class SetSystem(Record):
    """Distinct subsets of a product universe, each a bit vector over tuples."""

    universe: ProductUniverse
    members: tuple[int, ...]

    def __post_init__(self):
        too_wide = "member bit vector exceeds the tuple space"
        members = _members(self.members, self.universe.tuple_count, too_wide)
        object.__setattr__(self, "members", members)

    @classmethod
    def from_sets(
        cls, universe: ProductUniverse, sets: Iterable[Iterable[Sequence[int]]]
    ) -> "SetSystem":
        """Build from explicit collections of tuples; duplicates collapse."""
        members = set()
        for s in sets:
            mask = 0
            for t in s:
                mask |= 1 << universe.tuple_index(t)
            members.add(mask)
        return cls(universe, tuple(sorted(members)))

    def member_tuples(self, mask: int) -> list[tuple[int, ...]]:
        return [self.universe.index_tuple(i) for i in bit_indices(mask)]

    def to_json(self) -> str:
        doc = {
            "part_sizes": list(self.universe.part_sizes),
            "members": [format(m, "x") for m in self.members],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SetSystem":
        def build(doc):
            universe = ProductUniverse(tuple(doc["part_sizes"]))
            return cls(universe, tuple(int(h, 16) for h in doc["members"]))

        return _decode(text, "set-system", build, {"part_sizes": [int], "members": [str]})


class BoxSpec(Record):
    """One selection of box indices per part; all selections share a size m."""

    selections: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sels = tuple(tuple(int(v) for v in sel) for sel in self.selections)
        if not sels:
            raise InputError("box needs at least one selection")
        m = len(sels[0])
        for sel in sels:
            if len(sel) != m:
                raise InputError("box selections must share one size")
            if len(set(sel)) != len(sel):
                raise InputError("box selection indices must be distinct")
        object.__setattr__(self, "selections", sels)

    @property
    def m(self) -> int:
        return len(self.selections[0])

    def validate(self, universe: ProductUniverse) -> None:
        if len(self.selections) != universe.n:
            raise InputError("box arity does not match the universe")
        for sel, size in zip(self.selections, universe.part_sizes):
            for v in sel:
                if not 0 <= v < size:
                    raise InputError(f"box index {v} out of range")

    def cell_indices(self, universe: ProductUniverse) -> list[int]:
        """Universe tuple indices of the box grid, row-major in the box."""
        self.validate(universe)
        return [universe.tuple_index(t) for t in product(*self.selections)]


class GroundFamily(Record):
    """Distinct subsets of {0..ground_size-1}, stored as bit masks."""

    ground_size: int
    members: tuple[int, ...] = ()

    def __post_init__(self):
        if self.ground_size < 0:
            raise InputError("ground size must be nonnegative")
        members = _members(self.members, self.ground_size, "member exceeds the ground set")
        object.__setattr__(self, "members", members)

    def to_json(self) -> str:
        doc = {
            "ground_size": self.ground_size,
            "members": [format(m, "x") for m in self.members],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GroundFamily":
        def build(doc):
            return cls(doc["ground_size"], tuple(int(h, 16) for h in doc["members"]))

        return _decode(text, "family", build, {"ground_size": int, "members": [str]})


def bit_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _box_pools(universe: ProductUniverse, m: int) -> list[Iterator[tuple[int, ...]]]:
    """Each part's size-m selections, in lexicographic order."""
    return [combinations(range(s), m) for s in universe.part_sizes]


def iter_boxes(universe: ProductUniverse, m: int) -> Iterator[BoxSpec]:
    """All boxes of size m, selections in lexicographic order per part."""
    if m < 0:
        raise InputError("box size must be nonnegative")
    if any(m > s for s in universe.part_sizes):
        return iter(())
    return (BoxSpec(sels) for sels in product(*_box_pools(universe, m)))


def _row_words(members: Sequence[int], width: int, rows: Sequence[int]) -> list[tuple[int, ...]]:
    """Each member split into its words at the given rows.

    Row r holds the tuples whose first n-1 coordinates have row-major
    index r; its word is their bits over the last part, width bits long.
    """
    low = (1 << width) - 1
    by_row = [[member >> r * width & low for member in members] for r in rows]
    return list(zip(*by_row)) or [()] * len(members)


def _rows(sizes: Sequence[int], selections: Sequence[Sequence[int]]) -> list[int]:
    """Rows, in box order, of the index tuples picked from the first n-1 parts."""
    rows = [0]
    for size, sel in zip(sizes, selections):
        rows = [r * size + v for r in rows for v in sel]
    return rows


def _gather(words: Iterable[int], cols: Sequence[int]) -> dict[int, int]:
    """Each word mapped to its bits at cols, bit j standing for cols[j]."""
    return {w: sum((w >> c & 1) << j for j, c in enumerate(cols)) for w in words}


def _box_vectors(system: SetSystem, box: BoxSpec) -> set[tuple[int, ...]]:
    """Distinct member traces on a checked box, each a tuple of gathered row words."""
    *row_sels, cols = box.selections
    sizes = system.universe.part_sizes
    words = _row_words(system.members, sizes[-1], _rows(sizes, row_sels))
    table = _gather(set(chain.from_iterable(words)), cols)
    return {tuple(map(table.__getitem__, ws)) for ws in words}


def trace(system: SetSystem, box: BoxSpec) -> GroundFamily:
    """Restrict every member to the box, re-indexed over the box grid.

    Bit i of a trace stands for the i-th cell of the box grid taken
    row-major in the box's own selection order.
    """
    box.validate(system.universe)
    m = box.m
    masks = (sum(w << (i * m) for i, w in enumerate(vec)) for vec in _box_vectors(system, box))
    return GroundFamily(m ** system.universe.n, tuple(sorted(masks)))


def is_shattered(system: SetSystem, box: BoxSpec) -> bool:
    """True when the trace on the box realizes every subset of its grid."""
    box.validate(system.universe)
    full = 1 << box.m ** system.universe.n
    return len(system.members) >= full and len(_box_vectors(system, box)) == full


def _max_trace(
    members: Sequence[int], sizes: Sequence[int], pools: Sequence[Iterable], best: int, cap: int
) -> int:
    """Largest trace over the boxes taking one selection from each part's pool.

    Returns best when no trace is larger, and stops as soon as one reaches
    cap.  Members are split into row words once.  Rows on which all
    members agree, and columns on which all row words agree, tell no
    members apart, so selections are read at their other rows and
    columns only, each distinct one once.  For each column selection,
    every member becomes the tuple of its gathered row words; the
    distinct tuples bound every trace that uses those columns, so the
    columns are skipped when they cannot beat best.  A row selection's
    trace is then the set of those tuples read at its rows.
    """
    *row_pools, col_pool = pools
    rows = range(prod(sizes[:-1]))
    words = _row_words(members, sizes[-1], rows)
    live = [r for r, col in zip(rows, zip(*words)) if len(set(col)) > 1]
    if len(live) < len(rows):
        words = _row_words(members, sizes[-1], live)
    position = {r: i for i, r in enumerate(live)}
    row_keys = {
        tuple(sorted(position[r] for r in _rows(sizes, sels) if r in position))
        for sels in product(*row_pools)
    }
    if words and () in row_keys:
        best = max(best, 1)  # a box on shared rows only has one trace
        if best >= cap:
            return best
    getters = [itemgetter(*key) for key in row_keys if key]
    distinct = set(chain.from_iterable(words))
    varying = reduce(or_, distinct, 0) ^ reduce(and_, distinct, -1)
    col_keys = {tuple(c for c in cols if varying >> c & 1) for cols in col_pool}
    for cols in col_keys:
        table = _gather(distinct, cols)
        vecs = {tuple(map(table.__getitem__, ws)) for ws in words}
        for getter in getters:
            if len(vecs) <= best:
                break
            size = len(set(map(getter, vecs)))
            if size > best:
                best = size
                if best >= cap:
                    return best
    return best


def vc_n_dim(system: SetSystem, size_cap: int | None = None) -> int:
    """Largest m <= size_cap such that some size-m box is shattered.

    The empty box is shattered by any nonempty system, so the result is
    at least 0.  Raises for an empty system, whose dimension is undefined.
    """
    if not system.members:
        raise InputError("dimension of an empty system is undefined")
    limit = min(system.universe.part_sizes)
    if size_cap is not None:
        if size_cap < 0:
            raise InputError("size cap must be nonnegative")
        limit = min(limit, size_cap)
    best = 0
    for m in range(1, limit + 1):
        full = 1 << m ** system.universe.n
        # A trace can't outnumber the members, and the threshold only grows.
        if len(system.members) < full:
            break
        pools = _box_pools(system.universe, m)
        if _max_trace(system.members, system.universe.part_sizes, pools, full - 1, full) < full:
            break  # shattering a bigger box would shatter one of its sub-boxes
        best = m
    return best


def shatter_fn(system: SetSystem, m: int) -> int:
    """Maximum trace cardinality over all boxes of size m."""
    if m < 0:
        raise InputError("box size must be nonnegative")
    if any(m > s for s in system.universe.part_sizes):
        raise InputError(f"box size {m} exceeds a part size")
    if m == 0:
        return 1 if system.members else 0
    cap = min(len(system.members), 1 << m ** system.universe.n)
    pools = _box_pools(system.universe, m)
    return _max_trace(system.members, system.universe.part_sizes, pools, 0, cap)


def shift(family: GroundFamily) -> GroundFamily:
    """Iterate element-wise down-shifts to a fixpoint.

    One pass applies, for each ground element e in ascending order, the
    replacement C -> C \\ {e} to every member containing e whose shifted
    image is not already present.  The fixpoint has the same cardinality,
    is downward closed, and shatters no set the input did not shatter.
    """
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


def sauer_binomial_bound(n: int, m: int, z: int) -> int:
    """Sum of C(m**n, i) over i < z: the box analogue of the Sauer bound."""
    if n < 1 or m < 0 or z < 0:
        raise InputError("n must be positive, m and z nonnegative")
    return sum(comb(m**n, i) for i in range(z))

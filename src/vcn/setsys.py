"""Set systems over product universes and their box-shatter combinatorics.

A universe is a product X = X_0 x ... x X_{n-1} of finite parts.  A set
system is a family of subsets of the tuple space of X, each subset stored
as a bit vector over tuples in row-major order.  A box is a product of
equally sized selections A_i, one per part; the system shatters the box
when its trace on the box realizes every subset of the box's tuple grid.
The box dimension of a system is the largest selection size m for which
some box of size m is shattered, and the shatter function records, for
each m, the largest trace a size-m box attains.  A trace is the set of
members ANDed with the box mask, the bits of the box's cells in the
row-major tuple space; distinct masked members are distinct traces.

Ground families (plain families over an unstructured ground set) support
the element-wise down-shift used to compress a family without increasing
its shatter behaviour.
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import combinations, product
from math import comb, prod
from operator import and_, or_
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

    def tuple_index(self, t: Sequence[int]) -> int:
        if len(t) != self.n:
            raise InputError(f"tuple length {len(t)} != {self.n}")
        idx = 0
        for v, size in zip(t, self.part_sizes):
            if not 0 <= v < size:
                raise InputError(f"coordinate {v} out of range for part of size {size}")
            idx = idx * size + v
        return idx

    def index_tuple(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < self.tuple_count:
            raise InputError(f"tuple index {idx} out of range")
        out = []
        for size in reversed(self.part_sizes):
            idx, v = divmod(idx, size)
            out.append(v)
        return tuple(reversed(out))

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
        return _rows(universe.part_sizes, self.selections)


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


def iter_boxes(universe: ProductUniverse, m: int) -> Iterator[BoxSpec]:
    """All boxes of size m, selections in lexicographic order per part."""
    if m < 0:
        raise InputError("box size must be nonnegative")
    pools = (combinations(range(s), m) for s in universe.part_sizes)
    return (BoxSpec(sels) for sels in product(*pools))


def _rows(sizes: Sequence[int], selections: Sequence[Sequence[int]]) -> list[int]:
    """Row-major indices, in box order, of the tuples picked; from n-1 parts, the rows."""
    rows = [0]
    for size, sel in zip(sizes, selections):
        rows = [r * size + v for r in rows for v in sel]
    return rows


def _box_traces(system: SetSystem, box: BoxSpec) -> tuple[list[int], set[int]]:
    """The box's cells and its distinct traces: every member ANDed with the box mask."""
    cells = box.cell_indices(system.universe)
    return cells, set(map(sum(1 << c for c in cells).__and__, system.members))


def trace(system: SetSystem, box: BoxSpec) -> GroundFamily:
    """Restrict every member to the box, re-indexed over the box grid.

    Bit i of a trace stands for the i-th cell of the box grid taken
    row-major in the box's own selection order.
    """
    cells, traces = _box_traces(system, box)
    masks = (sum(1 << i for i, c in enumerate(cells) if t >> c & 1) for t in traces)
    return GroundFamily(len(cells), tuple(sorted(masks)))


def is_shattered(system: SetSystem, box: BoxSpec) -> bool:
    """True when the trace on the box realizes every subset of its grid."""
    cells, traces = _box_traces(system, box)
    return len(traces) == 1 << len(cells)


def _max_trace(
    members: Sequence[int], sizes: Sequence[int], widths: Sequence[int], best: int
) -> int:
    """Largest trace over the boxes that take widths[i] values from part i.

    Returns best (at least 0) when no trace is larger.  No box has more
    traces than members, or more than the subsets of its cells, so the
    search stops, or never starts, once best reaches that cap; an empty
    system never reaches the mask code.  A trace is the set of members
    ANDed with the box mask.  Bits on which all members agree tell no
    members apart, so every box mask is cut to the varying bits and split
    into a row mask (full rows at the rows its first n-1 selections pick)
    and a column mask (its last selection, spread over every row); each
    distinct one is read once.  For each column mask, the members ANDed
    with it bound every trace that uses those columns, so the columns are
    skipped when they cannot beat best.  A row mask's trace is then the
    set of those masked members ANDed with it.
    """
    cap = min(len(members), 1 << prod(widths))
    if best >= cap:
        return best
    *row_pools, col_pool = (combinations(range(s), w) for s, w in zip(sizes, widths))
    row_len = sizes[-1]
    word = (1 << row_len) - 1
    varying = reduce(or_, members) ^ reduce(and_, members)
    row_masks = {
        sum(word << r * row_len for r in _rows(sizes, sels)) & varying
        for sels in product(*row_pools)
    }
    if 0 in row_masks:
        best = max(best, 1)  # a box on shared rows only has one trace
        if best >= cap:
            return best
    row_masks.discard(0)
    spread = sum(1 << r * row_len for r in range(prod(sizes[:-1])))  # one bit per row, no carries
    col_masks = {sum(1 << c for c in cols) * spread & varying for cols in col_pool}
    for col in col_masks:
        vecs = set(map(col.__and__, members))
        for row in row_masks:
            if len(vecs) <= best:
                break
            size = len(set(map((row & col).__and__, vecs)))
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
        widths = [m] * system.universe.n
        if _max_trace(system.members, system.universe.part_sizes, widths, full - 1) < full:
            break  # shattering a bigger box would shatter one of its sub-boxes
        best = m
    return best


def shatter_fn(system: SetSystem, m: int) -> int:
    """Maximum trace cardinality over all boxes of size m."""
    if m < 0:
        raise InputError("box size must be nonnegative")
    if any(m > s for s in system.universe.part_sizes):
        raise InputError(f"box size {m} exceeds a part size")
    return _max_trace(system.members, system.universe.part_sizes, [m] * system.universe.n, 0)


def shift(family: GroundFamily) -> GroundFamily:
    """Iterate element-wise down-shifts to a fixpoint.

    One pass shifts, for each ground element e in ascending order, every
    member C containing e whose image C \\ {e} is not a member, all at
    once: the moved members leave and their images arrive.  The fixpoint
    has the same cardinality, is downward closed, and shatters no set the
    input did not shatter.
    """
    members = set(family.members)
    changed = True
    while changed:
        changed = False
        for e in range(family.ground_size):
            bit = 1 << e
            moved = {c for c in members if c & bit and (c ^ bit) not in members}
            members ^= moved | {c ^ bit for c in moved}
            changed |= bool(moved)
    return GroundFamily(family.ground_size, tuple(sorted(members)))


def sauer_binomial_bound(n: int, m: int, z: int) -> int:
    """Sum of C(m**n, i) over i < z: the box analogue of the Sauer bound."""
    if n < 1 or m < 0 or z < 0:
        raise InputError("n must be positive, m and z nonnegative")
    return sum(comb(m**n, i) for i in range(z))

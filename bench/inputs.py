"""Seeded input files for the benchmark workloads.

Usage: python bench/inputs.py WORKLOAD SEED DIR

Writes every input file WORKLOAD needs into DIR.  The same seed gives
byte-identical files; another seed gives files of the same names and the
same sizes (part sizes, member counts, domain sizes) with other contents.
The files are built with the package's own constructors and JSON codecs,
so the benchmark's set-up time includes that code.  Run it with ``src``
on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations, product
from pathlib import Path

import vcn

# Dense systems have so many members that a size-2 box is shattered almost
# at once, and so few that no size-3 box can be: dim and the shatter
# function stop early.  Sparse systems have low-density members, so no
# size-2 box is ever shattered and both scan every box.
DENSE_PARTS, DENSE_MEMBERS = (6, 6), 300
SPARSE_PARTS, SPARSE_MEMBERS, SPARSE_DENSITY = (9, 9), 60, 0.08

STRUCTURE_DOMAIN = 10
COUNT_BOXES = 12  # parameter boxes per count_types call, each 3 x 3
IPN_GRIDS = ((2, 2),) * 4  # verify_ipn_witness grid shapes

GRAPH_SIZE = 48  # ordered graphs for encode-partite
TRIPLE_SIZE = 16  # ordered 3-graphs for encode-partite
WALK_PART = 96  # part size of the hypergraph the walks run on
WALK_PAIRS = 3
SMALL_PART = 6  # small enough for the naive extension reference


def _rng(seed: int, stream: int) -> random.Random:
    return random.Random(seed * 1_000_003 + stream)


def gen_random_seeds(seed: int) -> tuple[int, int, int]:
    """Seeds passed to the three ``gen-random`` operations of arrows-walks."""
    rng = _rng(seed, 99)
    return tuple(rng.randrange(1 << 30) for _ in range(3))


def _write(path: Path, text: str) -> None:
    path.write_text(text + "\n", encoding="utf-8")


def _system(rng: random.Random, parts, count: int, density: float) -> str:
    universe = vcn.ProductUniverse(parts)
    bits = universe.tuple_count
    members: set[int] = set()
    while len(members) < count:
        mask = 0
        for i in range(bits):
            if rng.random() < density:
                mask |= 1 << i
        members.add(mask)
    return vcn.SetSystem(universe, tuple(members)).to_json()


def _random_tuples(rng: random.Random, size: int, arity: int) -> frozenset:
    return frozenset(
        frozenset(c) for c in combinations(range(size), arity) if rng.getrandbits(1)
    )


def _distinct(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    return sorted(rng.sample(range(lo, hi), count))


def zar_search_inputs(seed: int, work: Path) -> None:
    """zar-search reads no files: its operations are fixed threshold rows."""


def shatter_families_inputs(seed: int, work: Path) -> None:
    for k in range(2):
        _write(work / f"dense{k}.json", _system(_rng(seed, k), DENSE_PARTS, DENSE_MEMBERS, 0.5))
        _write(
            work / f"sparse{k}.json",
            _system(_rng(seed, 10 + k), SPARSE_PARTS, SPARSE_MEMBERS, SPARSE_DENSITY),
        )
    rng = _rng(seed, 20)
    d = STRUCTURE_DOMAIN
    triples = frozenset(t for t in product(range(d), repeat=3) if rng.getrandbits(1))
    structure = vcn.FiniteStructure(d, {"R": vcn.Relation(3, triples)})
    _write(work / "struct.json", structure.to_json())
    boxes = [
        [[[v] for v in _distinct(rng, 3, 0, d)] for _ in range(2)]
        for _ in range(COUNT_BOXES)
    ]
    grids = [
        [[[v] for v in _distinct(rng, rows, 0, d)], [[v] for v in _distinct(rng, cols, 0, d)]]
        for rows, cols in IPN_GRIDS
    ]
    _write(work / "types.spec.json", json.dumps({"structure": "struct.json", "boxes": boxes}))
    _write(work / "ipn.spec.json", json.dumps({"structure": "struct.json", "grids": grids}))
    for name, extra in (("phi_class", {}), ("pi_phi", {"m": 1}), ("dim_phi", {"cap": 1})):
        spec = {"structure": "ce.json", **extra}
        _write(work / f"ce-{name}.spec.json", json.dumps(spec))


def arrows_walks_inputs(seed: int, work: Path) -> None:
    for k in (1, 2, 3, 5, 6, 7):
        _write(work / f"points{k}.json", vcn.points(k).to_json())
    for k in range(2):
        rng = _rng(seed, 30 + k)
        g = vcn.RelStructure(GRAPH_SIZE, None, 2, _random_tuples(rng, GRAPH_SIZE, 2))
        _write(work / f"graph{k}.json", g.to_json())
        t = vcn.RelStructure(TRIPLE_SIZE, None, 3, _random_tuples(rng, TRIPLE_SIZE, 3))
        _write(work / f"triple{k}.json", t.to_json())
    # Walk endpoints keep one vertex per part in each outer quarter of the
    # part, so every step has a wide window of replacement vertices.
    rng = _rng(seed, 40)
    quarter = WALK_PART // 4
    for k in range(WALK_PAIRS):
        ends = []
        for _ in range(2):
            low = [rng.randrange(4, quarter) for _ in range(2)]
            high = [rng.randrange(3 * quarter, WALK_PART - 4) for _ in range(2)]
            ends.append([[0, low[0]], [1, low[1]], [0, high[0]], [1, high[1]]])
        _write(work / f"pair{k}.json", json.dumps({"w": ends[0], "w_prime": ends[1]}))
        spec = {"hypergraph": "h-walk.json", "walk": f"walk{k}.json"}
        _write(work / f"cert{k}.spec.json", json.dumps(spec))
    v = [[p, i] for p in range(2) for i in (rng.randrange(2, 8), rng.randrange(WALK_PART - 8, WALK_PART - 2))]
    _write(work / "select.spec.json", json.dumps({"hypergraph": "h-walk.json", "v": v, "s": 3}))
    small = frozenset(
        e for e in product(range(SMALL_PART), repeat=2) if rng.getrandbits(1)
    )
    h = vcn.PartiteHypergraph(2, (SMALL_PART, SMALL_PART), small)
    _write(work / "h-rand.json", h.to_json())
    for name in ("h-rand", "h-three"):
        _write(work / f"level-{name}.spec.json", json.dumps({"hypergraph": f"{name}.json", "cap": 1}))


WRITERS = {
    "zar-search": zar_search_inputs,
    "shatter-families": shatter_families_inputs,
    "arrows-walks": arrows_walks_inputs,
}


def write_inputs(workload: str, seed: int, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    WRITERS[workload](seed, work)


if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))

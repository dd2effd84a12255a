"""Operation lists of the benchmark workloads, and the checks of their answers.

An operation is a vcn verb (``python -m vcn ARGS``) or a driver call
(``python bench/driver.py FUNCTION SPEC``).  Every check compares answer
fields only, never counters or formatting, against values known
independently of the code under test: classical Zarankiewicz numbers,
classical arrow facts, pigeonhole witness sizes, the naive references in
``tests/instance_gen.py`` and the small naive recomputations below.  A
check raises WrongAnswer, or any other exception on unreadable output.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import inputs

ROOT = Path(__file__).resolve().parent.parent

# z(2, m, 2): one more than the most edges of a K_{2,2}-free m x m
# bipartite graph (Guy 1969; OEIS A072567).
Z_D2 = {2: 4, 3: 7, 4: 10, 5: 13, 6: 17, 7: 22, 8: 25, 9: 30, 10: 35}
# z(2, m, 3): the same for K_{3,3} (Guy 1969; OEIS A006616).
Z_D3 = {3: 9, 4: 14, 5: 21, 6: 27, 7: 34}

EXTREMAL_BLOCKS = (2, 3, 4)  # extremal --m, so the family lives on 9 x 9
COUNTEREXAMPLE_BLOCKS = (2, 3)
ARROW_BUDGET = 1 << 21  # every 2-colouring of the 21 pairs of 7 points
ZAR_CAP = 100_000


class WrongAnswer(Exception):
    """An operation's answer disagrees with the independent value."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


@dataclass(frozen=True)
class Op:
    """One operation: verb or driver arguments, and the check of its answer.

    check(stdout, work) reads the answer from stdout or from the files the
    operation wrote into the work directory.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[str, Path], None]
    driver: bool = False


def _op(name: str, template: str, check, work: Path, driver_call: bool = False) -> Op:
    """Split template on spaces; '@file' becomes a path in the work directory."""
    argv = tuple(str(work / t[1:]) if t.startswith("@") else t for t in template.split())
    return Op(name, argv, check, driver_call)


def _rows(out: str) -> list[dict]:
    """Rows of a CSV or JSON table, as dicts of strings."""
    if out.lstrip().startswith("["):
        return [{k: str(v).lower() if isinstance(v, bool) else str(v) for k, v in r.items()}
                for r in json.loads(out)]
    return list(csv.DictReader(io.StringIO(out)))


def _doc(work: Path, name: str):
    return json.loads((work / name).read_text())


# --- thresholds ------------------------------------------------------------


@lru_cache(maxsize=None)
def naive_z(n: int, m: int, d: int) -> int:
    """z(n, m, d) as m**n minus a smallest set of cells hitting every d-box, plus one."""
    cells = list(product(range(m), repeat=n))
    index = {c: i for i, c in enumerate(cells)}
    boxes = [
        sum(1 << index[c] for c in product(*sels))
        for sels in product(combinations(range(m), d), repeat=n)
    ]
    for k in range(len(cells) + 1):
        for hit in combinations(range(len(cells)), k):
            mask = sum(1 << i for i in hit)
            if all(box & mask for box in boxes):
                return len(cells) - k + 1
    raise AssertionError("unreachable: all cells hit every box")


def z_value(n: int, m: int, d: int) -> int:
    if m < d:
        return m**n + 1  # no d-box fits, so every edge is allowed
    if n == 2 and d in (2, 3):
        return (Z_D2 if d == 2 else Z_D3)[m]
    return naive_z(n, m, d)


def sauer(n: int, m: int, z: int) -> int:
    return sum(comb(m**n, i) for i in range(z))


def _zar_check(n: int, d: int, ms, capped: bool = False):
    def check(out: str, work: Path) -> None:
        rows = _rows(out)
        expect([int(r["m"]) for r in rows] == list(ms), "wrong rows")
        for r in rows:
            m, z, true = int(r["m"]), int(r["z"]), z_value(n, int(r["m"]), d)
            if r["status"] == "exact":
                expect(z == true, f"z({n},{m},{d}) = {z}, want {true}")
            else:
                expect(capped and r["status"] == "lower_bound_only", f"status {r['status']}")
                expect(z <= true, f"lower bound z({n},{m},{d}) = {z} exceeds {true}")

    return check


def zar_search_ops(seed: int, work: Path) -> list[Op]:
    """Deep exact searches, one work-capped row, and small n=3 and d=3 rows.

    The inputs are fixed, so the seed is ignored.
    """
    return [
        _op("zar n2 d2 m2..9", "zar-table --n 2 --m 2..9 --d 2", _zar_check(2, 2, range(2, 10)), work),
        _op(
            "zar n2 d2 m10 capped",
            f"zar-table --n 2 --m 10 --d 2 --budget {ZAR_CAP}",
            _zar_check(2, 2, [10], capped=True),
            work,
        ),
        _op("zar n2 d3 m3..7", "zar-table --n 2 --m 3..7 --d 3", _zar_check(2, 3, range(3, 8)), work),
        _op(
            "zar n3 d2 m2..3 json",
            "zar-table --n 3 --m 2..3 --d 2 --format json",
            _zar_check(3, 2, [2, 3]),
            work,
        ),
        _op("zar n3 d3 m3", "zar-table --n 3 --m 3 --d 3", _zar_check(3, 3, [3]), work),
    ]


# --- set systems and definable families ----------------------------------------


def _refs():
    """The naive references of the test suite, imported read-only."""
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.append(tests)
    import instance_gen

    return instance_gen


@lru_cache(maxsize=None)
def _system_answers(text: str, ms: tuple[int, ...]) -> tuple[int, dict[int, int]]:
    """Naive dimension and shatter values of a set system document.

    Members are the test suite's frozensets of tuples (member_sets), and a
    trace is their intersection with the box grid, as in ref_trace; the
    sets are built once here because ref_trace rebuilds them per box.
    """
    import vcn

    system = vcn.SetSystem.from_json(text)
    members = _refs().member_sets(system)
    sizes = system.universe.part_sizes

    def traces(m: int):
        """(trace size, grid size) of every size-m box."""
        for sels in product(*(combinations(range(s), m) for s in sizes)):
            grid = frozenset(product(*sels))
            yield len({member & grid for member in members}), len(grid)

    dim = 0
    for m in range(1, min(sizes) + 1):
        if not any(size == 2**cells for size, cells in traces(m)):
            break
        dim = m
    return dim, {m: max(size for size, _ in traces(m)) for m in ms}


def _extremal_answers(ms) -> tuple[int, dict[int, int]]:
    """The extremal family has dimension 1, and a size-m box of one block
    whose extremal witness has z(2,m,2)-1 edges traces all 2**(z-1) subsets."""
    return 1, {m: 2 ** (z_value(2, m, 2) - 1) for m in ms}


def _dim_check(answers):
    def check(out: str, work: Path) -> None:
        dim = answers(work)[0]
        expect(int(out) == dim, f"dim {out.strip()}, want {dim}")

    return check


def _shatter_check(answers, ms, column: str):
    """Rows m, pi, bound and tight (shatter) or ok (verify-bounds)."""

    def check(out: str, work: Path) -> None:
        dim, pis = answers(work)
        rows = _rows(out)
        expect([int(r["m"]) for r in rows] == list(ms), "wrong rows")
        for r in rows:
            m, pi, bound = int(r["m"]), int(r["pi"]), int(r["bound"])
            want = sauer(2, m, z_value(2, m, dim + 1))
            expect(pi == pis[m], f"pi({m}) = {pi}, want {pis[m]}")
            expect(bound == want, f"bound({m}) = {bound}, want {want}")
            flag = pi == bound if column == "tight" else pi <= bound
            expect(r[column] == str(flag).lower(), f"{column}({m}) = {r[column]}")

    return check


def _extremal_check(out: str, work: Path) -> None:
    doc = _doc(work, "fam.json")
    size = sum(EXTREMAL_BLOCKS)
    expect(doc["part_sizes"] == [size, size], "universe")
    want = family_size(EXTREMAL_BLOCKS)
    expect(len(set(doc["members"])) == len(doc["members"]) == want, "member count")
    block = [b for b, m in enumerate(EXTREMAL_BLOCKS) for _ in range(m)]
    for member in doc["members"]:
        mask = int(member, 16)
        cells = [divmod(i, size) for i in range(size * size) if mask >> i & 1]
        expect(len({block[a] for a, _ in cells} | {block[b] for _, b in cells}) <= 1, "member leaves its block")


def family_size(blocks) -> int:
    """Members of the n=2, d=1 extremal family on the given blocks.

    Each block contributes the power set of a K_{2,2}-free witness with
    z(2,m,2)-1 edges, and the blocks share only the empty member.
    """
    return sum(2 ** (z_value(2, m, 2) - 1) for m in blocks) - len(blocks) + 1


def _counterexample_check(out: str, work: Path) -> None:
    doc = _doc(work, "ce.json")
    expect(doc["domain"] == family_size(COUNTEREXAMPLE_BLOCKS) + sum(COUNTEREXAMPLE_BLOCKS), "domain")
    # R(b, a0, a1) for every edge of every member: each edge of a witness
    # with e edges lies in 2**(e-1) members.
    edges = [z_value(2, m, 2) - 1 for m in COUNTEREXAMPLE_BLOCKS]
    tuples = doc["relations"]["R"]["tuples"]
    expect(len(tuples) == sum(e * 2 ** (e - 1) for e in edges), "relation size")


def _answer_check(**want):
    def check(out: str, work: Path) -> None:
        doc = json.loads(out)
        for key, value in want.items():
            expect(doc[key] == value, f"{key} = {doc[key]}, want {value}")

    return check


def _structure_cells(text: str):
    """Truth values of driver.STRUCT_FORMULAS, recomputed with plain sets."""
    doc = json.loads(text)
    rel = {tuple(t) for t in doc["relations"]["R"]["tuples"]}
    objects = list(product(range(doc["domain"]), repeat=2))

    def values(x, y0, y1):
        return ((x[0], y0, y1) in rel, (x[1], y1, y0) in rel or x[0] == y0)

    return objects, values


def _types_check(out: str, work: Path) -> None:
    spec = _doc(work, "types.spec.json")
    objects, values = _structure_cells((work / spec["structure"]).read_text())
    want = []
    for box in spec["boxes"]:
        cells = list(product(*([t[0] for t in part] for part in box)))
        want.append(len({tuple(values(x, *c) for c in cells) for x in objects}))
    got = json.loads(out)["counts"]
    expect(got == want, f"type counts {got}, want {want}")


def ipn_reference(work: Path) -> list[bool]:
    """Whether each grid of ipn.spec.json is fully realized, with plain sets."""
    spec = _doc(work, "ipn.spec.json")
    doc = _doc(work, spec["structure"])
    rel = {tuple(t) for t in doc["relations"]["R"]["tuples"]}
    objects = list(product(range(doc["domain"]), repeat=2))
    want = []
    for grid in spec["grids"]:
        cells = list(product(*([t[0] for t in lst] for lst in grid)))
        # driver.IPN_FORMULA: R(x.0, y0, y1) xor R(x.1, y0, y1)
        patterns = {tuple(((x[0], *c) in rel) != ((x[1], *c) in rel) for c in cells) for x in objects}
        want.append(len(patterns) == 2 ** len(cells))
    return want


def _ipn_check(out: str, work: Path) -> None:
    want = ipn_reference(work)
    got = json.loads(out)["realized"]
    expect(got == want, f"realized {got}, want {want}")


def shatter_families_ops(seed: int, work: Path) -> list[Op]:
    """The extremal family, seeded dense and sparse systems, definable families."""
    ms_low, ms_high = (1, 2), (3,)
    extremal = lambda work: _extremal_answers((1, 2, 3))
    ops = [
        _op("extremal n2 d1", "extremal --n 2 --d 1 --m 2,3,4 --out @fam.json", _extremal_check, work),
        _op("dim extremal", "dim @fam.json", _dim_check(extremal), work),
        _op("shatter extremal m1..2", "shatter @fam.json --m 1..2", _shatter_check(extremal, ms_low, "tight"), work),
        _op("shatter extremal m3", "shatter @fam.json --m 3 --d 1", _shatter_check(extremal, ms_high, "tight"), work),
        _op(
            "verify-bounds extremal",
            "verify-bounds @fam.json --m 1..2 --d 1",
            _shatter_check(extremal, ms_low, "ok"),
            work,
        ),
    ]
    for kind, ms in (("dense", (2,)), ("sparse", (1, 2))):
        for k in range(2):
            name = f"{kind}{k}.json"
            answers = lambda work, name=name, ms=ms: _system_answers((work / name).read_text(), ms)
            m_arg = ",".join(map(str, ms))
            ops.append(
                _op(f"shatter {kind}{k}", f"shatter @{name} --m {m_arg}", _shatter_check(answers, ms, "tight"), work)
            )
    blocks = ",".join(map(str, COUNTEREXAMPLE_BLOCKS))
    members = family_size(COUNTEREXAMPLE_BLOCKS)
    size = members + sum(COUNTEREXAMPLE_BLOCKS)
    ops += [
        _op("counterexample", f"counterexample --m {blocks} --out @ce.json", _counterexample_check, work),
        _op(
            "phi_class counterexample",
            "phi_class @ce-phi_class.spec.json",
            _answer_check(members=members, part_sizes=[size, size]),
            work,
            True,
        ),
        # a size-1 box has two types as soon as some member holds its cell
        _op("pi_phi counterexample m1", "pi_phi @ce-pi_phi.spec.json", _answer_check(pi=2), work, True),
        _op("dim_phi counterexample cap1", "dim_phi @ce-dim_phi.spec.json", _answer_check(dim=1), work, True),
        _op("count_types random", "count_types @types.spec.json", _types_check, work, True),
        _op("verify_ipn_witness random", "verify_ipn_witness @ipn.spec.json", _ipn_check, work, True),
    ]
    return ops


# --- arrows, encodings, random hypergraphs and walks ---------------------------


def _arrow_check(want: bool):
    def check(out: str, work: Path) -> None:
        (row,) = _rows(out)
        expect(row["result"] == str(want).lower(), f"arrow {row['result']}, want {want}")

    return check


def pigeonhole_sum_sizes(b0: int, b1: int, k: int) -> tuple[int, int]:
    """Part sizes of the chain witness for points(1) in points(b0) + points(b1).

    k(b-1)+1 points are the fewest that force a monochromatic b-subset of
    a k-coloured ordered set (pigeonhole); the chain applies it once for
    the second summand and once per point of that witness to the first.
    """
    c1 = k * (b1 - 1) + 1
    c0 = k * (b0 - 1) + 1
    for _ in range(c1):
        c0 = k * (c0 - 1) + 1
    return c0, c1


def _direct_sum_check(out: str, work: Path) -> None:
    doc = _doc(work, "sum.json")
    sizes = pigeonhole_sum_sizes(2, 2, 2)
    expect([len(p) for p in doc["parts"]] == list(sizes), f"parts {doc['parts']}")
    expect(doc["domain"] == sum(sizes) and not doc["relations"], "domain or relations")


def _encode_check(source: str):
    def check(out: str, work: Path) -> None:
        src = _doc(work, source)
        m, r = src["domain"], src["relations"]["R"]["arity"]
        want = {frozenset(p * m + v for p, v in enumerate(sorted(e))) for e in src["relations"]["R"]["tuples"]}
        doc = json.loads(out)
        expect(doc["domain"] == r * m, "domain")
        expect([len(p) for p in doc["parts"]] == [m] * r, "parts")
        expect({frozenset(t) for t in doc["relations"]["R"]["tuples"]} == want, "edges")

    return check


def _edges(doc) -> set[tuple[int, ...]]:
    return {tuple(e) for e in doc["edges"]}


def level_one(doc) -> bool:
    """Every part meets every tuple of the other parts with and without an edge.

    This is extension level 1 read off the definition; ref_extension_ok
    enumerates 3**(tuples) sign patterns, so it only serves small parts.
    """
    edges, sizes = _edges(doc), doc["part_sizes"]
    for j, size in enumerate(sizes):
        others = product(*(range(s) for p, s in enumerate(sizes) if p != j))
        for rest in others:
            hits = {(*rest[:j], b, *rest[j:]) in edges for b in range(size)}
            if hits != {True, False}:
                return False
    return True


def _naive_level(doc, cap: int) -> int:
    h = SimpleNamespace(n=doc["n"], part_sizes=tuple(doc["part_sizes"]), edges=_edges(doc))
    ok = _refs().ref_extension_ok
    return next((t for t in range(cap, -1, -1) if ok(h, t)), -1)


def _gen_check(out_file: str, n: int, m: int, seed: int, small: bool):
    def check(out: str, work: Path) -> None:
        doc = _doc(work, out_file)
        expect((doc["n"], doc["part_sizes"], doc["t"], doc["seed"]) == (n, [m] * n, 1, seed), "header")
        passes = _naive_level(doc, 1) == 1 if small else level_one(doc)
        expect(passes, "sample fails extension level 1")

    return check


def _cross_values(edges, w) -> dict:
    """Edge value of every position tuple of w that takes one vertex per part."""
    parts = sorted({p for p, _ in w})
    by_part = [[i for i, (p, _) in enumerate(w) if p == q] for q in parts]
    return {combo: tuple(w[i][1] for i in combo) in edges for combo in product(*by_part)}


def _walk_check(k: int):
    def check(out: str, work: Path) -> None:
        edges = _edges(_doc(work, "h-walk.json"))
        pair, doc = _doc(work, f"pair{k}.json"), _doc(work, f"walk{k}.json")
        steps = doc["steps"]
        start, goal = _cross_values(edges, pair["w"]), _cross_values(edges, pair["w_prime"])
        expect(steps[0] == pair["w"], "walk does not start at w")
        expect(doc["length"] == len(steps) - 1 == sum(start[c] != goal[c] for c in start), "length")
        for a, b in zip(steps, steps[1:]):
            moved = [i for i in range(len(a)) if a[i] != b[i]]
            expect(len(moved) == 1 and a[moved[0]][0] == b[moved[0]][0], "a step must move one vertex")
        expect(_cross_values(edges, steps[-1]) == goal, "walk ends off the target pattern")

    return check


def _cert_check(k: int):
    def check(out: str, work: Path) -> None:
        edges = _edges(_doc(work, "h-walk.json"))
        steps = _doc(work, f"walk{k}.json")["steps"]
        certs = json.loads(out)["certificates"]
        expect(len(certs) == len(steps) - 1, "one certificate per step")
        for a, b, cert in zip(steps, steps[1:], certs):
            before, after = _cross_values(edges, a), _cross_values(edges, b)
            (flip,) = [c for c in before if before[c] != after[c]]
            v = [a[i] for i in range(len(a)) if i not in flip]
            expect(cert["v"] == v, f"V {cert['v']}, want {v}")
            expect(cert["flipped"] == sorted(b[i] for i in flip), "flipped edge")

    return check


def _select_check(out: str, work: Path) -> None:
    spec = _doc(work, "select.spec.json")
    edges = _edges(_doc(work, "h-walk.json"))
    doc = json.loads(out)
    g, selection = doc["g"], doc["selection"]
    expect(tuple(g) in edges, "reference is not an edge")
    v = [tuple(x) for x in spec["v"]]

    def edge(p, b, u):  # the pair with b in part p and u in the other part
        return ((b, u) if p == 0 else (u, b)) in edges

    for p, chosen in enumerate(selection):
        lo, hi = sorted(i for q, i in v if q == p)
        expect(len(chosen) == spec["s"] and g[p] in chosen, f"part {p} selection")
        expect(chosen == sorted(chosen) and all(lo < b < hi for b in chosen), "order window")
        for b in chosen:
            for q, u in v:
                if q != p:
                    expect(edge(p, b, u) == edge(p, g[p], u), "mixed edge disagrees with V")


def _level_check(name: str):
    def check(out: str, work: Path) -> None:
        doc = _doc(work, f"{name}.json")
        want = _naive_level(doc, 1) if name == "h-rand" else int(level_one(doc))
        expect(json.loads(out)["level"] == want, f"level {out.strip()}, want {want}")

    return check


def arrows_walks_ops(seed: int, work: Path) -> list[Op]:
    """Arrow searches, a direct sum, partite doubles, random hypergraphs, walks."""
    s_walk, s_three, s_small = inputs.gen_random_seeds(seed)
    part = inputs.WALK_PART
    ops = [
        # 2 -> (3)^2_2: false on 5 points, true on 6 and 7 (R(3,3) = 6)
        _op("arrow 5 points", "arrow @points2.json @points3.json @points5.json --k 2", _arrow_check(False), work),
        _op("arrow 6 points", "arrow @points2.json @points3.json @points6.json --k 2", _arrow_check(True), work),
        _op(
            "arrow 7 points",
            f"arrow @points2.json @points3.json @points7.json --k 2 --budget {ARROW_BUDGET}",
            _arrow_check(True),
            work,
        ),
        _op(
            "direct-sum",
            "direct-sum @points1.json @points2.json @points1.json @points2.json --k 2 --out @sum.json",
            _direct_sum_check,
            work,
        ),
    ]
    for name in ("graph0", "graph1", "triple0", "triple1"):
        ops.append(_op(f"encode-partite {name}", f"encode-partite @{name}.json", _encode_check(f"{name}.json"), work))
    for name, n, m, s, small in (
        ("h-walk", 2, part, s_walk, False),
        ("h-three", 3, 8, s_three, False),
        ("h-small", 2, inputs.SMALL_PART, s_small, True),
    ):
        ops.append(
            _op(
                f"gen-random {name}",
                f"gen-random --n {n} --m {m} --t 1 --seed {s} --out @{name}.json",
                _gen_check(f"{name}.json", n, m, s, small),
                work,
            )
        )
    for k in range(inputs.WALK_PAIRS):
        ops.append(_op(f"walk {k}", f"walk @h-walk.json @pair{k}.json --out @walk{k}.json", _walk_check(k), work))
    for k in range(inputs.WALK_PAIRS):
        ops.append(_op(f"step_certificate {k}", f"step_certificate @cert{k}.spec.json", _cert_check(k), work, True))
    ops.append(_op("random_subgraph", "random_subgraph @select.spec.json", _select_check, work, True))
    for name in ("h-rand", "h-three"):
        ops.append(
            _op(
                f"achieved_extension_level {name}",
                f"achieved_extension_level @level-{name}.spec.json",
                _level_check(name),
                work,
                True,
            )
        )
    return ops


WORKLOADS = {
    "zar-search": zar_search_ops,
    "shatter-families": shatter_families_ops,
    "arrows-walks": arrows_walks_ops,
}


def operations(workload: str, seed: int, work: Path) -> list[Op]:
    return WORKLOADS[workload](seed, work)


def judge(op: Op, code, stdout: str, stderr: str, work: Path) -> str | None:
    """None when the operation answered correctly, else what went wrong."""
    if code is None:
        return "timed out"
    if code != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {code}: {tail[0][:200]}"
    try:
        op.check(stdout, work)
    except Exception as exc:  # any unreadable or wrong answer is a wrong outcome
        return f"{type(exc).__name__}: {exc}"[:300]
    return None

"""Command line front end.

Every verb reads JSON inputs, writes CSV or JSON to stdout or --out, and
is deterministic byte for byte.  Exit codes: 0 success, 1 malformed input
or arguments, 2 an explicit refusal (budget exhausted, generation or walk
or selection gave up).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .errors import (
    BudgetExceededError,
    FiniteStructure,
    GenerationError,
    InputError,
    SelectionStuckError,
    WalkStuckError,
    _decode,
)

# Each verb imports the kernel modules it calls, so a process loads only those.


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as InputError (exit 1)."""

    def error(self, message):
        raise InputError(message)


def _parse_range(text: str) -> list[int]:
    """Accept '3', '1..4', or '2,3,5'."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"bad range {text!r}; use M, LO..HI, or A,B,C") from None


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _table(header: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "json":
        doc = [dict(zip(header, row)) for row in rows]
        return json.dumps(doc, sort_keys=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    return buf.getvalue().rstrip("\n")


def _load_system(path: str):
    from .setsys import SetSystem

    return SetSystem.from_json(_read_text(path))


def _load_structure(path: str):
    """A structure document as the arrow verbs read it: R alone, each tuple a vertex set."""
    from .ramsey import RelStructure

    s = FiniteStructure.from_json(_read_text(path))
    r = s.relations.get("R")
    return RelStructure(s.size, s.part_sizes, *((r.arity, r.tuples) if r else ()))


def cmd_zar_table(args) -> str:
    from .zar import zarankiewicz

    rows = []
    for m in _parse_range(args.m):
        res = zarankiewicz(args.n, m, args.d, args.budget)
        rows.append([args.n, m, args.d, res.z, res.status, res.z_upper])
    return _table(["n", "m", "d", "z", "status", "z_upper"], rows, args.format)


def _bound_rows(args, refusal: str) -> list[list[int]]:
    """(m, pi, bound) per m, the binomial bound taken at the exact z(n, m, d + 1)."""
    from .setsys import sauer_binomial_bound, shatter_fn, vc_n_dim
    from .zar import zarankiewicz

    system = _load_system(args.path)
    n = system.universe.n
    d = args.d if args.d is not None else vc_n_dim(system)
    rows = []
    for m in _parse_range(args.m):
        # shatter_fn checks m against the part sizes before the threshold search
        pi = shatter_fn(system, m)
        res = zarankiewicz(n, m, d + 1, args.budget)
        if res.status != "exact":
            raise BudgetExceededError(f"threshold for m={m} is only a lower bound; {refusal}")
        rows.append([m, pi, sauer_binomial_bound(n, m, res.z)])
    return rows


def cmd_shatter(args) -> str:
    rows = _bound_rows(args, "the binomial bound would be unreliable")
    rows = [[m, pi, bound, pi == bound] for m, pi, bound in rows]
    return _table(["m", "pi", "bound", "tight"], rows, args.format)


def cmd_dim(args) -> str:
    from .setsys import vc_n_dim

    value = vc_n_dim(_load_system(args.path))
    if args.format == "json":
        return json.dumps({"dim": value}, sort_keys=True)
    return str(value)


def cmd_shift(args) -> str:
    from .setsys import GroundFamily, shift

    family = GroundFamily.from_json(_read_text(args.path))
    return shift(family).to_json()


def cmd_extremal(args) -> str:
    from .zar import build_extremal_family

    fam = build_extremal_family(args.n, args.d, _parse_range(args.m), args.budget)
    return fam.to_json()


def cmd_counterexample(args) -> str:
    from .fmodel import build_counterexample_structure

    return build_counterexample_structure(_parse_range(args.m), args.budget).to_json()


def cmd_arrow(args) -> str:
    from .ramsey import _ARROW_BUDGET, ColoringProblem, arrow_scan

    a = _load_structure(args.a)
    b = _load_structure(args.b)
    c = _load_structure(args.c)
    budget = args.budget if args.budget is not None else _ARROW_BUDGET
    result, checked = arrow_scan(ColoringProblem(a, b, c, args.k), budget)
    rows = [[a.size, b.size, c.size, args.k, result, checked]]
    header = ["a_size", "b_size", "c_size", "k", "result", "colorings_checked"]
    return _table(header, rows, args.format)


def cmd_direct_sum(args) -> str:
    from .ramsey import build_direct_sum_witness, ordered_set_oracle

    parts = [_load_structure(p) for p in (args.a0, args.b0, args.a1, args.b1)]
    oracle = None
    if args.budget is not None:
        oracle = ordered_set_oracle(args.budget)
    witness = build_direct_sum_witness(*parts, args.k, witness_oracle=oracle)
    return witness.to_json()


def cmd_encode_partite(args) -> str:
    from .ramsey import encode_tilde

    return encode_tilde(_load_structure(args.path)).to_json()


def cmd_gen_random(args) -> str:
    from .hyperrand import _RETRIES, gen_extension_hypergraph

    retries = args.budget if args.budget is not None else _RETRIES
    eh = gen_extension_hypergraph(args.n, args.m, args.t, args.seed, retries)
    return eh.to_json()


def cmd_walk(args) -> str:
    from .hyperrand import adjacency_walk
    from .zar import PartiteHypergraph

    h = PartiteHypergraph.from_json(_read_text(args.hypergraph))

    def pair(doc):
        return doc["w"], doc["w_prime"]

    w, wp = _decode(_read_text(args.pair), "pair", pair, {"w": [[int]], "w_prime": [[int]]})
    steps = adjacency_walk(h, w, wp)
    out = {
        "length": len(steps) - 1,
        "steps": [[list(v) for v in step] for step in steps],
    }
    return json.dumps(out, sort_keys=True)


def cmd_verify_bounds(args) -> str:
    rows = _bound_rows(args, "cannot certify")
    rows = [[m, pi, bound, pi <= bound] for m, pi, bound in rows]
    return _table(["m", "pi", "bound", "ok"], rows, args.format)


class _Budget(argparse.Action):
    """--budget: a nonnegative integer, whatever the verb counts with it."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be nonnegative, got {value}")
        setattr(namespace, self.dest, value)


def _add_common(sub, fmt_choices=None, fmt_default=None):
    sub.add_argument("--out", help="write the output here instead of stdout")
    if fmt_choices:
        sub.add_argument(
            "--format", choices=fmt_choices, default=fmt_default, help="output format"
        )
    sub.add_argument(
        "--budget",
        type=int,
        action=_Budget,
        help="search/enumeration budget; refusals exit with code 2",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="vcn", description=__doc__)
    subs = parser.add_subparsers(dest="verb", required=True)

    s = subs.add_parser("zar-table", help="box-threshold table over a range of m")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", required=True, help="M, LO..HI, or A,B,C")
    s.add_argument("--d", type=int, required=True)
    _add_common(s, ("csv", "json"), "csv")
    s.set_defaults(func=cmd_zar_table)

    s = subs.add_parser("shatter", help="shatter function vs the binomial bound")
    s.add_argument("path", help="set system JSON")
    s.add_argument("--m", required=True)
    s.add_argument("--d", type=int, help="assume this dimension; default: compute it")
    _add_common(s, ("csv", "json"), "csv")
    s.set_defaults(func=cmd_shatter)

    s = subs.add_parser("dim", help="box dimension of a set system")
    s.add_argument("path", help="set system JSON")
    _add_common(s, ("text", "json"), "text")
    s.set_defaults(func=cmd_dim)

    s = subs.add_parser("shift", help="down-shift a ground family to its fixpoint")
    s.add_argument("path", help="ground family JSON")
    _add_common(s)
    s.set_defaults(func=cmd_shift)

    s = subs.add_parser("extremal", help="family meeting the binomial bound's order")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--m", required=True, help="block sizes")
    _add_common(s)
    s.set_defaults(func=cmd_extremal)

    s = subs.add_parser(
        "counterexample", help="structure separating formula types from traces"
    )
    s.add_argument("--m", required=True, help="block sizes")
    _add_common(s)
    s.set_defaults(func=cmd_counterexample)

    s = subs.add_parser("arrow", help="exhaustive partition arrow check")
    s.add_argument("a", help="pattern structure JSON")
    s.add_argument("b", help="target structure JSON")
    s.add_argument("c", help="ambient structure JSON")
    s.add_argument("--k", type=int, required=True, help="number of colors")
    _add_common(s, ("csv", "json"), "csv")
    s.set_defaults(func=cmd_arrow)

    s = subs.add_parser("direct-sum", help="witness for a tagged-sum arrow problem")
    s.add_argument("a0")
    s.add_argument("b0")
    s.add_argument("a1")
    s.add_argument("b1")
    s.add_argument("--k", type=int, required=True)
    _add_common(s)
    s.set_defaults(func=cmd_direct_sum)

    s = subs.add_parser("encode-partite", help="partite double of an ordered hypergraph")
    s.add_argument("path", help="partless structure JSON with an edge relation")
    _add_common(s)
    s.set_defaults(func=cmd_encode_partite)

    s = subs.add_parser("gen-random", help="sample a hypergraph with a verified level")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int, required=True, help="size of every part")
    s.add_argument("--t", type=int, required=True, help="extension level to certify")
    s.add_argument("--seed", type=int, required=True)
    _add_common(s)
    s.set_defaults(func=cmd_gen_random)

    s = subs.add_parser("walk", help="adjacency walk between two vertex sets")
    s.add_argument("hypergraph", help="hypergraph JSON")
    s.add_argument("pair", help='JSON {"w": [[part, pos], ...], "w_prime": [...]}')
    _add_common(s)
    s.set_defaults(func=cmd_walk)

    s = subs.add_parser("verify-bounds", help="certify the shatter bound on a system")
    s.add_argument("path", help="set system JSON")
    s.add_argument("--m", required=True)
    s.add_argument("--d", type=int, help="assume this dimension; default: compute it")
    _add_common(s, ("csv", "json"), "csv")
    s.set_defaults(func=cmd_verify_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceededError, GenerationError, WalkStuckError, SelectionStuckError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

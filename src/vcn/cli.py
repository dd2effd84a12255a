"""Command line front end.

Every verb reads JSON inputs, writes CSV or JSON to stdout or --out, and
is deterministic byte for byte.  Exit codes: 0 success, 1 malformed input
or arguments, 2 an explicit refusal (budget exhausted, generation or walk
or selection gave up).
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    BudgetExceededError,
    FiniteStructure,
    GenerationError,
    InputError,
    PartiteHypergraph,
    SelectionStuckError,
    WalkStuckError,
    _decode,
)

# Each verb imports the kernel modules it calls, and json where it reads
# or writes that format, so a process loads only those.


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
        import json

        doc = [dict(zip(header, row)) for row in rows]
        return json.dumps(doc, sort_keys=True)
    # headers are fixed words and values integers or fixed words: nothing to quote
    return "\n".join(",".join(map(_fmt, row)) for row in [header, *rows])


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
        import json

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
    from .zar import build_counterexample_structure

    return build_counterexample_structure(_parse_range(args.m), args.budget).to_json()


def cmd_arrow(args) -> str:
    from .ramsey import ColoringProblem, arrow_scan

    a = _load_structure(args.a)
    b = _load_structure(args.b)
    c = _load_structure(args.c)
    result, checked = arrow_scan(ColoringProblem(a, b, c, args.k), args.budget)
    rows = [[a.size, b.size, c.size, args.k, result, checked]]
    header = ["a_size", "b_size", "c_size", "k", "result", "colorings_checked"]
    return _table(header, rows, args.format)


def cmd_direct_sum(args) -> str:
    from .ramsey import build_direct_sum_witness

    parts = [_load_structure(p) for p in (args.a0, args.b0, args.a1, args.b1)]
    return build_direct_sum_witness(*parts, args.k).to_json()


def cmd_encode_partite(args) -> str:
    from .ramsey import encode_tilde

    return encode_tilde(_load_structure(args.path)).to_json()


def cmd_gen_random(args) -> str:
    from .hyperrand import gen_extension_hypergraph

    eh = gen_extension_hypergraph(args.n, args.m, args.t, args.seed, args.budget)
    return eh.to_json()


def cmd_walk(args) -> str:
    import json

    from .hyperrand import adjacency_walk

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


def _add_common(sub, formats: tuple[str, ...]) -> None:
    """--out, --format where the verb has formats (the first is the default), --budget."""
    sub.add_argument("--out", help="write the output here instead of stdout")
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0], help="output format")
    sub.add_argument(
        "--budget",
        type=int,
        action=_Budget,
        help="search/enumeration budget; refusals exit with code 2",
    )


def _zar_table_args(s):
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", required=True, help="M, LO..HI, or A,B,C")
    s.add_argument("--d", type=int, required=True)


def _bound_args(s):
    s.add_argument("path", help="set system JSON")
    s.add_argument("--m", required=True)
    s.add_argument("--d", type=int, help="assume this dimension; default: compute it")


def _dim_args(s):
    s.add_argument("path", help="set system JSON")


def _shift_args(s):
    s.add_argument("path", help="ground family JSON")


def _extremal_args(s):
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--m", required=True, help="block sizes")


def _counterexample_args(s):
    s.add_argument("--m", required=True, help="block sizes")


def _arrow_args(s):
    s.add_argument("a", help="pattern structure JSON")
    s.add_argument("b", help="target structure JSON")
    s.add_argument("c", help="ambient structure JSON")
    s.add_argument("--k", type=int, required=True, help="number of colors")


def _direct_sum_args(s):
    for name in ("a0", "b0", "a1", "b1"):
        s.add_argument(name)
    s.add_argument("--k", type=int, required=True)


def _encode_partite_args(s):
    s.add_argument("path", help="partless structure JSON with an edge relation")


def _gen_random_args(s):
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int, required=True, help="size of every part")
    s.add_argument("--t", type=int, required=True, help="extension level to certify")
    s.add_argument("--seed", type=int, required=True)


def _walk_args(s):
    s.add_argument("hypergraph", help="hypergraph JSON")
    s.add_argument("pair", help='JSON {"w": [[part, pos], ...], "w_prime": [...]}')


# verb: (help line, command, argument builder, output formats), in the order
# the help lists them
_VERBS = {
    "zar-table": (
        "box-threshold table over a range of m", cmd_zar_table, _zar_table_args, ("csv", "json")
    ),
    "shatter": (
        "shatter function vs the binomial bound", cmd_shatter, _bound_args, ("csv", "json")
    ),
    "dim": ("box dimension of a set system", cmd_dim, _dim_args, ("text", "json")),
    "shift": ("down-shift a ground family to its fixpoint", cmd_shift, _shift_args, ()),
    "extremal": (
        "family meeting the binomial bound's order", cmd_extremal, _extremal_args, ()
    ),
    "counterexample": (
        "structure separating formula types from traces",
        cmd_counterexample,
        _counterexample_args,
        (),
    ),
    "arrow": ("exhaustive partition arrow check", cmd_arrow, _arrow_args, ("csv", "json")),
    "direct-sum": (
        "witness for a tagged-sum arrow problem", cmd_direct_sum, _direct_sum_args, ()
    ),
    "encode-partite": (
        "partite double of an ordered hypergraph", cmd_encode_partite, _encode_partite_args, ()
    ),
    "gen-random": (
        "sample a hypergraph with a verified level", cmd_gen_random, _gen_random_args, ()
    ),
    "walk": ("adjacency walk between two vertex sets", cmd_walk, _walk_args, ()),
    "verify-bounds": (
        "certify the shatter bound on a system", cmd_verify_bounds, _bound_args, ("csv", "json")
    ),
}


def build_parser(verb: str | None = None) -> _Parser:
    """The parser with the named verb's subparser alone, or with every verb's.

    Without a known verb (help, no verb, an unknown one) every subparser
    is built, so the usage and the error text list them all.
    """
    parser = _Parser(prog="vcn", description=__doc__)
    subs = parser.add_subparsers(dest="verb", required=True)
    for name in [verb] if verb in _VERBS else _VERBS:
        help_line, func, add_args, formats = _VERBS[name]
        s = subs.add_parser(name, help=help_line)
        add_args(s)
        _add_common(s, formats)
        s.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
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

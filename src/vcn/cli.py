"""Command line front end.

Every verb reads JSON inputs, writes CSV or JSON to stdout or --out, and
is deterministic byte for byte.  Exit codes: 0 success, 1 malformed input
or arguments, 2 an explicit refusal (budget exhausted, generation or walk
or selection gave up).
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

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


# verb: (help line, command, positionals as (name, help), options as
# (name, type, required, help), output formats), in the order the help lists
# them.  Every verb also takes --out, --budget and, where it has formats,
# --format, whose default is the first.  A verb reads its arguments from this
# table and loads argparse only to print help or a usage error.
_N, _D, _BLOCKS = ("n", int, True, None), ("d", int, True, None), ("m", str, True, "block sizes")
_SYSTEM, _TABLE = [("path", "set system JSON")], ("csv", "json")
_BOUND = [("m", str, True, None), ("d", int, False, "assume this dimension; default: compute it")]
_VERBS = {
    "zar-table": (
        "box-threshold table over a range of m",
        cmd_zar_table,
        [],
        [_N, ("m", str, True, "M, LO..HI, or A,B,C"), _D],
        _TABLE,
    ),
    "shatter": ("shatter function vs the binomial bound", cmd_shatter, _SYSTEM, _BOUND, _TABLE),
    "dim": ("box dimension of a set system", cmd_dim, _SYSTEM, [], ("text", "json")),
    "shift": (
        "down-shift a ground family to its fixpoint",
        cmd_shift,
        [("path", "ground family JSON")],
        [],
        (),
    ),
    "extremal": (
        "family meeting the binomial bound's order", cmd_extremal, [], [_N, _D, _BLOCKS], ()
    ),
    "counterexample": (
        "structure separating formula types from traces", cmd_counterexample, [], [_BLOCKS], ()
    ),
    "arrow": (
        "exhaustive partition arrow check",
        cmd_arrow,
        [("a", "pattern structure JSON"), ("b", "target structure JSON")]
        + [("c", "ambient structure JSON")],
        [("k", int, True, "number of colors")],
        _TABLE,
    ),
    "direct-sum": (
        "witness for a tagged-sum arrow problem",
        cmd_direct_sum,
        [(name, None) for name in ("a0", "b0", "a1", "b1")],
        [("k", int, True, None)],
        (),
    ),
    "encode-partite": (
        "partite double of an ordered hypergraph",
        cmd_encode_partite,
        [("path", "partless structure JSON with an edge relation")],
        [],
        (),
    ),
    "gen-random": (
        "sample a hypergraph with a verified level",
        cmd_gen_random,
        [],
        [_N, ("m", int, True, "size of every part")]
        + [("t", int, True, "extension level to certify"), ("seed", int, True, None)],
        (),
    ),
    "walk": (
        "adjacency walk between two vertex sets",
        cmd_walk,
        [("hypergraph", "hypergraph JSON")]
        + [("pair", 'JSON {"w": [[part, pos], ...], "w_prime": [...]}')],
        [],
        (),
    ),
    "verify-bounds": (
        "certify the shatter bound on a system", cmd_verify_bounds, _SYSTEM, _BOUND, _TABLE
    ),
}


def _read_args(argv: list[str]) -> dict | None:
    """vars() of the namespace argparse would read from argv, or None to let argparse answer.

    Read here: a known verb, then options spelled in full as --opt value or
    --opt=value (a repeat keeps the last value), no value or positional that
    starts with '-', ints that int() reads, a --format of the verb's, a
    --budget >= 0, every required option and exactly the verb's positionals.
    Help, abbreviations, '--' and every usage error are argparse's.
    """
    if not argv or argv[0] not in _VERBS:
        return None
    _, func, positionals, options, formats = _VERBS[argv[0]]
    kinds = {"out": str, "budget": int, **{name: kind for name, kind, _, _ in options}}
    args = {"verb": argv[0], "func": func, **dict.fromkeys(kinds)}
    if formats:
        kinds["format"], args["format"] = str, formats[0]
    given, words = [], iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            given.append(word)
            continue
        name, eq, value = word.removeprefix("--").partition("=")
        value = value if eq else next(words, None)
        if name not in kinds or value is None or value.startswith("-"):
            return None
        try:
            args[name] = kinds[name](value)
        except ValueError:
            return None
        if name == "format" and value not in formats or name == "budget" and args[name] < 0:
            return None
    if len(given) != len(positionals) or any(r and args[o] is None for o, _, r, _ in options):
        return None
    return args | dict(zip([name for name, _ in positionals], given))


def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb; main builds it only to print help or a usage error."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse that reports usage problems as InputError (exit 1)."""

        def error(self, message):
            raise InputError(message)

        def _get_values(self, action, arg_strings):
            if action.option_strings and arg_strings == ["--"]:  # --opt=--, which reads as []
                raise argparse.ArgumentError(action, "expected one argument")
            value = super()._get_values(action, arg_strings)
            if action.dest == "budget" and value < 0:
                raise argparse.ArgumentError(action, f"must be nonnegative, got {value}")
            return value

    parser = Parser(prog="vcn", description=__doc__)
    subs = parser.add_subparsers(dest="verb", required=True)
    for name, (help_line, func, positionals, options, formats) in _VERBS.items():
        s = subs.add_parser(name, help=help_line)
        for arg, help_text in positionals:
            s.add_argument(arg, help=help_text)
        for opt, kind, required, help_text in options:
            s.add_argument(f"--{opt}", type=kind, required=required, help=help_text)
        s.add_argument("--out", help="write the output here instead of stdout")
        if formats:
            s.add_argument("--format", choices=formats, default=formats[0], help="output format")
        budget = "search/enumeration budget; refusals exit with code 2"
        s.add_argument("--budget", type=int, help=budget)
        s.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        read = _read_args(argv)  # None: help or a usage error, which argparse prints or raises
        args = SimpleNamespace(**read) if read else build_parser().parse_args(argv)
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

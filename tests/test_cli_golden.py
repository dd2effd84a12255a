"""Golden output of the vcn command: one pinned run of every verb.

Each case pins stdout and the exit code byte for byte (and stderr for the
refusal and the error), so any change to what a verb prints shows here;
so do the usage cases for help, a missing verb, an unknown one and the
argument forms and errors that argparse alone answers.
The inputs follow the README examples; set systems and hypergraphs are
the pinned outputs of the extremal and gen-random cases themselves, and
the larger extremal family is built by the library.
"""

import json
import sys

import pytest

import vcn.cli
from vcn import GroundFamily, RelStructure, build_extremal_family, points
from vcn.cli import main

EXTREMAL = '{"members": ["0", "1", "2", "3", "8", "9", "a", "b"], "part_sizes": [2, 2]}\n'
GEN_RANDOM = (
    '{"edges": [[0, 0], [0, 4], [1, 5], [2, 1], [2, 3], [3, 0], [3, 1], [3, 2], '
    '[3, 3], [3, 5], [4, 0], [4, 5], [5, 1], [5, 2]], "n": 2, "part_sizes": [6, 6], '
    '"seed": 4, "t": 1}\n'
)
ARROW_HEADER = "a_size,b_size,c_size,k,result,colorings_checked\n"


def _inputs(tmp_path):
    files = {f"p{k}.json": points(k).to_json() for k in (1, 2, 3, 5, 6)}
    files["fam.json"] = EXTREMAL
    # the family of `extremal --n 2 --d 1 --m 2,3,4`: 582 members on 9 x 9
    files["fam234.json"] = build_extremal_family(2, 1, (2, 3, 4)).to_json()
    files["family.json"] = GroundFamily(4, (0b0101, 0b0011, 0b0111, 0b1100, 0b1010)).to_json()
    graph = RelStructure(4, None, 2, frozenset(map(frozenset, [(0, 1), (1, 3), (2, 3)])))
    files["graph.json"] = graph.to_json()
    files["h.json"] = GEN_RANDOM
    files["pair.json"] = json.dumps({"w": [[0, 1], [1, 1]], "w_prime": [[0, 2], [1, 1]]})
    for name, text in files.items():
        (tmp_path / name).write_text(text)


# (argv, exit code, stdout, stderr); file names are relative to the inputs.
CASES = {
    "zar-table": (
        ["zar-table", "--n", "2", "--m", "2..4", "--d", "2"], 0,
        "n,m,d,z,status,z_upper\n2,2,2,4,exact,4\n2,3,2,7,exact,7\n2,4,2,10,exact,10\n", "",
    ),
    "extremal": (["extremal", "--n", "2", "--d", "1", "--m", "2"], 0, EXTREMAL, ""),
    "dim": (["dim", "fam.json"], 0, "1\n", ""),
    "shatter": (
        ["shatter", "fam.json", "--m", "1..2"], 0,
        "m,pi,bound,tight\n1,2,2,true\n2,8,15,false\n", "",
    ),
    "shatter-extremal-m3": (
        ["shatter", "fam234.json", "--m", "3", "--d", "1"], 0,
        "m,pi,bound,tight\n3,64,466,false\n", "",
    ),
    "dim-extremal": (["dim", "fam234.json"], 0, "1\n", ""),
    "verify-bounds": (
        ["verify-bounds", "fam.json", "--m", "2"], 0, "m,pi,bound,ok\n2,8,15,true\n", "",
    ),
    "shift": (
        ["shift", "family.json"], 0,
        '{"ground_size": 4, "members": ["0", "2", "4", "8", "c"]}\n', "",
    ),
    "counterexample": (
        ["counterexample", "--m", "2"], 0,
        '{"domain": 10, "relations": {"R": {"arity": 3, "tuples": [[1, 8, 8], [2, 8, 9], '
        "[3, 8, 8], [3, 8, 9], [4, 9, 9], [5, 8, 8], [5, 9, 9], [6, 8, 9], [6, 9, 9], "
        "[7, 8, 8], [7, 8, 9], [7, 9, 9]]}}}\n", "",
    ),
    "arrow": (
        ["arrow", "p2.json", "p3.json", "p6.json", "--k", "2"], 0,
        ARROW_HEADER + "2,3,6,2,true,32768\n", "",
    ),
    "arrow-fails": (
        ["arrow", "p2.json", "p3.json", "p5.json", "--k", "2"], 0,
        ARROW_HEADER + "2,3,5,2,false,221\n", "",
    ),
    "direct-sum": (
        ["direct-sum", "p1.json", "p2.json", "p1.json", "p2.json", "--k", "2"], 0,
        '{"domain": 20, "order": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, '
        '16, 17, 18, 19], "parts": [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, '
        '15, 16], [17, 18, 19]], "relations": {}}\n', "",
    ),
    "encode-partite": (
        ["encode-partite", "graph.json"], 0,
        '{"domain": 8, "order": [0, 1, 2, 3, 4, 5, 6, 7], "parts": [[0, 1, 2, 3], '
        '[4, 5, 6, 7]], "relations": {"R": {"arity": 2, "tuples": [[0, 5], [1, 7], '
        "[2, 7]]}}}\n", "",
    ),
    "gen-random": (
        ["gen-random", "--n", "2", "--m", "6", "--t", "1", "--seed", "4"], 0, GEN_RANDOM, "",
    ),
    "walk": (
        ["walk", "h.json", "pair.json"], 0,
        '{"length": 1, "steps": [[[0, 1], [1, 1]], [[0, 2], [1, 1]]]}\n', "",
    ),
    "refusal": (
        ["arrow", "p2.json", "p3.json", "p6.json", "--k", "2", "--budget", "10"], 2, "",
        "refused: arrow search passed its budget of 10 nodes\n",
    ),
    "error": (
        ["zar-table", "--n", "2", "--m", "x..y", "--d", "2"], 1, "",
        "error: bad range 'x..y'; use M, LO..HI, or A,B,C\n",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_golden_output(name, tmp_path, monkeypatch, capsys):
    argv, code, out, err = CASES[name]
    _inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == err


def test_golden_cases_cover_every_verb():
    from vcn.cli import build_parser

    verbs = set(build_parser()._subparsers._group_actions[0].choices)
    assert {argv[0] for argv, *_ in CASES.values()} == verbs


VERBS = (
    "zar-table,shatter,dim,shift,extremal,counterexample,arrow,direct-sum,"
    "encode-partite,gen-random,walk,verify-bounds"
)
# (argv, exit code, stdout, stderr) at 80 columns
USAGE_CASES = {
    "help": (
        ["--help"], 0,
        "usage: vcn [-h]\n"
        f"           {{{VERBS}}}\n"
        "           ...\n"
        "\n"
        "Command line front end. Every verb reads JSON inputs, writes CSV or JSON to\n"
        "stdout or --out, and is deterministic byte for byte. Exit codes: 0 success, 1\n"
        "malformed input or arguments, 2 an explicit refusal (budget exhausted,\n"
        "generation or walk or selection gave up).\n"
        "\n"
        "positional arguments:\n"
        f"  {{{VERBS}}}\n"
        "    zar-table           box-threshold table over a range of m\n"
        "    shatter             shatter function vs the binomial bound\n"
        "    dim                 box dimension of a set system\n"
        "    shift               down-shift a ground family to its fixpoint\n"
        "    extremal            family meeting the binomial bound's order\n"
        "    counterexample      structure separating formula types from traces\n"
        "    arrow               exhaustive partition arrow check\n"
        "    direct-sum          witness for a tagged-sum arrow problem\n"
        "    encode-partite      partite double of an ordered hypergraph\n"
        "    gen-random          sample a hypergraph with a verified level\n"
        "    walk                adjacency walk between two vertex sets\n"
        "    verify-bounds       certify the shatter bound on a system\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    ),
    "verb-help": (
        ["zar-table", "--help"], 0,
        "usage: vcn zar-table [-h] --n N --m M --d D [--out OUT] [--format {csv,json}]\n"
        "                     [--budget BUDGET]\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --n N\n"
        "  --m M                M, LO..HI, or A,B,C\n"
        "  --d D\n"
        "  --out OUT            write the output here instead of stdout\n"
        "  --format {csv,json}  output format\n"
        "  --budget BUDGET      search/enumeration budget; refusals exit with code 2\n",
        "",
    ),
    "no-verb": ([], 1, "", "error: the following arguments are required: verb\n"),
    "unknown-verb": (
        ["bogus"], 1, "",
        "error: argument verb: invalid choice: 'bogus' (choose from "
        + ", ".join(f"'{verb}'" for verb in VERBS.split(","))
        + ")\n",
    ),
    "invalid-int": (
        ["zar-table", "--n", "x", "--m", "2", "--d", "2"], 1, "",
        "error: argument --n: invalid int value: 'x'\n",
    ),
    "bad-format": (
        ["zar-table", "--n", "2", "--m", "2", "--d", "2", "--format", "xml"], 1, "",
        "error: argument --format: invalid choice: 'xml' (choose from 'csv', 'json')\n",
    ),
    "extra-argument": (
        ["dim", "a.json", "b.json"], 1, "", "error: unrecognized arguments: b.json\n"
    ),
    "abbreviated-option": (
        ["zar-table", "--n", "2", "--m", "2..3", "--d", "2", "--bud", "5"], 0,
        "n,m,d,z,status,z_upper\n2,2,2,4,exact,4\n2,3,2,7,exact,7\n", "",
    ),
    "equals-form": (
        ["zar-table", "--n=2", "--m=2..3", "--d=2", "--format=json"], 0,
        '[{"d": 2, "m": 2, "n": 2, "status": "exact", "z": 4, "z_upper": 4}, '
        '{"d": 2, "m": 3, "n": 2, "status": "exact", "z": 7, "z_upper": 7}]\n',
        "",
    ),
}


@pytest.mark.parametrize("name", list(USAGE_CASES))
def test_usage_output(name, monkeypatch, capsys):
    argv, code, out, err = USAGE_CASES[name]
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse exits after printing help
        got = exc.code
    assert got == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == err


def _spy_on_build_parser(monkeypatch) -> list[list[str]]:
    """The verbs of each parser main builds, in build order."""
    built, build_parser = [], vcn.cli.build_parser

    def spy():
        parser = build_parser()
        built.append(list(parser._subparsers._group_actions[0].choices))
        return parser

    monkeypatch.setattr(vcn.cli, "build_parser", spy)
    return built


@pytest.mark.parametrize("name", list(CASES))
def test_golden_argv_builds_no_parser(name, tmp_path, monkeypatch, capsys):
    _inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delitem(sys.modules, "argparse", raising=False)
    built = _spy_on_build_parser(monkeypatch)
    assert main(CASES[name][0]) == CASES[name][1]
    assert built == [] and "argparse" not in sys.modules


# Help and a usage error build the parser of every verb.
@pytest.mark.parametrize("argv", [["zar-table", "--help"], ["--help"], ["walk"]])
def test_help_and_usage_errors_build_every_verb(argv, monkeypatch, capsys):
    built = _spy_on_build_parser(monkeypatch)
    try:
        main(argv)
    except SystemExit:  # argparse exits after printing help
        pass
    assert built == [VERBS.split(",")]

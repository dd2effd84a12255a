"""The vcn command: verbs, formats, exit codes, and determinism."""

import json
import random

import pytest

from vcn import (
    ExtensionHypergraph,
    FiniteStructure,
    GroundFamily,
    InputError,
    PartiteHypergraph,
    RelStructure,
    SetSystem,
    points,
)
from vcn.cli import _VERBS, _read_args, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zar_table_csv(capsys):
    code, out, err = run(capsys, "zar-table", "--n", "2", "--m", "1..3", "--d", "2")
    assert code == 0 and not err
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,d,z,status,z_upper"
    assert lines[1].startswith("2,1,2,2,exact,")
    assert lines[3].startswith("2,3,2,7,exact,")


def test_zar_table_json_and_range_forms(capsys):
    code, out, _ = run(capsys, "zar-table", "--n", "1", "--m", "2,4", "--d", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [row["z"] for row in doc] == [2, 2]


def test_zar_table_json_rows_hold_the_proven_bracket_only(capsys):
    # a budget of 20 nodes settles m <= 5 and caps m = 6
    argv = ("zar-table", "--n", "2", "--m", "1..6", "--d", "2", "--budget", "20")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(set(row) == {"n", "m", "d", "z", "status", "z_upper"} for row in doc)
    assert [row["status"] for row in doc] == ["exact"] * 5 + ["lower_bound_only"]
    assert all(row["z"] == row["z_upper"] for row in doc if row["status"] == "exact")
    assert doc[-1]["z"] < doc[-1]["z_upper"]


def test_zar_table_deterministic(capsys):
    args = ("zar-table", "--n", "2", "--m", "1..4", "--d", "2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_bad_range_is_input_error(capsys):
    code, _, err = run(capsys, "zar-table", "--n", "2", "--m", "x..y", "--d", "2")
    assert code == 1 and "error:" in err


def test_missing_verb_is_input_error(capsys):
    code, _, err = run(capsys)
    assert code == 1 and "error:" in err


def test_dim_and_shatter_and_verify(tmp_path, capsys):
    code, out, _ = run(capsys, "extremal", "--n", "2", "--d", "1", "--m", "2")
    assert code == 0
    path = tmp_path / "fam.json"
    path.write_text(out.strip() + "\n")

    code, out, _ = run(capsys, "dim", str(path))
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "dim", str(path), "--format", "json")
    assert json.loads(out) == {"dim": 1}

    code, out, _ = run(capsys, "shatter", str(path), "--m", "1..2")
    lines = out.strip().splitlines()
    assert lines[0] == "m,pi,bound,tight"
    assert lines[2] == "2,8,15,false"

    code, out, _ = run(capsys, "verify-bounds", str(path), "--m", "1..2")
    assert code == 0
    assert all(line.endswith("true") for line in out.strip().splitlines()[1:])


@pytest.mark.parametrize("verb", ["shatter", "verify-bounds"])
def test_box_beyond_a_part_is_input_error_before_search(verb, tmp_path, capsys, monkeypatch):
    code, out, _ = run(capsys, "extremal", "--n", "2", "--d", "1", "--m", "2")
    path = tmp_path / "fam.json"
    path.write_text(out)
    # m is checked before the threshold search, which would hit the budget at m=12
    for m in ("12", "30"):
        code, out, err = run(capsys, verb, str(path), "--m", m, "--budget", "1000")
        assert (code, out, err) == (1, "", f"error: box size {m} exceeds a part size\n")

    def no_search(*args):
        raise AssertionError("the threshold search ran")

    # unbudgeted, z(2, 30, 2) would search for minutes
    monkeypatch.setattr("vcn.zar.zarankiewicz", no_search)
    code, out, err = run(capsys, verb, str(path), "--m", "30")
    assert (code, out, err) == (1, "", "error: box size 30 exceeds a part size\n")


@pytest.mark.parametrize(
    "verb, reason",
    [("shatter", "the binomial bound would be unreliable"), ("verify-bounds", "cannot certify")],
)
def test_capped_threshold_is_a_refusal(verb, reason, tmp_path, capsys):
    code, out, _ = run(capsys, "extremal", "--n", "2", "--d", "1", "--m", "2")
    path = tmp_path / "fam.json"
    path.write_text(out)
    code, out, err = run(capsys, verb, str(path), "--m", "2", "--budget", "0")
    assert (code, out) == (2, "")
    assert err == f"refused: threshold for m=2 is only a lower bound; {reason}\n"


@pytest.mark.parametrize("verb, header", [("shatter", "tight"), ("verify-bounds", "ok")])
def test_dimension_zero_needs_no_budget(verb, header, tmp_path, capsys):
    # d = 0 asks for z(n, m, 1) = 1, which counts no budget unit
    path = tmp_path / "fam.json"
    path.write_text('{"members": ["1"], "part_sizes": [2, 2]}')
    code, out, err = run(capsys, verb, str(path), "--m", "1..2", "--budget", "0")
    assert (code, err) == (0, "")
    assert out == f"m,pi,bound,{header}\n1,1,1,true\n2,1,1,true\n"


def test_d1_row_is_exact_at_zero_budget(capsys):
    code, out, _ = run(capsys, "zar-table", "--n", "4", "--m", "3", "--d", "1", "--budget", "0")
    assert code == 0
    assert out.splitlines()[1] == "4,3,1,1,exact,1"


def test_shift_round_trip(tmp_path, capsys):
    fam = GroundFamily(3, (0b101, 0b011, 0b111))
    path = tmp_path / "fam.json"
    path.write_text(fam.to_json())
    code, out, _ = run(capsys, "shift", str(path))
    assert code == 0
    shifted = GroundFamily.from_json(out.strip())
    assert shifted.members == (0, 2, 4)


def test_counterexample_verb(capsys):
    code, out, _ = run(capsys, "counterexample", "--m", "2")
    assert code == 0
    s = FiniteStructure.from_json(out.strip())
    assert s.size == 10


@pytest.mark.parametrize("m", ["0", "2,0"])
def test_counterexample_block_sizes_must_be_positive(capsys, m):
    code, out, err = run(capsys, "counterexample", "--m", m)
    assert (code, out, err) == (1, "", "error: block sizes must be positive\n")


def test_arrow_verb(tmp_path, capsys):
    for name, size in [("a", 2), ("b", 3), ("c6", 6), ("c5", 5)]:
        (tmp_path / f"{name}.json").write_text(points(size).to_json())
    code, out, _ = run(
        capsys, "arrow", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
        str(tmp_path / "c6.json"), "--k", "2",
    )
    assert code == 0
    assert out.strip().splitlines()[1] == "2,3,6,2,true,32768"
    code, out, _ = run(
        capsys, "arrow", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
        str(tmp_path / "c5.json"), "--k", "2",
    )
    assert out.strip().splitlines()[1].startswith("2,3,5,2,false,")


def test_arrow_budget_exit_code(tmp_path, capsys):
    for name, size in [("a", 2), ("b", 3), ("c", 6)]:
        (tmp_path / f"{name}.json").write_text(points(size).to_json())
    code, _, err = run(
        capsys, "arrow", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
        str(tmp_path / "c.json"), "--k", "2", "--budget", "10",
    )
    assert code == 2 and "refused:" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"domain": 3, "relations": {"R": {"arity": 2, "tuples": [[0, 9]]}}},
        {"domain": 3, "parts": [[0, 1], [2, 7]]},
        {"domain": 3, "relations": {"R": {"arity": 2}}},
        {"domain": 2, "relations": {"S": {"arity": 1, "tuples": [[9]]}}},
    ],
    ids=[
        "tuple-vertex-out-of-domain",
        "part-vertex-out-of-domain",
        "relation-without-tuples",
        "other-relation-vertex-out-of-domain",
    ],
)
def test_arrow_malformed_structure_is_input_error(tmp_path, capsys, doc):
    (tmp_path / "a.json").write_text(points(1).to_json())
    (tmp_path / "c.json").write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "arrow", str(tmp_path / "a.json"), str(tmp_path / "a.json"),
        str(tmp_path / "c.json"), "--k", "2",
    )
    assert code == 1 and not out and err.startswith("error:")


def test_direct_sum_verb(tmp_path, capsys):
    (tmp_path / "pt.json").write_text(points(1).to_json())
    (tmp_path / "two.json").write_text(points(2).to_json())
    code, out, _ = run(
        capsys, "direct-sum", str(tmp_path / "pt.json"), str(tmp_path / "two.json"),
        str(tmp_path / "pt.json"), str(tmp_path / "two.json"), "--k", "2",
    )
    assert code == 0
    witness = FiniteStructure.from_json(out.strip())
    assert witness.part_sizes == (17, 3)


def test_direct_sum_oracle_budget_refuses(tmp_path, capsys):
    """The oracle knows no witness past its classical sizes; --budget is ignored."""
    (tmp_path / "p2.json").write_text(points(2).to_json())
    (tmp_path / "p3.json").write_text(points(3).to_json())
    p2, p3 = str(tmp_path / "p2.json"), str(tmp_path / "p3.json")
    for budget in ([], ["--budget", "10"]):
        code, out, err = run(capsys, "direct-sum", p2, p3, p2, p3, "--k", "3", *budget)
        assert (code, out) == (2, "")
        assert err == "refused: no ordered-set witness is known for a=2, b=3, k=3\n"


@pytest.mark.parametrize(
    "sizes, budget, parts",
    [
        ((1, 0, 1, 0), [], (0, 0)),
        ((3, 2, 1, 2), ["--budget", "0"], (2, 3)),
        ((0, 2, 2, 2), ["--budget", "0"], (2, 2)),
        ((2, 2, 0, 3), ["--budget", "0"], (2, 3)),
    ],
    ids=["point-over-empty", "a-above-b-budget-0", "a-empty-then-a-is-b", "a-is-b-then-a-empty"],
)
def test_direct_sum_where_b_holds_one_a_copy_at_most(tmp_path, capsys, sizes, budget, parts):
    """B is the oracle's witness there, with no search, so no budget refuses."""
    for size in sizes:
        (tmp_path / f"p{size}.json").write_text(points(size).to_json())
    paths = [str(tmp_path / f"p{size}.json") for size in sizes]
    code, out, err = run(capsys, "direct-sum", *paths, "--k", "2", *budget)
    assert (code, err) == (0, "")
    assert FiniteStructure.from_json(out) == FiniteStructure(sum(parts), {}, parts)


def test_encode_partite_verb(tmp_path, capsys):
    g = RelStructure(3, None, 2, frozenset({frozenset({0, 1})}))
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    code, out, _ = run(capsys, "encode-partite", str(path))
    assert code == 0
    d = FiniteStructure.from_json(out.strip())
    assert d.part_sizes == (3, 3)
    assert d.relations["R"].tuples == {(0, 4)}


def test_gen_random_verb_and_outfile(tmp_path, capsys):
    out_path = tmp_path / "h.json"
    code, out, _ = run(
        capsys, "gen-random", "--n", "2", "--m", "8", "--t", "1",
        "--seed", "3", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    eh = ExtensionHypergraph.from_json(out_path.read_text())
    assert eh.t == 1 and eh.seed == 3


def test_gen_random_refusal_exit_code(capsys):
    code, _, err = run(
        capsys, "gen-random", "--n", "2", "--m", "2", "--t", "2",
        "--seed", "0", "--budget", "3",
    )
    assert code == 2 and "refused:" in err


def test_gen_random_zero_budget_refuses(capsys):
    # a budget of 0 attempts is a refusal, as hitting any budget is
    code, out, err = run(
        capsys, "gen-random", "--n", "2", "--m", "6", "--t", "1",
        "--seed", "4", "--budget", "0",
    )
    assert (code, out) == (2, "")
    assert err == "refused: no sample passed level 1 within 0 attempts\n"


def test_walk_verb(tmp_path, capsys):
    code, out, _ = run(
        capsys, "gen-random", "--n", "2", "--m", "12", "--t", "1", "--seed", "9",
    )
    h_path = tmp_path / "h.json"
    h_path.write_text(out.strip())
    pair = {"w": [[0, 2], [1, 3], [0, 7], [1, 8]], "w_prime": [[0, 3], [1, 3], [0, 9], [1, 8]]}
    p_path = tmp_path / "pair.json"
    p_path.write_text(json.dumps(pair))
    code, out, _ = run(capsys, "walk", str(h_path), str(p_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["length"] == len(doc["steps"]) - 1
    assert doc["steps"][0] == pair["w"]


def test_walk_reads_a_plain_hypergraph_document(tmp_path, capsys):
    code, out, _ = run(capsys, "gen-random", "--n", "2", "--m", "12", "--t", "1", "--seed", "9")
    doc = json.loads(out)
    p_path = tmp_path / "pair.json"
    p_path.write_text(json.dumps({"w": [[0, 2], [1, 3]], "w_prime": [[0, 3], [1, 3]]}))
    plain = {k: doc[k] for k in ("n", "part_sizes", "edges")}
    outputs = []
    for name, text in (("ext.json", out), ("plain.json", json.dumps(plain))):
        (tmp_path / name).write_text(text)
        code, out, err = run(capsys, "walk", str(tmp_path / name), str(p_path))
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]
    (tmp_path / "bad.json").write_text(json.dumps({**doc, "t": "x"}))
    code, out, err = run(capsys, "walk", str(tmp_path / "bad.json"), str(p_path))
    assert code == 1 and not out
    assert err == "error: bad hypergraph document: 't' must be a JSON integer\n"
    with pytest.raises(InputError) as exc:
        PartiteHypergraph.from_json((tmp_path / "bad.json").read_text())
    assert err == f"error: {exc.value}\n"


def test_walk_bad_pair_is_input_error(tmp_path, capsys):
    code, out, _ = run(capsys, "gen-random", "--n", "2", "--m", "6", "--t", "0", "--seed", "1")
    h_path = tmp_path / "h.json"
    h_path.write_text(out.strip())
    p_path = tmp_path / "pair.json"
    p_path.write_text('{"w": [[0, 0]]}')
    code, _, err = run(capsys, "walk", str(h_path), str(p_path))
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("vertex", [[0], [0, 1, 2], []])
def test_walk_vertex_not_a_pair_is_input_error(tmp_path, capsys, vertex):
    code, out, _ = run(capsys, "gen-random", "--n", "2", "--m", "6", "--t", "0", "--seed", "1")
    h_path = tmp_path / "h.json"
    h_path.write_text(out.strip())
    p_path = tmp_path / "pair.json"
    p_path.write_text(json.dumps({"w": [vertex], "w_prime": [[0, 1]]}))
    code, out, err = run(capsys, "walk", str(h_path), str(p_path))
    assert code == 1 and not out
    assert err.startswith("error:") and "[part, index] pair" in err


def test_walk_vertex_must_hold_integers(tmp_path, capsys):
    code, out, _ = run(capsys, "gen-random", "--n", "2", "--m", "6", "--t", "0", "--seed", "1")
    h_path = tmp_path / "h.json"
    h_path.write_text(out.strip())
    p_path = tmp_path / "pair.json"
    # 0.5 used to be read as part 0
    p_path.write_text(json.dumps({"w": [[0.5, 1]], "w_prime": [[0, 1]]}))
    code, out, err = run(capsys, "walk", str(h_path), str(p_path))
    assert (code, out) == (1, "")
    assert err == "error: bad pair document: 'w'[0][0] must be a JSON integer\n"


NEGATIVE_BUDGET_ARGV = {
    "zar-table": ["zar-table", "--n", "2", "--m", "2..4", "--d", "2"],
    "shatter": ["shatter", "{fam}", "--m", "1..2"],
    "dim": ["dim", "{fam}"],
    "shift": ["shift", "{family}"],
    "extremal": ["extremal", "--n", "2", "--d", "1", "--m", "2"],
    "counterexample": ["counterexample", "--m", "2"],
    "arrow": ["arrow", "{p2}", "{p3}", "{p5}", "--k", "2"],
    "direct-sum": ["direct-sum", "{p1}", "{p2}", "{p1}", "{p2}", "--k", "2"],
    "encode-partite": ["encode-partite", "{p3}"],
    "gen-random": ["gen-random", "--n", "2", "--m", "6", "--t", "1", "--seed", "4"],
    "walk": ["walk", "{h}", "{pair}"],
    "verify-bounds": ["verify-bounds", "{fam}", "--m", "2"],
}


@pytest.mark.parametrize("verb", list(NEGATIVE_BUDGET_ARGV))
def test_negative_budget_is_input_error(verb, tmp_path, capsys):
    paths = {name: str(tmp_path / f"{name}.json") for name in ("fam", "family", "h", "pair")}
    paths |= {f"p{k}": str(tmp_path / f"p{k}.json") for k in (1, 2, 3, 5)}
    argv = [arg.format(**paths) for arg in NEGATIVE_BUDGET_ARGV[verb]]
    code, _, err = run(capsys, *argv, "--budget", "-1")
    assert code == 1
    assert err == "error: argument --budget: must be nonnegative, got -1\n"


@pytest.mark.parametrize("option", ["budget", "n", "m", "format", "out"])
def test_option_given_as_double_dash_is_a_usage_error(option, capsys):
    """--opt=-- reads as no value, as --opt alone does."""
    code, out, err = run(capsys, "zar-table", "--n", "2", "--m", "2", "--d", "2", f"--{option}=--")
    assert (code, out) == (1, "")
    assert err == f"error: argument --{option}: expected one argument\n"


def test_zero_budget_keeps_its_meaning(capsys):
    code, out, _ = run(capsys, "zar-table", "--n", "2", "--m", "2", "--d", "2", "--budget", "0")
    assert code == 0
    assert out.splitlines()[1] == "2,2,2,1,lower_bound_only,4"


def test_unwritable_out_is_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "z.csv"
    argv = ("zar-table", "--n", "1", "--m", "2", "--d", "2", "--out", str(target))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "dim", "/nonexistent/system.json")
    assert code == 1 and "error:" in err


def test_threads_env_changes_nothing(capsys, monkeypatch):
    argv = ("zar-table", "--n", "1", "--m", "2", "--d", "2")
    want = run(capsys, *argv)[:2]
    assert want[0] == 0
    for value in ("2", "zero"):
        monkeypatch.setenv("VCN_THREADS", value)
        assert run(capsys, *argv)[:2] == want


def test_system_json_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "dim", str(path))
    assert code == 1


def _canonical_argv(verb: str) -> list[str]:
    """The verb, a file per positional and a value per required option."""
    _, _, positionals, options, _ = _VERBS[verb]
    argv = [verb, *(f"{name}.json" for name, _ in positionals)]
    for name, kind, required, _ in options:
        argv += [f"--{name}", "3" if kind is int else "2..4"] if required else []
    return argv


# Words the perturbations insert: dash-leading values, bad ints and formats,
# help, '--', '-', the empty word and an unknown option; then plain values,
# drawn twice as often.
ODD_WORDS = ["-1", " -1", "-x", "-", "--", "-h", "--help", "", "x", " 3", "1_0", "xml", "--zz"]
PLAIN_WORDS = ["0", "7", "csv", "json", "text", "out.txt", "extra.json"]


def _perturbed_argv(rng: random.Random) -> list[str]:
    """A canonical argv after one to three random edits."""
    verb, *words = _canonical_argv(rng.choice(list(_VERBS)))
    _, _, _, options, formats = _VERBS[verb]
    names = [f"--{name}" for name, *_ in options] + ["--out", "--budget"]
    names += ["--format"] if formats else []
    for _ in range(rng.randint(1, 3)):
        at, edit = rng.randint(0, len(words)), rng.randrange(6)
        name, value = rng.choice(names), rng.choice(ODD_WORDS + PLAIN_WORDS * 2)
        if edit == 0:  # an option, maybe a repeat
            words[at:at] = [name, value]
        elif edit == 1:  # the = form
            words.insert(at, f"{name}={value}")
        elif edit == 2:  # an abbreviation
            words[at:at] = [name[: rng.randint(2, len(name) - 1)], value]
        elif edit == 3 and words:  # a missing positional, option or value
            del words[rng.randrange(len(words))]
        elif edit == 4:  # an extra or odd word
            words.insert(at, value)
        else:
            rng.shuffle(words)
    return [verb, *words]


def test_reader_accepts_every_canonical_argv():
    parser = build_parser()
    for verb, (_, _, _, options, formats) in _VERBS.items():
        argv = _canonical_argv(verb)
        every_option = [*argv, "--out", "o.txt", "--budget", "5"]
        every_option += [f"--{name}=1" for name, _, required, _ in options if not required]
        every_option += ["--format", formats[-1]] if formats else []
        for words in (argv, every_option):
            assert _read_args(words) == vars(parser.parse_args(words))
        for budget in (["--budget", "-1"], ["--budget=-1"], ["--budget", " -1"]):
            assert _read_args([*argv, *budget]) is None


@pytest.mark.parametrize("seed", range(4))
def test_reader_reads_as_argparse_or_declines(seed):
    """argparse is the reference: whatever argv the reader accepts, argparse
    reads to the same namespace."""
    rng, parser = random.Random(seed), build_parser()
    accepted = 0
    for argv in [[], ["bogus"], ["-h"]] + [_perturbed_argv(rng) for _ in range(1500)]:
        read = _read_args(argv)
        if read is not None:
            accepted += 1
            assert read == vars(parser.parse_args(argv)), argv
    assert accepted > 0


@pytest.mark.parametrize("seed", range(4))
def test_main_ends_every_perturbed_argv_in_an_exit_code(seed, tmp_path, monkeypatch, capsys):
    """main on the perturbed argv, each verb's command stubbed: every argv ends
    in exit 0, 1 or 2 (help exits 0 through SystemExit), and no option
    reaches a command as a list."""
    monkeypatch.chdir(tmp_path)  # where a stubbed command's --out lands
    reached = []

    def command(args):
        reached.append(args)
        return ""

    stubbed = {verb: (row[0], command, *row[2:]) for verb, row in _VERBS.items()}
    monkeypatch.setattr("vcn.cli._VERBS", stubbed)
    parser = build_parser()  # the one parser main would build for each argv, built once
    monkeypatch.setattr("vcn.cli.build_parser", lambda: parser)
    rng = random.Random(seed)
    for argv in [_perturbed_argv(rng) for _ in range(1500)]:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2), argv
    assert reached
    for args in reached:
        _, _, _, options, formats = _VERBS[args.verb]
        names = [name for name, *_ in options] + ["out", "budget"] + ["format"] * bool(formats)
        assert not any(isinstance(getattr(args, name), list) for name in names), vars(args)

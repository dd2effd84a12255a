"""The modules of the package import each other in layers, without cycles,
and each of them, like json, is loaded only when a name or a verb needs it;
csv is never loaded."""

import ast
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vcn"


def _is_type_checking(test: ast.expr) -> bool:
    name = test.attr if isinstance(test, ast.Attribute) else getattr(test, "id", None)
    return name == "TYPE_CHECKING"


def _module_imports() -> dict[str, set[str]]:
    """Sibling modules each module names in a relative `from` import."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps |= {node.module} if node.module else {a.name for a in node.names}
        graph[path.stem] = deps
    return graph


def test_import_graph_is_acyclic():
    graph = _module_imports()
    assert {"zar", "fmodel", "indisc", "hyperrand", "cli"} <= set(graph)
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
    # the index types live in errors: no kernel loads the threshold search for them
    assert {name for name, deps in graph.items() if "zar" in deps} == {"cli"}
    assert graph["hyperrand"] == {"errors"}
    # type counting never compiles the indiscernibility checks: no indisc here
    assert graph["fmodel"] == {"errors", "setsys"}
    assert graph["indisc"] == {"errors", "fmodel", "setsys"}


def test_cli_imports_no_private_kernel_name():
    """A kernel's private names, its defaults among them, stay in the kernel;
    errors' shared codec is the one private name cli reads."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    private = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == {("errors", "_decode")}


def test_no_import_hides_under_type_checking():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.If) and _is_type_checking(node.test):
                hidden = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not hidden, f"{path.name}:{node.lineno} imports under TYPE_CHECKING"


def test_no_source_line_is_longer_than_99_characters():
    for path in sorted(SRC.glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            assert len(line) <= 99, f"{path.name}:{number} has {len(line)} characters"


def _module_level_relative_imports(name: str) -> set[str]:
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    return {
        node.module or ""
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }


def test_package_and_cli_import_no_kernel_at_module_level():
    assert _module_level_relative_imports("__init__") == set()
    assert _module_level_relative_imports("cli") == {"errors"}


# The vcn modules a fresh interpreter holds after each statement.
LOADED = {
    "import vcn": set(),
    "zar-table": {"cli", "errors", "zar"},
    "shatter": {"cli", "errors", "setsys", "zar"},
    "arrow": {"cli", "errors", "ramsey"},
    "encode-partite": {"cli", "errors", "ramsey"},
    "direct-sum": {"cli", "errors", "ramsey"},
    "gen-random": {"cli", "errors", "hyperrand"},
    "walk": {"cli", "errors", "hyperrand"},
    "counterexample": {"cli", "errors", "setsys", "zar"},
    # both index types and their documents live in errors, a sample's in hyperrand
    "FiniteStructure.from_json": {"errors"},
    "PartiteHypergraph.from_json": {"errors"},
    "ExtensionHypergraph.from_json": {"errors", "hyperrand"},
    # the counterexample builder reads no formula
    "build_counterexample_structure": {"errors", "setsys", "zar"},
    # type counting and definable families leave the indiscernibility checks unloaded
    "count_types": {"errors", "fmodel", "setsys"},
    "pi_phi": {"errors", "fmodel", "setsys"},
    "dim_phi": {"errors", "fmodel", "setsys"},
    "phi_class": {"errors", "fmodel", "setsys"},
    "check_indiscernible": {"errors", "fmodel", "indisc", "setsys"},
}
ARGV = {
    "zar-table": ["zar-table", "--n", "2", "--m", "2..3", "--d", "2"],
    "shatter": ["shatter", "fam.json", "--m", "1..2"],
    "arrow": ["arrow", "p1.json", "p2.json", "p3.json", "--k", "2"],
    "encode-partite": ["encode-partite", "g.json"],
    "direct-sum": ["direct-sum", "p1.json", "p2.json", "p1.json", "p2.json", "--k", "2"],
    "gen-random": ["gen-random", "--n", "2", "--m", "6", "--t", "1", "--seed", "4"],
    "walk": ["walk", "h.json", "pair.json"],
    "counterexample": ["counterexample", "--m", "2"],
}
# A structure on s.json and a formula over its binary relation R.
FORMULA = (
    "s = vcn.FiniteStructure.from_json(open('s.json').read()); "
    "phi = vcn.parse_formula('(R x y0)'); "
)
# The statement each case runs after `import vcn`: a library call or a verb.
STATEMENT = {
    "import vcn": "",
    "FiniteStructure.from_json": "vcn.FiniteStructure.from_json(open('s.json').read())",
    "PartiteHypergraph.from_json": "vcn.PartiteHypergraph.from_json(open('h.json').read())",
    "ExtensionHypergraph.from_json": "vcn.ExtensionHypergraph.from_json(open('h.json').read())",
    "build_counterexample_structure": "vcn.build_counterexample_structure([2])",
    "count_types": FORMULA + "vcn.count_types(s, [phi], [[(0,), (2,)]])",
    "pi_phi": FORMULA + "vcn.pi_phi(s, [phi], 2)",
    "dim_phi": FORMULA + "vcn.dim_phi(s, phi)",
    "phi_class": FORMULA + "vcn.phi_class(s, phi)",
    "check_indiscernible": FORMULA
    + "vcn.check_indiscernible(vcn.IndexedFamily(s, {v: (v,) for v in range(3)}),"
    " {'order'}, s, [phi], 2)",
    **{case: f"import vcn.cli; assert vcn.cli.main({argv!r}) == 0" for case, argv in ARGV.items()},
}
# Standard-library modules no verb needs (dataclasses loads inspect, ast and
# dis; argparse, which only help and usage errors load, loads gettext);
# between them the cases load every vcn module.
NEVER_LOADED = ("dataclasses", "inspect", "csv", "argparse", "gettext")


@pytest.fixture
def work(tmp_path):
    """A directory holding every input file the cases read."""
    from vcn import build_extremal_family, gen_extension_hypergraph, points

    for k in (1, 2, 3):
        (tmp_path / f"p{k}.json").write_text(points(k).to_json())
    (tmp_path / "fam.json").write_text(build_extremal_family(2, 1, [2]).to_json())
    (tmp_path / "h.json").write_text(gen_extension_hypergraph(2, 6, 1, 4).to_json())
    (tmp_path / "pair.json").write_text('{"w": [[0, 1], [1, 1]], "w_prime": [[0, 2], [1, 1]]}')
    (tmp_path / "g.json").write_text(
        '{"domain": 3, "relations": {"R": {"arity": 2, "tuples": [[0, 2]]}}}'
    )
    (tmp_path / "s.json").write_text(
        '{"domain": 3, "order": [2, 0, 1], "parts": [[2, 0], [1]],'
        ' "relations": {"R": {"arity": 2, "tuples": [[2, 1]]}}}'
    )
    return tmp_path


def _run(work: Path, script: str, *flags: str) -> list[str]:
    """The lines a fresh interpreter prints running script in work."""
    path = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script], cwd=work, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")[:-1]


@pytest.mark.parametrize("case", list(LOADED))
def test_modules_load_on_first_use(case, work):
    script = (
        "import sys, vcn\n"
        f"{STATEMENT[case]}\n"
        f"print(' '.join(m for m in {NEVER_LOADED!r} if m in sys.modules))\n"
        "print(' '.join(sorted(m[4:] for m in sys.modules if m.startswith('vcn.'))))\n"
    )
    *_, never, loaded = _run(work, script)
    assert never == ""
    assert set(loaded.split()) == LOADED[case]


# A verb loads json only where it reads or writes that format, and no verb
# loads csv: whether each case loads json.
LOADS_JSON = {"zar-table": False, "encode-partite": True}


@pytest.mark.parametrize("case", list(LOADS_JSON))
def test_verbs_load_only_the_formats_they_use(case, work):
    script = (
        "import sys, vcn\n"
        f"{STATEMENT[case]}\n"
        "print(*[m in sys.modules for m in ('json', 'csv')])\n"
    )
    # -S: no site hook preloads standard-library modules
    *_, loaded = _run(work, script, "-S")
    assert loaded == f"{LOADS_JSON[case]} False"

"""The modules of the package import each other in layers, without cycles."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

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
    assert {"zar", "fmodel", "hyperrand", "cli"} <= set(graph)
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
    assert order.index("errors") < order.index("zar") < order.index("fmodel")


def test_no_import_hides_under_type_checking():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.If) and _is_type_checking(node.test):
                hidden = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not hidden, f"{path.name}:{node.lineno} imports under TYPE_CHECKING"

import ast
import pathlib

import pytest

import bwexact

SOURCES = sorted(pathlib.Path(bwexact.__file__).parent.glob("*.py"))

# Imported for a caller outside the module: perfbench/spans.py wraps
# solve.color_order.
USED_ELSEWHERE = {("solve", "color_order")}


def unused_imports(source: str) -> set[str]:
    """The names a module imports and never reads; a name listed in
    __all__ counts as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return imported - read


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_unused_imports(path):
    allowed = {name for module, name in USED_ELSEWHERE if module == path.stem}
    assert unused_imports(path.read_text(encoding="utf-8")) == allowed


def test_finds_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import inf, pi\nprint(sys.argv, pi)\n") == {"os", "inf"}

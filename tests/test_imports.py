import ast
import pathlib
import subprocess
import sys

import pytest

import bwexact

SOURCES = sorted(pathlib.Path(bwexact.__file__).parent.glob("*.py"))
PYPROJECT = pathlib.Path(__file__).parent.parent / "pyproject.toml"

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


def absolute_imports(source: str) -> set[str]:
    """The top-level packages a module imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_imports_only_stdlib(path):
    assert absolute_imports(path.read_text(encoding="utf-8")) <= sys.stdlib_module_names


def test_finds_absolute_imports():
    source = "import os.path\nfrom numpy import inf\nfrom .graph import Graph\n"
    assert absolute_imports(source) == {"os", "numpy"}


def test_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


def test_package_import_is_lean():
    # A fresh interpreter, since the test session itself may have loaded
    # either module already.
    code = "import sys, bwexact; print(sorted({'numpy', 'multiprocessing'} & set(sys.modules)))"
    src = str(pathlib.Path(bwexact.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         cwd=src, timeout=60)
    assert out.stdout.split() == ["[]"]

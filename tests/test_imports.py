import ast
import dataclasses
import pathlib
import subprocess
import sys

import pytest

import bwexact
from bwexact import search, solve

SOURCES = sorted(pathlib.Path(bwexact.__file__).parent.glob("*.py"))
PYPROJECT = pathlib.Path(__file__).parent.parent / "pyproject.toml"
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


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
    unused = unused_imports(path.read_text(encoding="utf-8"))
    if path.stem == "solve" and unused:
        # perfbench/spans.py swaps traced wrappers in for the names it
        # reads off bwexact.solve, so solve.py may import one for it alone.
        unused -= names_read_off(harness("spans.py"), "solve_module")
    assert unused == set()


def test_finds_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import inf, pi\nprint(sys.argv, pi)\n") == {"os", "inf"}


def harness(name: str) -> str:
    """The source of perfbench/<name>; skips the test when perfbench/ is
    absent, as in the package without its benchmark."""
    path = PERFBENCH / name
    if not path.exists():
        pytest.skip("perfbench/ is absent")
    return path.read_text(encoding="utf-8")


def names_read_off(source: str, var: str, func: str | None = None) -> set[str]:
    """The attributes read off the name `var`, in the whole module or,
    given `func`, in that function only."""
    tree = ast.parse(source)
    if func is not None:
        tree = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == func)
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == var}


def stats_keys_read(source: str) -> set[str]:
    """The constant keys of every `<expr>.stats["key"]` in the module."""
    return {node.slice.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "stats" and isinstance(node.slice, ast.Constant)}


def test_finds_names_read_off():
    source = "def f(r):\n    return r.a, r.b.c\n\ndef g(r):\n    return r.d, x.stats['k']\n"
    assert names_read_off(source, "r") == {"a", "b", "d"}
    assert names_read_off(source, "r", "f") == {"a", "b"}
    assert stats_keys_read(source) == {"k"}


def unknown(read: set[str], names) -> list[str]:
    """The names in `read` missing from `names`; `read` must not be
    empty, or the test no longer looks where the harness reads."""
    assert read, "the harness reads none of these names any more"
    return sorted(set(read) - set(names))


def test_harness_reads_exist():
    # perfbench/ drives the package by these names, so a rename under
    # src/ would break `run.py --trace 1` with every other test passing.
    spans = harness("spans.py")
    assert unknown(names_read_off(spans, "solve_module"), dir(solve)) == []
    for var, func, cls in (("res", "_decide_attrs", solve.DecideResult),
                           ("st", "_decide_attrs", solve.DecideStats),
                           ("stats", "_dfs_attrs", search.SearchStats)):
        fields = [f.name for f in dataclasses.fields(cls)]
        assert unknown(names_read_off(spans, var, func), fields) == [], cls
    keys = bwexact.minimize_bandwidth(bwexact.generate("cycle", 6)).stats
    for name in ("run.py", "corpus.py", "pin.py"):
        source = harness(name)
        assert unknown(names_read_off(source, "bwexact"), dir(bwexact)) == [], name
        assert sorted(stats_keys_read(source) - keys.keys()) == [], name


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

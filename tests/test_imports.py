"""Import hygiene, checked with the standard library's ``ast`` since the
package declares no linter: each module of ``qbcsim`` other than
``__init__`` uses every name it imports, every module-level private name
is read somewhere in the package, and every name in ``qbcsim.__all__``
resolves."""

import ast
from pathlib import Path

import pytest

import qbcsim

PACKAGE = sorted(Path(qbcsim.__file__).resolve().parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_import():
    source = "import os.path\nfrom functools import lru_cache\nos.getcwd()\n"
    assert unused_imports(source) == ["lru_cache"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> set[str]:
    """Functions, classes and assignments at the top of ``source`` whose
    names start with one underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(source: str) -> tuple[set[str], set[str]]:
    """Names ``source`` reads bare, and names it reads as an attribute or
    imports from a module."""
    bare, qualified = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            qualified.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            qualified.update(a.name for a in node.names)
    return bare, qualified


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level private name that its module
    does not read and no module reads as an attribute or import."""
    reads = {module: read_names(source) for module, source in sources.items()}
    qualified = set().union(*(q for _, q in reads.values()))
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        for name in private_definitions(source) - reads[module][0] - qualified
    )


def test_checker_flags_an_orphaned_private_helper():
    sources = {
        "a": "_LIMIT = 3\n_CACHE: dict = {}\ndef _in_order(): pass\nclass _Row: pass\n"
        "def _used(): return _LIMIT\n__all__ = []\n",
        "b": "from .a import _CACHE\nimport a\na._used()\n_LIMIT = 4\n",
    }
    assert orphaned_private_names(sources) == ["a._Row", "a._in_order", "b._LIMIT"]


def test_package_reads_every_private_name_it_defines():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert orphaned_private_names(sources) == []


def test_every_exported_name_resolves():
    assert [name for name in qbcsim.__all__ if not hasattr(qbcsim, name)] == []

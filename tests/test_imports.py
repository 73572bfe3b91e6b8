"""Import hygiene, checked with the standard library's ``ast`` since the
package declares no linter: each module of ``qbcsim`` other than
``__init__`` uses every name it imports, and every name in
``qbcsim.__all__`` resolves."""

import ast
from pathlib import Path

import pytest

import qbcsim

MODULES = sorted(
    p for p in Path(qbcsim.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py"
)


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


def test_every_exported_name_resolves():
    assert [name for name in qbcsim.__all__ if not hasattr(qbcsim, name)] == []

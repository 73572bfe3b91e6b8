"""Import hygiene, checked with the standard library's ``ast`` since the
package declares no linter: each module of ``qbcsim`` other than
``__init__`` uses every name it imports, every module-level private name
is read somewhere in the package, every public one is read by another
module or listed in :data:`KEPT`, and every name in ``qbcsim.__all__``
resolves."""

import ast
import re
from pathlib import Path

import pytest

import qbcsim

PACKAGE = sorted(Path(qbcsim.__file__).resolve().parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parent.parent

#: Public names that no module of the package reads outside ``__init__``
#: and their own definition, with the files outside ``src/`` that read
#: them.  Each stays public while those files do; the list shrinks as
#: they move to the party types and the window kernels.
KEPT = {
    "attacks.beam_splitter_table": ("perfbench/run.py",),
    "attacks.ideal_multiphoton_table": ("perfbench/run.py",),
    "attacks.multiphoton_success": ("perfbench/run.py", "tests/test_acceptance.py"),
    "protocol.binding_failure": ("perfbench/run.py", "tests/test_acceptance.py"),
    "protocol.binomial_window_probability": ("perfbench/run.py", "perfbench/reference.py"),
    # the checked entry point to the derivative kernel, which tests drive
    # at arbitrary windows
    "protocol.log_binomial_window_derivatives": (
        "tests/test_protocol.py", "tests/test_properties.py", "tests/test_strategy.py",
    ),
    "protocol.pass_factors": ("tests/test_acceptance.py",),
    "qcore.helstrom_success": ("tests/test_acceptance.py",),
    "strategy.MultiPhotonIdeal": ("perfbench/workloads.py", "tests/test_acceptance.py"),
    "strategy.SinglePhoton": ("perfbench/workloads.py",),
    "strategy.cheat_success": ("perfbench/run.py", "tests/test_acceptance.py"),
}


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


def definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each name a function, class or assignment at the top of ``tree``
    binds, with the statement that binds it."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for e in t.elts if isinstance(t, ast.Tuple) else [t]:
                    if isinstance(e, ast.Name):
                        names[e.id] = node
    return names


def private_definitions(source: str) -> set[str]:
    """Functions, classes and assignments at the top of ``source`` whose
    names start with one underscore."""
    names = definitions(ast.parse(source))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(tree: ast.AST) -> tuple[set[str], set[str]]:
    """Names ``tree`` reads bare, and names it reads as an attribute or
    imports from a module."""
    bare, qualified = set(), set()
    for node in ast.walk(tree):
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
    reads = {module: read_names(ast.parse(source)) for module, source in sources.items()}
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


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level public name of a module other
    than ``__init__`` that no other module but ``__init__`` reads, and its
    own module reads only inside the statement that defines it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = {module: set().union(*read_names(tree)) for module, tree in trees.items()}
    unread = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        others = set().union(*(r for m, r in reads.items() if m not in (module, "__init__")))
        for name, node in definitions(tree).items():
            if name.startswith("_"):
                continue
            rest = ast.Module([n for n in tree.body if n is not node], [])
            if name not in others and name not in set().union(*read_names(rest)):
                unread.append(f"{module}.{name}")
    return sorted(unread)


def test_checker_flags_an_unread_public_name():
    sources = {
        "__init__": "from .a import Alias, Row, helper, imported, reused\n",
        "a": "def helper():\n    return helper()\n"
        "class Row:\n    def copy(self):\n        return Row()\n"
        "Alias, Other = int, str\ndef reused(): pass\nreused()\n"
        "def imported(): pass\n_private = 1\n",
        "b": "from .a import imported\nimport a\na.Other\n",
    }
    assert unread_public_names(sources) == ["a.Alias", "a.Row", "a.helper"]


def test_every_public_name_is_read_or_kept():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_public_names(sources) == sorted(KEPT)


@pytest.mark.parametrize("name", sorted(KEPT))
def test_kept_name_is_read_where_listed(name):
    word = re.compile(rf"\b{name.rpartition('.')[2]}\b")
    for file in KEPT[name]:
        assert word.search((ROOT / file).read_text(encoding="utf-8")), file


def test_every_exported_name_resolves():
    assert [name for name in qbcsim.__all__ if not hasattr(qbcsim, name)] == []

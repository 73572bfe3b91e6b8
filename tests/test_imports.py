"""Import hygiene, checked with the standard library's ``ast`` since the
package declares no linter: each module of ``qbcsim`` other than
``__init__`` uses every name it imports, every module-level private name
is read somewhere in the package, every public one is read by another
module or listed in :data:`KEPT`, the private names one module reads from
another are those in :data:`PRIVATE_IMPORTS`, and every name in
``qbcsim.__all__`` resolves, on first use, to what its defining module
binds."""

import ast
import os
import re
import subprocess
import sys
from importlib import import_module
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


#: Private names that a module of the package reads from another, by
#: importing module and then defining module.  The map may shrink but not
#: grow: what one module decides, such as how ``protocol``'s window kernel
#: splits its work, stays behind that module's public functions.
PRIVATE_IMPORTS = {
    "strategy": {"protocol": ("_basis_table", "_log_window_derivatives", "_stacked")},
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


def private_imports(sources: dict[str, str]) -> dict[str, dict[str, tuple[str, ...]]]:
    """For each module that reads private names of other modules of the
    package, those names by module: imported by ``from .module import
    _name``, or read as ``module._name`` after ``from . import module``
    (or the same imports from ``qbcsim``)."""
    found = {}
    for importer, source in sources.items():
        tree = ast.parse(source)
        names: dict[str, set[str]] = {}
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "qbcsim"
            ):
                module = None if node.module in (None, "qbcsim") else node.module.rpartition(".")[2]
                for a in node.names:
                    if module is None:
                        modules[a.asname or a.name] = a.name
                    elif a.name.startswith("_"):
                        names.setdefault(module, set()).add(a.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")):
                names.setdefault(modules[node.value.id], set()).add(node.attr)
        if names:
            found[importer] = {m: tuple(sorted(v)) for m, v in sorted(names.items())}
    return found


def test_checker_finds_private_imports():
    sources = {
        "a": "_LIMIT = 3\ndef _helper(): pass\ndef public(): pass\n",
        "b": "from .a import _LIMIT, public\nfrom . import a as mod\nmod._helper()\nmod.public()\n",
        "c": "from . import a\nfrom .a import public\n_OWN = a.public()\n",
        "d": "from __future__ import annotations\nfrom qbcsim.a import _LIMIT\n"
        "from qbcsim import a\na._helper()\n",
    }
    assert private_imports(sources) == {
        "b": {"a": ("_LIMIT", "_helper")}, "d": {"a": ("_LIMIT", "_helper")},
    }


def test_private_imports_are_the_pinned_ones():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert private_imports(sources) == PRIVATE_IMPORTS


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
    # each resolves to what its defining module binds, and is then kept
    package = Path(qbcsim.__file__).parent
    misplaced = [
        name for name, module in qbcsim._MODULE_OF.items()
        if name not in definitions(ast.parse((package / f"{module}.py").read_text("utf-8")))
        or getattr(qbcsim, name) is not getattr(import_module(f"qbcsim.{module}"), name)
        or name not in vars(qbcsim)
    ]
    assert misplaced == []


#: ``qbcsim.__all__`` as the package exported it when ``__init__`` still
#: imported every submodule; the lazy namespace exports the same names.
EXPORTED = (
    "AcceptanceTest", "Basis", "BeamSplitter", "BreidbartFlips", "COMPUTATIONAL",
    "ConditionalTable", "DistanceScenario", "FakedDistance", "FlipParams", "HADAMARD",
    "Honest", "IdealMultiPhoton", "KET_0", "KET_1", "KET_MINUS", "KET_PLUS",
    "LogObjective", "MultiPhotonMode", "OptimizationResult", "Qubit", "TrialConfig",
    "TrialReport", "Variant", "apply_flips", "basis_at_angle", "beam_splitter_table",
    "binding_failure", "binomial_window_probability", "born", "breidbart",
    "breidbart_table", "build_test", "cheat_success", "commit_observable",
    "counted_outcomes", "helstrom_success", "honest_table", "ideal_multiphoton_table",
    "log_binomial_window", "max_safe_distance", "max_safe_distance_noisy",
    "multiphoton_success", "optimize", "pass_factors", "pass_probability", "run",
)


def test_star_import_binds_the_exported_names():
    namespace: dict = {}
    exec("from qbcsim import *", namespace)
    bound = sorted(set(namespace) - {"__builtins__"})
    assert bound == sorted(qbcsim.__all__) == sorted(EXPORTED) and len(bound) == 46


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qbcsim.no_such_name
    assert not hasattr(qbcsim, "no_such_name")


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    probe = (
        "import sys, qbcsim\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] in ('qbcsim', 'numpy')))\n"
    )
    src = str(Path(qbcsim.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "qbcsim\n"), done.stderr

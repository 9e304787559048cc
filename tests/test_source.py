"""Source checks on `src/artinalg`, read with `ast`.

- Every name a module imports at module level is used.  A stale import
  is a dependency nothing needs.  Each module is checked but
  `__init__.py`, whose imports are its exports: a name counts as used
  when it is loaded anywhere in the module, including inside a string
  annotation such as `-> "Subspace"`.
- Every module, `__init__.py` included, imports only the standard
  library and artinalg, at any depth.  The package has no runtime
  dependencies: `sympy`, `numpy` and `mpmath` are test oracles only.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "artinalg"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def imported_names(tree):
    """The names bound by the module-level imports, `annotations` aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names - {"annotations"}


def annotations_of(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield from (a.annotation for a in every if a is not None and a.annotation)
            if node.returns:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Every name loaded in the module, and every name of a string annotation."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations_of(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(imported_names(tree) - used_names(tree)) == []


def test_a_string_annotation_counts_as_a_use():
    tree = ast.parse(
        "from x import A, B, C\n"
        "def f(a: 'A') -> 'list[B]':\n"
        "    pass\n"
    )
    assert imported_names(tree) - used_names(tree) == {"C"}


def foreign_imports(tree):
    """The top-level packages imported anywhere in the module that are
    neither the standard library nor artinalg (relative imports are)."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots - set(sys.stdlib_module_names) - {"artinalg"}


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_only_the_standard_library_and_artinalg_are_imported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(foreign_imports(tree)) == []


def test_a_nested_third_party_import_is_foreign():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import fractions, numpy.linalg\n"
        "from . import linalg\n"
        "from artinalg.errors import ArtinalgError\n"
        "def f():\n"
        "    from sympy import Matrix\n"
    )
    assert foreign_imports(tree) == {"numpy", "sympy"}

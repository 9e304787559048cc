"""Source checks on `src/artinalg`, read with `ast`.

- Every name a module imports at module level is used.  A stale import
  is a dependency nothing needs.  Each module is checked but
  `__init__.py`, whose imports are its exports: a name counts as used
  when it is loaded anywhere in the module, including inside a string
  annotation such as `-> "Subspace"`.
- Every module, `__init__.py` included, imports only the standard
  library and artinalg, at any depth.  The package has no runtime
  dependencies: `sympy`, `numpy` and `mpmath` are test oracles only.
- A value becomes a `Fraction` in one place: `polycore._fraction` (and
  `parse_polynomial`, which reads digits).  Anywhere else `Fraction` may
  be called only on literal arguments, as in `ZERO = Fraction(0)`, or
  named in an annotation; passing it as a callable (`map(Fraction, ...)`)
  or calling it on a variable is a second rational reader.
- The exact constants `ZERO` and `ONE` are assigned at module level only
  in `polycore.py`; every other module imports them, so the identity
  tests `c is ZERO` see one zero wherever it was made.
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


#: the scopes, by module, that may turn a value into a Fraction
RATIONAL_READERS = {"polycore.py": {"_fraction", "parse_polynomial"}}


def _is_literal(node) -> bool:
    """A constant, or a negated one."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant)


def fraction_readers(tree):
    """The qualified scope of every use of the name `Fraction` that is neither
    a call on literal arguments nor part of an annotation, in source order."""
    in_annotation = {id(node) for a in annotations_of(tree) for node in ast.walk(a)}
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction"
            and not node.keywords
            and all(map(_is_literal, node.args))
        ):
            return
        if isinstance(node, ast.Name) and node.id == "Fraction" and id(node) not in in_annotation:
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_only_the_one_reader_makes_a_fraction(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = RATIONAL_READERS.get(path.name, set())
    assert [scope for scope in fraction_readers(tree) if scope.split(".")[0] not in allowed] == []


def test_a_fraction_of_a_variable_or_as_a_callable_is_a_reader():
    tree = ast.parse(
        "from fractions import Fraction\n"
        "ZERO, HALF, MINUS = Fraction(0), Fraction(1, 2), Fraction(-1)\n"
        "def f(x) -> Fraction:\n"
        "    return Fraction(x)\n"
        "class C:\n"
        "    def g(self, xs: 'list[Fraction]'):\n"
        "        return tuple(map(Fraction, xs))\n"
        "    def h(self):\n"
        "        return Fraction('1/3') + Fraction(2)\n"
    )
    assert fraction_readers(tree) == ["f", "C.g"]


def constant_definitions(tree):
    """The names `ZERO` and `ONE` where a module-level assignment binds them."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        found += [
            name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and name.id in ("ZERO", "ONE")
        ]
    return found


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_only_polycore_defines_the_exact_constants(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    expected = ["ZERO", "ONE"] if path.name == "polycore.py" else []
    assert constant_definitions(tree) == expected


def test_a_tuple_or_annotated_assignment_defines_a_constant():
    tree = ast.parse(
        "from .polycore import ZERO\n"
        "ZERO, HALF = Fraction(0), Fraction(1, 2)\n"
        "ONE: Fraction = Fraction(1)\n"
        "def f():\n"
        "    ZERO = 0\n"
    )
    assert constant_definitions(tree) == ["ZERO", "ONE"]

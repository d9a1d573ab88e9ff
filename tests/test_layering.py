"""Import layering: the shared types know no solver, links know only the
shared types, and the generator and the naive leaf know no link.

Imports are read from the source with an AST scan, so an import inside a
function body counts as much as one at the top of a module.  The same kind
of scan checks that every public function, class, method and property of
the package has a caller in the package or in the benchmark, not only in
the tests; a method counts as called only where it is used as an
attribute, ``obj.name``.
"""

import ast
from pathlib import Path

import pytest

import omv
from omv.chains import LINKS

PACKAGE = Path(omv.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

#: Public methods that only the tests call, on purpose: the negative
#: control's flush, whose answers the tests compare with the oracle's to
#: show that the mock only defers its work; and CounterLedger.since, the
#: per-query counter delta that accounting_check in tests/referees.py reads.
TEST_ONLY = {
    "core.CounterLedger.since",
    "harness.BatchingMockSolver.flush",
}

LINK_MODULES = sorted({cls.__module__ for cls in LINKS.values()})


def imported_omv_modules(source: str) -> set[str]:
    """The omv modules a module of the omv package imports anywhere in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["omv" if node.level else "", node.module]))
            if base == "omv":  # from . import chains
                found.update(f"omv.{alias.name}" for alias in node.names)
            else:
                found.add(base)
    return {name for name in found if name.split(".")[0] == "omv"}


def module_imports(module: str) -> set[str]:
    return imported_omv_modules((PACKAGE / f"{module.removeprefix('omv.')}.py").read_text())


def test_scan_sees_imports_inside_functions():
    source = "import numpy\n\ndef f():\n    from . import chains, oracle\n    from .core import Matrix\n"
    assert imported_omv_modules(source) == {"omv.chains", "omv.oracle", "omv.core"}


def test_core_imports_no_omv_module():
    assert module_imports("core") == set()


@pytest.mark.parametrize("module", LINK_MODULES)
def test_link_modules_import_only_core(module):
    # a link gets its inner solvers from its caller's factory, so it needs
    # neither the chains nor the naive leaf
    assert module_imports(module) == {"omv.core"}


def test_generator_and_leaf_import_no_link():
    assert module_imports("harness") <= {"omv.core", "omv.oracle"}
    assert module_imports("oracle") <= {"omv.core"}


DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def referenced_names(source: str, attributes_only: bool = False) -> set[str]:
    """Names, attributes and imported names used in ``source``, or only the
    attributes (``obj.name``) when ``attributes_only``.

    A function's, method's or class's uses of its own name inside its own
    body (recursion, a classmethod building its own class) do not count.
    """
    found = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, DEFINITIONS):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif attributes_only:
            pass
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


def public_definitions(source: str) -> list[str]:
    """Public top-level functions and classes, and the public methods and
    properties of those classes as ``Class.method``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found.extend(
                    f"{node.name}.{member.name}"
                    for member in node.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                )
    return found


def test_reference_scan_skips_a_definitions_own_name():
    source = "from .core import Matrix\n\ndef f(n):\n    return f(n - 1) + g.h\n"
    assert referenced_names(source) == {"Matrix", "n", "g", "h"}
    source = "class C:\n    def m(self):\n        return self.m() + self.k()\n"
    assert referenced_names(source) == {"self", "k"}


def test_attribute_scan_ignores_plain_names():
    source = "from .core import rank\n\ndef f(flush):\n    return rank + flush + g.h\n"
    assert referenced_names(source, attributes_only=True) == {"h"}


def test_definition_scan_lists_public_methods_and_properties():
    source = (
        "class C:\n    @property\n    def p(self):\n        pass\n"
        "    def m(self):\n        pass\n    def _h(self):\n        pass\n"
        "def f():\n    pass\n"
    )
    assert public_definitions(source) == ["C", "C.p", "C.m", "f"]


def test_every_public_definition_has_a_caller_outside_the_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    sources = [path.read_text() for path in modules + sorted(PERFBENCH.glob("*.py"))]
    used = set().union(*(referenced_names(source) for source in sources))
    attributes = set().union(
        *(referenced_names(source, attributes_only=True) for source in sources)
    )
    unused = {
        f"{path.stem}.{name}"
        for path in modules
        for name in public_definitions(path.read_text())
        if name.rpartition(".")[2] not in (attributes if "." in name else used)
    }
    assert unused == TEST_ONLY

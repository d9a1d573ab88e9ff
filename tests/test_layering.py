"""Import layering: the shared types know no solver, and links know no chain.

Imports are read from the source with an AST scan, so an import inside a
function body counts as much as one at the top of a module.
"""

import ast
from pathlib import Path

import pytest

import omv
from omv.chains import LINKS

PACKAGE = Path(omv.__file__).parent

LINK_MODULES = sorted({cls.__module__ for cls in LINKS.values()} - {"omv.chains"})


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
def test_link_modules_do_not_import_chains(module):
    assert "omv.chains" not in module_imports(module)

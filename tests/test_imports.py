"""Every module-level import in the package is read in its module.

The package ``__init__`` re-exports names on purpose and ``from __future__``
imports are compiler directives, so both are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qonsager"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """Names bound by the module-level import statements of ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _read(tree):
    """Names the module reads, plus the names it lists in ``__all__``."""
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def test_scan_sees_package_modules():
    assert {"linmat.py", "spectra.py", "ranka.py"} <= {p.name for p in MODULES}


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(tau)\n")
    assert set(_imported(tree)) - _read(tree) == {"os", "pi"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(_imported(tree)) - _read(tree))
    assert not unused, f"{path.name} imports {unused} but never reads them"

"""pyproject.toml declares only files, entry points, dependencies and test
extras that exist or are used."""

import ast
import importlib
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())
SETUPTOOLS = PYPROJECT.get("tool", {}).get("setuptools", {})
PROJECT = PYPROJECT["project"]


def _package_roots():
    return [ROOT / w for w in SETUPTOOLS.get("packages", {}).get("find", {}).get("where", ["."])]


def test_package_sources_exist():
    assert any((root / "qonsager" / "__init__.py").is_file() for root in _package_roots())


def test_declared_readme_exists():
    readme = PROJECT.get("readme")
    if isinstance(readme, dict):
        readme = readme.get("file")
    if readme is not None:
        assert (ROOT / readme).is_file(), readme


def test_declared_package_data_exists():
    for package, patterns in SETUPTOOLS.get("package-data", {}).items():
        for pattern in patterns:
            hits = [p for root in _package_roots()
                    for p in (root / package.replace(".", "/")).glob(pattern)]
            assert hits, f"{package}: {pattern}"


def test_declared_scripts_import():
    for name, target in PROJECT.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in filter(None, attr.split(".")):
            obj = getattr(obj, part)
        assert callable(obj), name


def _imported_roots(paths):
    roots = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots.update(a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.partition(".")[0])
    return roots


def _module_name(requirement):
    """The import name a requirement such as ``numpy>=1.24`` provides."""
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")


def test_declared_test_extras_are_imported():
    # a test extra nothing imports is a stale dependency
    test_dirs = (ROOT / "tests", ROOT / "perfbench" / "tests")
    roots = _imported_roots(p for d in test_dirs for p in d.rglob("*.py"))
    for requirement in PROJECT.get("optional-dependencies", {}).get("test", []):
        assert _module_name(requirement) in roots, requirement


def test_declared_dependencies_are_imported():
    # a runtime dependency that no package module imports is a stale one
    roots = _imported_roots(p for root in _package_roots()
                            for p in (root / "qonsager").rglob("*.py"))
    for requirement in PROJECT.get("dependencies", []):
        assert _module_name(requirement) in roots, requirement

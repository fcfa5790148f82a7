"""pyproject.toml declares only files and entry points that exist."""

import importlib
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

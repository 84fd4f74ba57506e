import ast
import importlib
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "cyclo"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _imported_names(tree):
    """The names a module's import statements bind, `from __future__` left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []


@pytest.mark.parametrize("path", [SRC / "__init__.py", *MODULES], ids=lambda path: path.name)
def test_every_exported_name_exists(path):
    name = "cyclo" if path.name == "__init__.py" else f"cyclo.{path.stem}"
    module = importlib.import_module(name)
    assert [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)] == []


@pytest.mark.parametrize("path", [SRC / "__init__.py", *MODULES], ids=lambda path: path.name)
def test_every_import_is_stdlib_or_cyclo(path):
    # pyproject.toml declares `dependencies = []`
    tops = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            tops.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.partition(".")[0])
    assert sorted(tops - sys.stdlib_module_names - {"cyclo"}) == []

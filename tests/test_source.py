"""Static checks of the package source: every import is used, every
private module-level function is called from somewhere, and numpy is the
only dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groupprox"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    """The names an import statement binds in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def mentions(tree):
    """Every name the code refers to: names, attributes, imported names and
    strings, since monkeypatch.setattr and getattr take names as strings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def test_every_private_function_is_referenced():
    sources = MODULES + sorted((ROOT / "tests").glob("*.py"))
    referenced = set().union(*(mentions(parse(p)) for p in sources))
    private = [f"{path.name}:{node.name}" for path in MODULES
               for node in parse(path).body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")]
    assert private
    assert [f for f in private if f.split(":")[1] not in referenced] == []


def test_numpy_is_the_only_dependency():
    imported = set()
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert sorted(imported - sys.stdlib_module_names - {"numpy"}) == []
    # tomllib is not in Python 3.10, so the list is read with a regex
    listed = re.search(r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(),
                       re.MULTILINE | re.DOTALL).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', listed) == ["numpy"]

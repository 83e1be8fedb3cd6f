"""Every name a module of the package imports is used there.

Standard library only (``ast``): a name counts as used when the module reads
it (a ``Name`` anywhere, annotations included) or lists it in ``__all__``.
An import statement whose first line is marked ``# noqa: F401`` is a
deliberate re-export and is skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "opgraph"


def _imported(tree: ast.Module, lines: list) -> dict:
    """name -> line of each name a statement binds by import, noqa lines skipped."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name != "*":
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> list:
    text = path.read_text()
    tree = ast.parse(text)
    used = _used(tree)
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in _imported(tree, text.splitlines()).items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path) == []


def test_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n"
                      "__all__ = ['tau']\n")
    assert unused_imports(module) == ["m.py:1 os", "m.py:3 pi"]

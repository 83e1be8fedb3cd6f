"""Every public top-level function or class of the package has a reader.

Standard library only (``ast``).  A function or class defined at the top level
of a module under ``src/opgraph`` without a leading underscore must be listed
in ``opgraph.__all__`` or be read: by a package module (a ``Name``, an
attribute ``.name`` or a ``from ... import name``), or by a Python file under
``perfbench/`` or ``tools/``.  There a string that parses as Python is read as
code too, since ``perfbench/spans.py`` patches functions by name and
``tools/bench_pair.py`` runs scripts held in strings.  A name that only tests
read belongs in ``tests/helpers.py``.
"""

import ast
from pathlib import Path

import opgraph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "opgraph"
OUTSIDE = ("perfbench", "tools")


def _defined(tree: ast.Module) -> dict:
    """name -> line of each public top-level function or class."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _reads(tree: ast.AST, parse_strings: bool) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif parse_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _reads(ast.parse(node.value), True)
            except (SyntaxError, ValueError):
                pass
    return names


def unread_public_names(package: list, outside: list, exported) -> list:
    trees = {path: ast.parse(path.read_text()) for path in package}
    reads = set(exported)
    for tree in trees.values():
        reads |= _reads(tree, parse_strings=False)
    for path in outside:
        reads |= _reads(ast.parse(path.read_text()), parse_strings=True)
    return sorted(f"{path.name}:{line} {name}" for path, tree in trees.items()
                  for name, line in _defined(tree).items() if name not in reads)


def test_every_public_name_has_a_reader():
    outside = sorted(path for folder in OUTSIDE for path in (ROOT / folder).rglob("*.py"))
    assert unread_public_names(sorted(SRC.glob("*.py")), outside, opgraph.__all__) == []


def test_check_sees_an_unread_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('"""Unread is named only here."""\n'
                      "def used(): pass\n"
                      "def exported(): pass\n"
                      "def patched(): pass\n"
                      "def scripted(): pass\n"
                      "class Unread: pass\n"
                      "def _private(): pass\n"
                      "def caller(): used()\n")
    tool = tmp_path / "tool.py"
    tool.write_text('NAMES = ("patched", "caller")\n'
                    'SCRIPT = """\nfrom m import scripted\nscripted()\n"""\n')
    assert unread_public_names([module], [tool], ["exported"]) == ["m.py:6 Unread"]

"""Every public name has a caller in the package.

A function or type exported from ``frontshift`` that only tests use is
either an oracle, which belongs in ``tests/oracles.py``, or dead code.
A name counts as used when some module of ``src/frontshift`` other than
``__init__.py`` loads it (as a name or an attribute) outside the body of
its own definition; imports alone do not count.
"""

import ast
import types
from pathlib import Path

import frontshift

SRC = Path(__file__).resolve().parent.parent / "src" / "frontshift"


def _uses(tree: ast.AST, name: str) -> int:
    """Loads of name in tree, skipping the def or class that defines it."""
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)) and node.name == name):
            continue
        if isinstance(node, ast.Name) and node.id == name:
            count += 1
        elif isinstance(node, ast.Attribute) and node.attr == name:
            count += 1
        stack.extend(ast.iter_child_nodes(node))
    return count


def unused_public_names(package, src: Path) -> list[str]:
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))
             if path.name != "__init__.py"]
    return sorted(name for name in package.__all__
                  if not isinstance(getattr(package, name), types.ModuleType)
                  and not any(_uses(tree, name) for tree in trees))


def test_every_public_name_is_used_in_the_package():
    assert unused_public_names(frontshift, SRC) == []


def test_guard_sees_a_name_only_its_definition_uses(tmp_path):
    (tmp_path / "a.py").write_text(
        "def lonely(x):\n    return lonely(x - 1)\n\n"
        "class Used:\n    pass\n\n"
        "def make():\n    return Used()\n")
    (tmp_path / "b.py").write_text("from a import lonely\n")
    package = types.SimpleNamespace(__all__=["lonely", "Used"],
                                    lonely=None, Used=None)
    assert unused_public_names(package, tmp_path) == ["lonely"]

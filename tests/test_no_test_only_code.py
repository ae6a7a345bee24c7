"""Every function, method and class of the package has a caller in it.

Code that only the tests call is a test oracle living in ``src/``: it
has to be kept, read and compiled with the program although no command
runs it.  A definition counts as called when its name is loaded
somewhere in the package outside its own body: a method's as an
attribute (``obj.name``), anything else's as a bare name or an
attribute.  Recursion does not count, and neither do imports.  Matching
is by name only, so a name loaded anywhere counts for every definition
that bears it.  Dunder methods are called by Python itself and are
skipped.  The entries of ``ALLOWED`` have their caller outside the
package, named next to each.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "frontshift"

ALLOWED = [
    # span targets of perfbench/spans.py, part of the benchmark
    "geometry.ForceField.components",
    "geometry.ForceField.jacobians",
    # the twin-trajectory oracle of perfbench/worker.py's gate
    "selfcheck.variation_errors",
    # called by NamedTuple._replace, which the CLI's --seed goes through
    "config.SamplerSection._make",
]


def _definitions(tree: ast.AST, prefix: str = "", in_class: bool = False):
    """(qualified name, node, whether it is a method) of every def and
    class in tree, nested ones and methods too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node, in_class and not isinstance(
                node, ast.ClassDef)
            yield from _definitions(node, f"{prefix}{node.name}.",
                                    isinstance(node, ast.ClassDef))
        else:
            yield from _definitions(node, prefix, in_class)


def _loads(tree: ast.AST) -> Counter:
    """How often each name is loaded in tree, keyed ("name", name) as a
    bare name and ("attr", name) as an attribute."""
    return Counter(
        ("name", node.id) if isinstance(node, ast.Name) else
        ("attr", node.attr)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load))


def uncalled_definitions(src: Path) -> list[str]:
    """module.qualname of each definition whose name nothing loads outside
    its own body."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    loads = sum((_loads(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for name, node, method in _definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = _loads(node)
            kinds = ("attr",) if method else ("attr", "name")
            if all(loads[kind, node.name] == own[kind, node.name]
                   for kind in kinds):
                found.append(f"{module}.{name}")
    return sorted(found)


def test_every_definition_has_a_caller_in_the_package():
    assert uncalled_definitions(SRC) == sorted(ALLOWED)


def test_guard_sees_a_definition_without_a_caller(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import imported_only\n\n"
        "def used(x):\n"
        "    return x\n\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else used(0)\n\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        self.v = 1\n\n"
        "    def method(self):\n"
        "        return self.helper()\n\n"
        "    def helper(self):\n"
        "        def inner():\n"
        "            return 0\n"
        "        return inner()\n\n"
        "    def unused(self, unused):\n"
        "        return unused\n")
    (tmp_path / "b.py").write_text(
        "from . import a\n\n"
        "def imported_only():\n"
        "    return a.K().method()\n")
    assert uncalled_definitions(tmp_path) == [
        "a.K.unused", "a.recursive", "b.imported_only"]

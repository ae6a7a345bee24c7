"""The front and flow modules run one formulation in every dimension.

blowup, dynamics, deviation and geometry take n from the chart and
never branch on it: a comparison of ``n``, ``dimension`` or any
``.dimension`` attribute with an integer literal is a dimension fork.
The one allowed is ``Manifold.__init__``'s ``dimension < 2``, which
rejects charts too small to carry a front.  Two modules are out of
scope by design: normality (the sampler's per-dimension equal-area maps
and the n = 2 strong family) and config (the 2..4 bound on a scenario's
dimension).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "frontshift"
UNFORKED = ("blowup.py", "deviation.py", "dynamics.py", "geometry.py")
ALLOWED = {("geometry.py", "Manifold.__init__", "dimension < 2")}


def _is_dimension(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Name) and node.id in ("n", "dimension"))
            or (isinstance(node, ast.Attribute)
                and node.attr == "dimension"))


def _is_int(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) is int)


class _Forks(ast.NodeVisitor):
    """(enclosing scope, comparison) of every dimension fork."""

    def __init__(self):
        self.scope, self.found = [], []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef

    def visit_Compare(self, node):
        operands = [node.left, *node.comparators]
        if any(map(_is_dimension, operands)) and any(map(_is_int, operands)):
            self.found.append((".".join(self.scope), ast.unparse(node)))
        self.generic_visit(node)


def _forks(source: str) -> list[tuple[str, str]]:
    visitor = _Forks()
    visitor.visit(ast.parse(source))
    return visitor.found


@pytest.mark.parametrize("module", UNFORKED)
def test_no_dimension_fork(module):
    found = {(module, *fork)
             for fork in _forks((SRC / module).read_text(encoding="utf-8"))}
    assert found - ALLOWED == set()


def test_guard_sees_a_dimension_fork():
    source = ("class Manifold:\n"
              "    def __init__(self, dimension):\n"
              "        if dimension < 2:\n"
              "            raise ValueError\n"
              "def grid(man, n, flag):\n"
              "    if n == 2 or flag == 3 or n == 'two':\n"
              "        pass\n"
              "    elif 2 <= man.dimension <= 4:\n"
              "        pass\n")
    assert _forks(source) == [("Manifold.__init__", "dimension < 2"),
                              ("grid", "n == 2"),
                              ("grid", "2 <= man.dimension <= 4")]

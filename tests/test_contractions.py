"""The package contracts without einsum, and with one layout.

einsum stays in the oracles (selfcheck and the test references) and in
the tests.  Every other module must not call it, so that the RHS keeps
formulations of its own: the variations' RK4 stages in one batched
matrix product per stage, batch first; the variation coefficients of a
block of stage points, the normality residuals, their norms, the shared
force tensors, the deviation phi and its derivatives, the front series,
the sphere grid and the shift's frames and launch connection term in
broadcast products with ordered sums, batch last.
tests/test_rhs_reference.py, tests/test_normality_reference.py and
tests/test_front_series.py pin them.  selfcheck.py is the one module
exempt.

The batch-first matrix product (``@``, ``np.matmul``, ``np.dot``) has
the same bounds: outside selfcheck only the variations' stage
(``_Stages.variations``) and the batch-first oracle methods of
``Manifold`` (``christoffel``, ``christoffel_partials`` and the
record-free ``riemann``) use it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "frontshift"
MATMUL_ONLY = sorted(path.name for path in SRC.glob("*.py")
                     if path.name != "selfcheck.py")
PRODUCT_NAMES = ("matmul", "dot")
# (module, enclosing function) of every batch-first matrix product allowed
PRODUCTS_ALLOWED = {
    ("dynamics.py", "_Stages.variations"),
    ("geometry.py", "Manifold.christoffel"),
    ("geometry.py", "Manifold.christoffel_partials"),
    ("geometry.py", "Manifold.riemann"),
}


def _einsum_calls(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name == "einsum":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == "einsum" for alias in node.names):
                lines.append(node.lineno)
    return lines


class _Products(ast.NodeVisitor):
    """(enclosing scope, line) of every ``@`` and ``@=``, every attribute
    ``matmul`` or ``dot`` (``np.dot``, ``a.dot``), every call of a bare
    ``matmul`` or ``dot`` and every import of one; a variable that is
    only named ``dot`` is not a product."""

    def __init__(self):
        self.scope, self.found = [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _add(self, node):
        self.found.append((".".join(self.scope), node.lineno))

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            self._add(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.MatMult):
            self._add(node)
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if node.attr in PRODUCT_NAMES:
            self._add(node)
        self.generic_visit(node)

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name)
                and node.func.id in PRODUCT_NAMES):
            self._add(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if any(alias.name in PRODUCT_NAMES for alias in node.names):
            self._add(node)


def _products(tree: ast.AST) -> list[tuple[str, int]]:
    visitor = _Products()
    visitor.visit(tree)
    return visitor.found


def _tree(module: str) -> ast.AST:
    return ast.parse((SRC / module).read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", MATMUL_ONLY)
def test_no_einsum_on_the_classifier_path(module):
    assert _einsum_calls(_tree(module)) == [], f"einsum in {module}"


def test_guard_sees_an_einsum_call():
    tree = ast.parse("import numpy as np\n"
                     "from numpy import einsum\n"
                     "y = np.einsum('ij,j->i', a, b)\n")
    assert sorted(_einsum_calls(tree)) == [2, 3]


@pytest.mark.parametrize("module", MATMUL_ONLY)
def test_no_batch_first_product_outside_the_stage_and_the_oracles(module):
    stray = [(scope, line) for scope, line in _products(_tree(module))
             if (module, scope) not in PRODUCTS_ALLOWED]
    assert stray == [], f"batch-first matrix products in {module}"


def test_every_allowed_product_is_still_there():
    # an entry whose product moved batch-last leaves the list with it
    used = {(module, scope) for module in MATMUL_ONLY
            for scope, _ in _products(_tree(module))}
    assert PRODUCTS_ALLOWED <= used


def test_guard_sees_every_spelling_of_a_product():
    tree = ast.parse("import numpy as np\n"
                     "from numpy import matmul\n"
                     "def f(a, b):\n"
                     "    a @= b\n"
                     "    return np.dot(a, b)\n"
                     "class C:\n"
                     "    def g(self, a, b):\n"
                     "        return (a @ b, matmul(a, b), a.dot(b),\n"
                     "                np.matmul)\n"
                     "dot = '.'\n"
                     "y = dot_last(a, b) + a * b\n")
    assert sorted(_products(tree)) == [
        ("", 2), ("C.g", 8), ("C.g", 8), ("C.g", 8), ("C.g", 9),
        ("f", 4), ("f", 5)]

"""The package contracts without einsum.

einsum stays in the oracles (selfcheck and the test references) and in
the tests.  Every other module must not call it, so that the RHS keeps
formulations of its own: the variations' RK4 stages and the shift's
launch connection term in batched matrix products, batch first; the
variation coefficients of a block of stage points, the normality
residuals, their norms and the shared force tensors in broadcast
products with ordered sums, batch last.  tests/test_rhs_reference.py
and tests/test_normality_reference.py pin them.  selfcheck.py is the
one module exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "frontshift"
MATMUL_ONLY = sorted(path.name for path in SRC.glob("*.py")
                     if path.name != "selfcheck.py")


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


@pytest.mark.parametrize("module", MATMUL_ONLY)
def test_no_einsum_on_the_classifier_path(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert _einsum_calls(tree) == [], f"einsum in {module}"


def test_guard_sees_an_einsum_call():
    tree = ast.parse("import numpy as np\n"
                     "from numpy import einsum\n"
                     "y = np.einsum('ij,j->i', a, b)\n")
    assert sorted(_einsum_calls(tree)) == [2, 3]

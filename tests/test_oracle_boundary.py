"""Production code past the metric reads only the generated jets.

The per-quantity methods (``Manifold.christoffel``, ``metric_partials``,
``christoffel_partials``, ``metric_second_partials``,
``ForceField.components`` and ``jacobians``) are oracles: the tests and
``selfcheck`` compare the jets against them, and nothing else in the
package calls them, except the oracle methods themselves building on
one another.  The static guard below enforces that over ``src/``; the
call counts show it for the normality and deviation formulas at run
time, where ``force_tensors`` takes g, g^-1, F and both gradients from
one ``ForceField.first_order_jet`` call and no numeric inverse.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from frontshift.deviation import phi_derivatives
from frontshift.geometry import ForceField, Manifold, force_tensors
from frontshift.normality import classify
from test_rhs_reference import CHARTS

SRC = Path(__file__).resolve().parent.parent / "src" / "frontshift"
ORACLES = {"christoffel", "metric_partials", "christoffel_partials",
           "metric_second_partials", "components", "jacobians"}
# the oracle methods that build on the other oracles
ORACLE_METHODS = {"christoffel", "christoffel_partials", "riemann"}
PRODUCTION = sorted(path.name for path in SRC.glob("*.py")
                    if path.name != "selfcheck.py")


def _oracle_calls(tree: ast.AST) -> list:
    """(line, method) of each oracle call outside the oracle methods."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ORACLE_METHODS:
            inside |= {id(child) for child in ast.walk(node)}
    return sorted((node.lineno, node.func.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ORACLES and id(node) not in inside)


@pytest.mark.parametrize("module", PRODUCTION)
def test_no_production_caller_of_the_oracles(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert _oracle_calls(tree) == [], f"oracle call in {module}"


def test_guard_sees_an_oracle_call():
    tree = ast.parse("def christoffel(self, xs):\n"
                     "    return self.metric_partials(xs)\n"
                     "def launch(man, force, xs, vs):\n"
                     "    gamma = man.christoffel(xs)\n"
                     "    return gamma, force.components(xs, vs)\n")
    assert _oracle_calls(tree) == [(4, "christoffel"), (5, "components")]


@pytest.fixture
def calls(monkeypatch):
    """Counts of the oracle calls, the three jets and np.linalg.inv."""
    counts = {}

    def count(owner, name):
        real = getattr(owner, name)
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in ("christoffel", "metric_partials", "christoffel_partials",
                 "metric_second_partials"):
        count(Manifold, name)
    for name in ("components", "jacobians", "flow_jet", "variation_jet",
                 "first_order_jet"):
        count(ForceField, name)
    count(np.linalg, "inv")
    return counts


@pytest.mark.parametrize("chart", ["S2", "S3"])
def test_force_tensors_read_only_the_first_order_jet(chart, calls):
    metric, force_src, box = CHARTS[chart]
    n = len(metric)
    man = Manifold(n, metric)
    force = ForceField(man, force_src)
    rng = np.random.default_rng([31, n])
    lo, hi = np.array(box).T
    xs = lo + (hi - lo) * rng.random((16, n))
    vs = rng.normal(size=(16, n))
    tau, rho = rng.normal(size=(2, 16, n - 1, n))
    force_tensors(force, xs.T, vs.T)
    phi_derivatives(force, xs, vs, tau, rho)
    classify(man, force, box, 0.5, 2.0, 300)
    # one jet call each: force_tensors, phi_derivatives and the one
    # residual block of 300 samples
    assert calls == {"christoffel": 0, "metric_partials": 0,
                     "christoffel_partials": 0, "metric_second_partials": 0,
                     "components": 0, "jacobians": 0, "flow_jet": 0,
                     "variation_jet": 0, "first_order_jet": 3, "inv": 0}

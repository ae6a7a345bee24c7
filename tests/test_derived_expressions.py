"""The derived expressions of every bundled config and sweep chart, pinned.

Each case hashes the printed form (``exprlang.to_source``) of every
expression group a compiled callable of ``Manifold`` or ``ForceField``
evaluates: g, its first and second partials, the Koszul symbol, S (the
second partials contracted with v twice), F and both force Jacobians.
A refactor of the parser, the differentiator or the simplifier must
leave every digest as it is.  Regenerate them with ``digest`` only for
a deliberate change to the derived expressions, and record that change.
"""

import hashlib
from pathlib import Path

import pytest

from frontshift.config import load_config
from frontshift.exprlang import to_source
from frontshift.geometry import ForceField, Manifold
from test_rhs_reference import CHARTS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DIGESTS = {
    "config/drag":
        "511db1cdea7a5df822beadb5b89904e71c65fd85eb42b72845440d1fb27f40d8",
    "config/free":
        "ce1866d94ef22ac26be4c8d66ca27e56f254be11ebf15c4c4f4771a30af377c1",
    "config/harmonic":
        "03b614a9c028ced092c43fa189fd8202d1a1430577a9fea072d911b3d6673691",
    "config/sphere-geodesic":
        "0cd53ec748277b5cc9d85cc09212a1d7b0991eae7ee55640b2ec2c17309630c1",
    "config/sphere3-drag":
        "e0428a57db795baff70165bff8416f12b484c2dde3362992e050c2704f70fe47",
    "config/varying-nu":
        "ce1866d94ef22ac26be4c8d66ca27e56f254be11ebf15c4c4f4771a30af377c1",
    "chart/S2":
        "a3062cc05e2ed0df204599abe844b87fd40f0a6535395c8fb982b11feb2fa381",
    "chart/S3":
        "e0428a57db795baff70165bff8416f12b484c2dde3362992e050c2704f70fe47",
    "chart/skew3":
        "f9b688f293f531275d69fe02536e061477ca08e1fa2b115b4abccfe57ea6ca46",
}


def groups(man: Manifold, force: ForceField) -> dict:
    return {"g": man._g_asts, "dg": man._dg_asts, "ddg": man._ddg_asts,
            "koszul": man._koszul_asts, "ddg_vv": man._ddg_vv_asts,
            "f": force.component_ast, "dfdx": force._jac_asts[0],
            "dfdv": force._jac_asts[1]}


def digest(man: Manifold, force: ForceField) -> str:
    text = "".join(f"{name}\n" + "".join(f"{to_source(node)}\n"
                                         for node in group)
                   for name, group in groups(man, force).items())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build(case: str) -> tuple:
    kind, name = case.split("/")
    if kind == "config":
        return load_config(CONFIGS / f"{name}.json").build()
    metric, force, _ = CHARTS[name]
    man = Manifold(len(metric), metric)
    return man, ForceField(man, force)


CASES = ([f"config/{path.stem}" for path in sorted(CONFIGS.glob("*.json"))]
         + [f"chart/{name}" for name in CHARTS])


def test_every_bundled_config_and_chart_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_derived_expressions_match_their_digest(case):
    assert digest(*build(case)) == DIGESTS[case]

"""The derived expressions of every bundled config and sweep chart, pinned.

Each case hashes the structure (``structure``: each node's type name
and the ``repr`` of its payload, recursively) of every expression group
a compiled callable of ``Manifold`` or ``ForceField`` evaluates: g, its
first and second partials, the Koszul symbol, S (the second partials
contracted with v twice), F and both force Jacobians; and, pinned apart,
g^-1 and the connection contracted with v and F.  The association
order of sums and products and the sign of a zero constant change a
digest, as they change the generated code.  A refactor of the parser,
the differentiator or the simplifier must leave every digest as it is.
Regenerate them with ``digest`` only for a deliberate change to the
derived expressions, and record that change.
"""

import hashlib
from pathlib import Path

import pytest

from frontshift.config import load_config
from frontshift.exprlang import Node
from frontshift.geometry import ForceField, Manifold
from test_rhs_reference import CHARTS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DIGESTS = {
    "config/drag":
        "7e682e39de260d2db9f672be348b6b9640b983dbc55ec2e9a2612385fe5074a3",
    "config/free":
        "d89688f526ab08db4dbfae1783bba86d970ea43ca237e7171063d575f835ca70",
    "config/harmonic":
        "4ea9c4fc761d0c28abbd64c39a2eed5abf259201d3ea3e9db40cb59be5ddfb9b",
    "config/sphere-geodesic":
        "12386abee070a978ccda8d8f2d323d7a6e492e94f3a6ba4a169c3078b382238d",
    "config/sphere3-drag":
        "c8262b4b702d0884ff98095dc1d51ac35f9972390fe5401d91bd43e867895c31",
    "config/varying-nu":
        "d89688f526ab08db4dbfae1783bba86d970ea43ca237e7171063d575f835ca70",
    "chart/S2":
        "112e158f8500dd94e77bc85ae6ec4dc8172c1f5138e0335a08f8f93294c4cfa0",
    "chart/S3":
        "c8262b4b702d0884ff98095dc1d51ac35f9972390fe5401d91bd43e867895c31",
    "chart/skew3":
        "00a88b4f92f956889d3b0ac16e4a9bd1c7a580fcd78e1a2c86563a7ba7521365",
}


# g^-1 and the connection contracted with v and F (the lowered c, L_v
# and L_F, the raised Gamma v, Gamma F and Gamma(v, v), and the
# acceleration), pinned apart so that the groups above keep their digests
CONNECTION_DIGESTS = {
    "config/drag":
        "0bc044c2809d531bad55941a3bd2931e63df2891d668d85f2d47faa50efb062f",
    "config/free":
        "4686addb7e51de24ce4a558e32d84d745171a52e4bbd5732114b29caaf86f83d",
    "config/harmonic":
        "820a76b2309251a569db3633ce57ec5eb7bdb584699e8d7c1ac398bdcc3e8bfb",
    "config/sphere-geodesic":
        "60f89d70412073beea22529ffbb9acc252d365513e993b8ca8b48bb41f9a4889",
    "config/sphere3-drag":
        "e42cc65070884e7454c1991e04c8b7c5b2ee4c365b5a6a28fddffc67d0ed4e92",
    "config/varying-nu":
        "4686addb7e51de24ce4a558e32d84d745171a52e4bbd5732114b29caaf86f83d",
    "chart/S2":
        "f8929538224d30e96a659c04fe2cbe48546065164c9db4f23ab9579c57a1d0ac",
    "chart/S3":
        "e42cc65070884e7454c1991e04c8b7c5b2ee4c365b5a6a28fddffc67d0ed4e92",
    "chart/skew3":
        "2d005adc7d9ac5823e73bc5a2e821904652b234cb0c46786278484f89ccbed9e",
}


def groups(man: Manifold, force: ForceField) -> dict:
    nn = man.dimension ** 2
    return {"g": man._g_asts, "dg": man._dg_asts, "ddg": man._ddg_asts,
            "koszul": man._koszul_asts, "ddg_vv": man._ddg_vv_asts,
            "f": force.component_ast, "dfdx": force._jac_asts[:nn],
            "dfdv": force._jac_asts[nn:]}


def structure(node: Node) -> str:
    """Type name(payload, ...), each payload a node's structure or the
    repr of a value (a float's repr keeps the sign of zero)."""
    parts = [structure(value) if isinstance(value, Node) else repr(value)
             for value in (getattr(node, name) for name in node._fields)]
    return f"{type(node).__name__}({', '.join(parts)})"


def connection_groups(man: Manifold, force: ForceField) -> dict:
    return {"ginv": man._ginv_asts, **force._connection_asts}


def digest(man: Manifold, force: ForceField, of=groups) -> str:
    text = "".join(f"{name}\n" + "".join(f"{structure(node)}\n"
                                         for node in group)
                   for name, group in of(man, force).items())
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
    assert sorted(DIGESTS) == sorted(CONNECTION_DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_derived_expressions_match_their_digest(case):
    assert digest(*build(case)) == DIGESTS[case]


@pytest.mark.parametrize("case", CASES)
def test_connection_expressions_match_their_digest(case):
    assert (digest(*build(case), of=connection_groups)
            == CONNECTION_DIGESTS[case])

"""dynamics._rhs pinned to the einsum formulation it replaced.

The reference below evaluates every metric, metric-derivative and
force-Jacobian entry with its own compiled expression (no symmetric-slot
fill, no shared subexpressions) and assembles connection, curvature and
the variation right-hand side with one einsum per term, as the
production code did before it was fused into batched matrix products.
"""

import numpy as np
import pytest

from frontshift import dynamics, exprlang
from frontshift.geometry import ForceField, Manifold

REL = 1e-12


def _entry_fns(asts, names):
    return [exprlang.compile_fn(a, names) for a in asts]


class _Reference:
    def __init__(self, man: Manifold, force: ForceField):
        n = man.dimension
        self.n = n
        coords, vels = man.coords, man.velocities
        g_ast = man.metric_ast
        dg_ast = [[[exprlang.differentiate(g_ast[i][j], coords[k])
                    for j in range(n)] for i in range(n)] for k in range(n)]
        ddg_ast = [[[[exprlang.differentiate(dg_ast[k][i][j], coords[ell])
                      for j in range(n)] for i in range(n)]
                    for k in range(n)] for ell in range(n)]
        flat = np.array(g_ast, dtype=object).ravel()
        self.g = _entry_fns(flat, coords)
        self.dg = _entry_fns(np.array(dg_ast, dtype=object).ravel(), coords)
        self.ddg = _entry_fns(np.array(ddg_ast, dtype=object).ravel(), coords)
        names = coords + vels
        comps = force.component_ast
        self.f = _entry_fns(comps, names)
        self.dfdx = _entry_fns([exprlang.differentiate(comps[k], coords[i])
                                for i in range(n) for k in range(n)], names)
        self.dfdv = _entry_fns([exprlang.differentiate(comps[k], vels[i])
                                for i in range(n) for k in range(n)], names)

    @staticmethod
    def _eval(fns, args, shape):
        nb = args[0].shape[0]
        out = np.empty((nb, len(fns)))
        for e, fn in enumerate(fns):
            out[:, e] = fn(*args)
        return out.reshape((nb,) + shape)

    def rhs(self, x, v, tau, rho, riemann_sign):
        n = self.n
        xa = tuple(x[:, k] for k in range(n))
        xva = xa + tuple(v[:, k] for k in range(n))
        g = self._eval(self.g, xa, (n, n))
        dg = self._eval(self.dg, xa, (n, n, n))
        ddg = self._eval(self.ddg, xa, (n, n, n, n))
        f_vals = self._eval(self.f, xva, (n,))
        dfdx = self._eval(self.dfdx, xva, (n, n))
        dfdv = self._eval(self.dfdv, xva, (n, n))

        ginv = np.linalg.inv(g)
        sym = (np.einsum('birj->brij', dg) + np.einsum('bjri->brij', dg)
               - dg)
        gamma = 0.5 * np.einsum('bkr,brij->bkij', ginv, sym)
        dsym = (np.einsum('bsirj->bsrij', ddg)
                + np.einsum('bsjri->bsrij', ddg) - ddg)
        dginv = -np.einsum('bka,bsac,bcr->bskr', ginv, dg, ginv)
        dgamma = (0.5 * np.einsum('bskr,brij->bskij', dginv, sym)
                  + 0.5 * np.einsum('bkr,bsrij->bskij', ginv, dsym))
        riem = (np.einsum('bskmr->bkmsr', dgamma)
                - np.einsum('brkms->bkmsr', dgamma)
                + np.einsum('bksj,bjmr->bkmsr', gamma, gamma)
                - np.einsum('bkrj,bjms->bkmsr', gamma, gamma))
        spatial = (dfdx
                   - np.einsum('bjis,bs,bjk->bik', gamma, v, dfdv)
                   + np.einsum('bkis,bs->bik', gamma, f_vals))

        dv = f_vals - np.einsum('bkij,bi,bj->bk', gamma, v, v)
        curv = -riemann_sign * np.einsum('bkmsr,bjs,br,bm->bjk',
                                         riem, tau, v, v)
        rho_rate = (curv + np.einsum('bjs,bsk->bjk', rho, dfdv)
                    + np.einsum('bjs,bsk->bjk', tau, spatial))
        dtau = rho - np.einsum('bkrs,br,bjs->bjk', gamma, v, tau)
        drho = rho_rate - np.einsum('bkrs,br,bjs->bjk', gamma, v, rho)
        return v, dv, dtau, drho, f_vals


def _sphere(n):
    metric = [["0"] * n for _ in range(n)]
    metric[0][0] = "1"
    for k in range(1, n):
        metric[k][k] = "*".join(f"sin(x{j + 1})^2" for j in range(k))
    return metric


def _drag(n, metric, c=0.3):
    speed = " + ".join(f"{metric[k][k]}*v{k + 1}^2" for k in range(n))
    return [f"-{c}*sqrt({speed})*v{k + 1}" for k in range(n)]


# Off-diagonal, position-dependent, positive definite on the box below;
# its force mixes positions and velocities in every component.
SKEW_METRIC = [
    ["2 + x2^2", "0.3*x1*x3", "0.2*sin(x2)"],
    ["0.3*x1*x3", "2 + cos(x1)", "0.1*x2*x3"],
    ["0.2*sin(x2)", "0.1*x2*x3", "2.5 + x1^2*x3"],
]
SKEW_FORCE = ["-0.2*v1*sqrt(v1^2 + v2^2 + v3^2) + 0.1*x2*v3",
              "sin(x1)*v2 - 0.1*x3*v1^2",
              "-x3 + 0.05*v1*v2*cos(x2)"]

CHARTS = {
    "S2": (_sphere(2), _drag(2, _sphere(2)), [(0.6, 2.5), (0.0, 6.0)]),
    "S3": (_sphere(3), _drag(3, _sphere(3)),
           [(0.6, 2.5), (0.6, 2.5), (0.0, 6.0)]),
    "skew3": (SKEW_METRIC, SKEW_FORCE, [(-0.8, 0.8)] * 3),
}


@pytest.mark.parametrize("riemann_sign", [1.0, -1.0])
@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_rhs_matches_einsum_reference(chart, riemann_sign):
    metric, force_src, box = CHARTS[chart]
    n = len(metric)
    man = Manifold(n, metric)
    force = ForceField(man, force_src)
    rng = np.random.default_rng([17, n, len(chart)])
    nb, nvar = 24, n - 1
    lo, hi = np.array(box).T
    x = lo + (hi - lo) * rng.random((nb, n))
    assert np.linalg.eigvalsh(man.metric(x)).min() > 0.1
    v = rng.normal(size=(nb, n))
    tau = rng.normal(size=(nb, nvar, n))
    rho = rng.normal(size=(nb, nvar, n))

    got = dynamics._rhs(man, force, x, v, tau, rho, riemann_sign)
    ref = _Reference(man, force).rhs(x, v, tau, rho, riemann_sign)
    for name, a, b in zip(("dx", "dv", "dtau", "drho", "force"), got, ref):
        assert a.shape == b.shape, name
        scale = np.abs(b).max()
        assert scale > 0.0, name
        assert np.abs(a - b).max() <= REL * scale, name


def test_reference_sees_a_flipped_curvature_sign():
    # the curvature term is large enough on S^3 that the 1e-12 pin above
    # would catch a sign error in it
    metric, force_src, box = CHARTS["S3"]
    man = Manifold(3, metric)
    force = ForceField(man, force_src)
    rng = np.random.default_rng(5)
    lo, hi = np.array(box).T
    x = lo + (hi - lo) * rng.random((8, 3))
    v, tau, rho = (rng.normal(size=s) for s in ((8, 3), (8, 2, 3), (8, 2, 3)))
    ref = _Reference(man, force)
    plus = ref.rhs(x, v, tau, rho, 1.0)[3]
    minus = dynamics._rhs(man, force, x, v, tau, rho, -1.0)[3]
    assert np.abs(plus - minus).max() > 1e3 * REL * np.abs(plus).max()

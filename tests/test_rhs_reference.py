"""The RK4 stage's production pieces, composed by ``oracles.rhs``, pinned
to the einsum formulation they replaced.

The reference below evaluates every metric, metric-derivative and
force-Jacobian entry with its own compiled expression (no symmetric-slot
fill, no shared subexpressions) and assembles connection, curvature and
the variation right-hand side with one einsum per term, as the
production code did before it was fused into batched matrix products.
``integrate_batch`` equals the RK4 loop over ``oracles.rhs`` bit for bit
(``tests/test_dynamics.py``).
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from frontshift import exprlang
from frontshift.geometry import ForceField, Manifold
from oracles import rhs

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "rhs_sweep.py"
_spec = importlib.util.spec_from_file_location("rhs_sweep", SCRIPT)
rhs_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rhs_sweep)

# S^2 and S^3 under drag and the non-diagonal skew3: the charts whose
# pieces scripts/rhs_sweep.py times, shared by the tests
CHARTS, drag, sphere = rhs_sweep.CHARTS, rhs_sweep.drag, rhs_sweep.sphere

REL = 1e-12


def _entry_fns(asts, names):
    return [exprlang.compile_fn([a], names) for a in asts]


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
            out[:, e] = fn(*args)[0]
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
        return v, dv, dtau, drho


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

    got = rhs(man, force, x, v, tau, rho, riemann_sign)
    ref = _Reference(man, force).rhs(x, v, tau, rho, riemann_sign)
    for name, a, b in zip(("dx", "dv", "dtau", "drho"), got, ref,
                          strict=True):
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
    minus = rhs(man, force, x, v, tau, rho, -1.0)[3]
    assert np.abs(plus - minus).max() > 1e3 * REL * np.abs(plus).max()

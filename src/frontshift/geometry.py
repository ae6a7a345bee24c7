"""Metric geometry and extended-field gradients at tangent-bundle points.

All tensor assembly is numeric: the metric, the force and their exact
derivatives come from fused compiled evaluators, each tensor is built
once per call, and every contraction is a batched matrix product (``@``
over the leading batch axis) in a fixed order.  All differentiation
behind it is exact and symbolic, performed once on the metric and force
component expressions.  Batched methods carry a leading axis ``B`` so
front simulations evaluate all directions in one call.  There is no
separate single-point API: ``at_point`` evaluates any batched function at
one point by adding and stripping the batch axis, and
``force_tensors`` builds every metric and force tensor the deviation and
normality formulas share in one place.

Index conventions (fixed, and pinned by the dynamics cross-checks):

* ``gamma[k, i, j]``   connection, upper index first, symmetric in (i, j)
* ``dgamma[s, k, i, j]`` coordinate derivative of the connection
* ``riemann[k, m, s, r] = d_s gamma[k,m,r] - d_r gamma[k,m,s]
  + sum_j (gamma[k,s,j] gamma[j,m,r] - gamma[k,r,j] gamma[j,m,s])``
* spatial/velocity gradients of a force are stored ``[i, k]`` with the
  derivative index first: ``spatial[i, k]`` is the i-th covariant
  derivative of the k-th component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exprlang
from .exprlang import Node


class GeometryError(ValueError):
    pass


class NonPositiveDefiniteError(GeometryError):
    pass


class ZeroVelocityError(GeometryError):
    pass


def coord_names(n: int) -> list[str]:
    return [f"x{k + 1}" for k in range(n)]


def velocity_names(n: int) -> list[str]:
    return [f"v{k + 1}" for k in range(n)]


@dataclass(frozen=True)
class TangentPoint:
    """A point of the tangent bundle: chart coordinates plus velocity."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.x.shape != self.v.shape or self.x.ndim != 1:
            raise GeometryError("x and v must be 1-d arrays of equal length")


def _parse(entry, names: Sequence[str]) -> Node:
    if isinstance(entry, Node):
        return entry
    return exprlang.parse(str(entry), names)


def _symmetric_slots(n: int) -> tuple[list, np.ndarray]:
    """Pairs (i, j), i <= j, and the [n, n] map from (i, j) to pair index."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    slot = np.empty((n, n), dtype=np.intp)
    for p, (i, j) in enumerate(pairs):
        slot[i, j] = slot[j, i] = p
    return pairs, slot


def _koszul(d: np.ndarray) -> np.ndarray:
    """sym[..., r, i, j] = d[..., i, r, j] + d[..., j, r, i] - d[..., r, i, j].

    Applied to dg this is twice the lowered connection; applied to ddg it
    is that combination's coordinate derivative.
    """
    a, b, c = d.ndim - 3, d.ndim - 2, d.ndim - 1
    lead = tuple(range(a))
    return d.transpose(*lead, b, a, c) + d.transpose(*lead, b, c, a) - d


class Manifold:
    """Chart of dimension n with metric components g_ij(x1..xn).

    g, dg and ddg each come from one compiled callable that evaluates
    only the unique symmetric slots (i <= j, and l <= k for ddg), sharing
    repeated subexpressions; the full tensors are gathered from those.
    """

    def __init__(self, dimension: int, metric: Sequence[Sequence]):
        if dimension < 2:
            raise GeometryError("dimension must be >= 2")
        self.dimension = n = dimension
        self.coords = coord_names(n)
        self.velocities = velocity_names(n)
        if len(metric) != n or any(len(row) != n for row in metric):
            raise GeometryError("metric must be an n x n expression array")

        g_ast = [[exprlang.simplify(_parse(metric[i][j], self.coords))
                  for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if g_ast[i][j] != g_ast[j][i]:
                    raise GeometryError(
                        f"metric not symmetric: entry ({i},{j}) differs from "
                        f"({j},{i}) after simplification")
        self.metric_ast = g_ast
        # Exact symbolic derivatives of the metric; everything downstream
        # (connection, curvature) is assembled numerically from these.
        pairs, slot = _symmetric_slots(n)
        npair = len(pairs)
        g_sym = [g_ast[i][j] for i, j in pairs]
        dg_sym = [[exprlang.differentiate(entry, self.coords[k])
                   for entry in g_sym] for k in range(n)]
        ddg_sym = [exprlang.differentiate(entry, self.coords[ell])
                   for ell, k in pairs for entry in dg_sym[k]]
        self._g_fn = exprlang.compile_fn(g_sym, self.coords)
        self._dg_fn = exprlang.compile_fn(
            [entry for row in dg_sym for entry in row], self.coords)
        self._ddg_fn = exprlang.compile_fn(ddg_sym, self.coords)
        self._g_idx = slot
        self._dg_idx = np.arange(n)[:, None, None] * npair + slot
        self._ddg_idx = slot[:, :, None, None] * npair + slot

    # -- batched evaluation (leading axis B) --------------------------------

    def _args(self, xs: np.ndarray) -> tuple:
        return tuple(xs[:, k] for k in range(self.dimension))

    def metric(self, xs: np.ndarray) -> np.ndarray:
        return self._g_fn(*self._args(xs))[:, self._g_idx]

    def metric_partials(self, xs: np.ndarray) -> np.ndarray:
        """dg[b, k, i, j] = d g_ij / d x^k."""
        return self._dg_fn(*self._args(xs))[:, self._dg_idx]

    def metric_second_partials(self, xs: np.ndarray) -> np.ndarray:
        """ddg[b, l, k, i, j] = d^2 g_ij / (d x^l d x^k)."""
        return self._ddg_fn(*self._args(xs))[:, self._ddg_idx]

    def christoffel(self, xs: np.ndarray, ginv: np.ndarray | None = None,
                    dg: np.ndarray | None = None) -> np.ndarray:
        """gamma[b, k, i, j] of the metric connection."""
        if ginv is None:
            ginv = np.linalg.inv(self.metric(xs))
        if dg is None:
            dg = self.metric_partials(xs)
        nb, n = xs.shape
        sym = _koszul(dg).reshape(nb, n, n * n)
        return (0.5 * (ginv @ sym)).reshape(nb, n, n, n)

    def christoffel_partials(self, xs: np.ndarray,
                             ginv: np.ndarray | None = None,
                             dg: np.ndarray | None = None,
                             ddg: np.ndarray | None = None,
                             gamma: np.ndarray | None = None) -> np.ndarray:
        """dgamma[b, s, k, i, j] = d gamma[k,i,j] / d x^s, exact.

        With d(g^-1) = -g^-1 (dg) g^-1 the derivative of
        gamma = g^-1 sym / 2 is g^-1 (d_s sym / 2 - d_s g gamma), built from
        the symbolic dg/ddg, so no finite differences enter the curvature.
        """
        if ginv is None:
            ginv = np.linalg.inv(self.metric(xs))
        if dg is None:
            dg = self.metric_partials(xs)
        if ddg is None:
            ddg = self.metric_second_partials(xs)
        if gamma is None:
            gamma = self.christoffel(xs, ginv=ginv, dg=dg)
        nb, n = xs.shape
        # lowered[b, r, s, ij] = d_s sym[r, ij] / 2 - d_s g[r, a] gamma[a, ij],
        # rows ordered (r, s) so that raising r is one product per row b
        dsym = _koszul(ddg).swapaxes(1, 2).reshape(nb, n * n, n * n)
        dg_rs = dg.swapaxes(1, 2).reshape(nb, n * n, n)
        lowered = 0.5 * dsym - dg_rs @ gamma.reshape(nb, n, n * n)
        raised = ginv @ lowered.reshape(nb, n, n ** 3)     # [b, k, (s, ij)]
        return raised.reshape(nb, n, n, n, n).swapaxes(1, 2)

    def riemann(self, xs: np.ndarray, gamma: np.ndarray | None = None,
                ginv: np.ndarray | None = None, dg: np.ndarray | None = None,
                ddg: np.ndarray | None = None) -> np.ndarray:
        """riemann[b, k, m, s, r], antisymmetric in (s, r)."""
        if ginv is None:
            ginv = np.linalg.inv(self.metric(xs))
        if dg is None:
            dg = self.metric_partials(xs)
        if gamma is None:
            gamma = self.christoffel(xs, ginv=ginv, dg=dg)
        dgamma = self.christoffel_partials(xs, ginv=ginv, dg=dg, ddg=ddg,
                                           gamma=gamma)
        nb, n = xs.shape
        # gg[b, k, s, m, r] = gamma[k,s,j] gamma[j,m,r]
        gg = (gamma.reshape(nb, n * n, n)
              @ gamma.reshape(nb, n, n * n)).reshape(nb, n, n, n, n)
        # half[b, k, m, s, r] = d_s gamma[k,m,r] + gamma[k,s,j] gamma[j,m,r]
        half = dgamma.transpose(0, 2, 3, 1, 4) + gg.transpose(0, 1, 3, 2, 4)
        return half - half.swapaxes(3, 4)

    def frame(self, xs: np.ndarray, vs: np.ndarray,
              g: np.ndarray | None = None):
        """speed[b], unit[b,r], unit_cov[b,i], projector[b,r,i]."""
        if g is None:
            g = self.metric(xs)
        speed2 = np.einsum('bij,bi,bj->b', g, vs, vs)
        speed = np.sqrt(speed2)
        if np.any(speed == 0.0) or not np.all(np.isfinite(speed)):
            raise ZeroVelocityError("zero or non-finite g-speed")
        unit = vs / speed[:, None]
        unit_cov = np.einsum('bij,bj->bi', g, unit)
        n = self.dimension
        proj = np.broadcast_to(np.eye(n), (xs.shape[0], n, n)).copy()
        proj -= np.einsum('br,bi->bri', unit, unit_cov)
        return speed, unit, unit_cov, proj

    # -- single-point checked interface -------------------------------------

    def check_positive_definite(self, x: np.ndarray, g: np.ndarray):
        eigs = np.linalg.eigvalsh(g)
        if eigs[0] <= 1e-10:
            raise NonPositiveDefiniteError(
                "metric not positive definite at "
                f"x={[float(t) for t in np.asarray(x)]}: "
                f"eigenvalues {[float(t) for t in eigs]}")


class ForceField:
    """Extended vector field F^k(x, v) given componentwise as expressions.

    F and the pair of Jacobians each come from one compiled callable.
    """

    def __init__(self, manifold: Manifold, components: Sequence):
        n = manifold.dimension
        if len(components) != n:
            raise GeometryError("force needs one component per dimension")
        names = manifold.coords + manifold.velocities
        self.manifold = manifold
        self.component_ast = [exprlang.simplify(_parse(c, names))
                              for c in components]
        self._f_fn = exprlang.compile_fn(self.component_ast, names)
        # entry (w, i, k): derivative of component k in direction i of
        # the coordinates (w = 0) or velocities (w = 1)
        self._jac_fn = exprlang.compile_fn(
            [exprlang.differentiate(self.component_ast[k], wrt[i])
             for wrt in (manifold.coords, manifold.velocities)
             for i in range(n) for k in range(n)], names)

    def _args(self, xs: np.ndarray, vs: np.ndarray) -> tuple:
        n = self.manifold.dimension
        return tuple(xs[:, k] for k in range(n)) + tuple(
            vs[:, k] for k in range(n))

    def components(self, xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self._f_fn(*self._args(xs, vs))

    def jacobians(self, xs: np.ndarray, vs: np.ndarray):
        """(dfdx[b,i,k], dfdv[b,i,k]) of plain partial derivatives."""
        n = self.manifold.dimension
        jac = self._jac_fn(*self._args(xs, vs)).reshape(xs.shape[0], 2, n, n)
        # dfdv is often kept (as the velocity gradient) after dfdx is
        # used; a copy lets the shared buffer go with dfdx
        return jac[:, 0], jac[:, 1].copy()


def extended_gradients(man: Manifold, force: ForceField, xs: np.ndarray,
                       vs: np.ndarray, gamma: np.ndarray | None = None,
                       f_vals: np.ndarray | None = None):
    """Batched spatial and velocity gradients of the force field.

    velocity[b,i,k] is the plain v-derivative; spatial[b,i,k] adds the
    connection correction for the vector index and the chase of the
    velocity argument along coordinate directions.
    """
    if gamma is None:
        gamma = man.christoffel(xs)
    if f_vals is None:
        f_vals = force.components(xs, vs)
    dfdx, dfdv = force.jacobians(xs, vs)
    nb, n = xs.shape
    flat = gamma.reshape(nb, n * n, n)
    gam_v = (flat @ vs[:, :, None]).reshape(nb, n, n)      # [b, j, i]
    gam_f = (flat @ f_vals[:, :, None]).reshape(nb, n, n)  # [b, k, i]
    spatial = (dfdx
               - gam_v.transpose(0, 2, 1) @ dfdv
               + gam_f.transpose(0, 2, 1))
    return spatial, dfdv


def force_tensors(man: Manifold, force: ForceField, xs: np.ndarray,
                  vs: np.ndarray) -> dict:
    """Metric and force tensors at a batch of tangent-bundle points.

    g and g^-1; the velocity v, the force F and F lowered; the spatial and
    velocity gradients of F, raw ([b, i, k], derivative index first) and
    with the vector index lowered (nabla_i F_j, tnabla_i F_j).  gamma
    enters the spatial gradient but is not kept: no consumer reads it, and
    holding it would raise the classifier's peak memory.
    """
    g = man.metric(xs)
    ginv = np.linalg.inv(g)
    gamma = man.christoffel(xs, ginv=ginv)
    f_vals = force.components(xs, vs)
    spatial, velocity = extended_gradients(man, force, xs, vs,
                                           gamma=gamma, f_vals=f_vals)
    return dict(g=g, ginv=ginv, v=vs, f=f_vals,
                f_cov=np.einsum('bij,bj->bi', g, f_vals),
                spa=spatial, vel=velocity,
                spa_cov=np.einsum('bik,bkj->bij', spatial, g),
                vel_cov=np.einsum('bik,bkj->bij', velocity, g))


def at_point(fn, *args):
    """fn evaluated at one point instead of a batch.

    Array arguments (arrays, lists and tuples) get a leading batch axis of
    length one and everything else passes through unchanged; the batch
    axis is stripped from the result, or from each entry of a tuple
    result.  ``at_point(man.christoffel, x)`` is gamma[k, i, j] at x.
    """
    out = fn(*(np.asarray(a, dtype=float)[None]
               if isinstance(a, (np.ndarray, list, tuple)) else a
               for a in args))
    if isinstance(out, tuple):
        return tuple(entry[0] for entry in out)
    return out[0]

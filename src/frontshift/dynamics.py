"""Flow equations and fixed-step integration with variation vectors.

The integrated state is kept in plain time derivatives; the variation
rate stored alongside each variation vector is its covariant rate, and
the connection terms are folded into the right-hand side on the fly.
Classic fourth-order Runge-Kutta on a uniform grid; no adaptivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (ForceField, Manifold, TangentPoint, at_point,
                       extended_gradients)


class DynamicsError(ValueError):
    pass


class IntegrationAbort(RuntimeError):
    """Non-finite state encountered; carries the partial record."""

    def __init__(self, record, node_index: int, batch_indices):
        self.record = record
        self.node_index = node_index
        self.batch_indices = [int(i) for i in batch_indices]
        super().__init__(
            f"non-finite state after node {node_index} "
            f"(batch rows {self.batch_indices})")


@dataclass(frozen=True)
class VariationState:
    """Variation vector tau and its covariant rate along the trajectory."""

    tau: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=float))
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))


@dataclass(frozen=True)
class FlowState:
    q: TangentPoint
    variations: list[VariationState] = field(default_factory=list)


@dataclass(frozen=True)
class BatchTrajectory:
    """Uniform-grid record of B trajectories with J variations each.

    Axes: times (M+1,), x/v/force (M+1, B, n), tau/rho (M+1, B, J, n).
    rho holds covariant rates of tau.  A single-trajectory record (from
    ``integrate`` or ``single_record``) is the same type without the B
    axis: x/v/force (M+1, n), tau/rho (M+1, J, n).
    """

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    tau: np.ndarray
    rho: np.ndarray
    force: np.ndarray
    step: float

    @property
    def node_count(self) -> int:
        return self.times.shape[0]


def _rhs(man: Manifold, force: ForceField, x, v, tau, rho,
         riemann_sign: float):
    """Plain time derivatives of the batched state.

    x, v: (B, n); tau, rho: (B, J, n).  riemann_sign flips the curvature
    term (debug hook for the selftest convention arbiter).

    One pass: g, g^-1, dg and gamma are built once and handed to the
    curvature and force-gradient assembly.  gamma contracted with v is
    shared by the flow and both connection terms, and the curvature term
    contracts R with v twice before the result is applied to tau.  Every
    contraction is a batched matrix product.
    """
    nb, n = x.shape
    g = man.metric(x)
    ginv = np.linalg.inv(g)
    dg = man.metric_partials(x)
    gamma = man.christoffel(x, ginv=ginv, dg=dg)
    f_vals = force.components(x, v)
    v_col = v[:, :, None]
    # gam_v[b, k, s] = gamma^k_sr v^r
    gam_v = (gamma.reshape(nb, n * n, n) @ v_col).reshape(nb, n, n)
    dx = v
    dv = f_vals - (gam_v @ v_col)[:, :, 0]
    if tau.shape[1] == 0:
        return dx, dv, np.zeros_like(tau), np.zeros_like(rho), f_vals
    riem = man.riemann(x, gamma=gamma, ginv=ginv, dg=dg)
    spatial, velocity = extended_gradients(man, force, x, v,
                                           gamma=gamma, f_vals=f_vals)
    # r_v[b, k, m, s] = R^k_msr v^r, then rvv[b, k, s] = r_v[b, k, m, s] v^m
    r_v = (riem.reshape(nb, n ** 3, n) @ v_col).reshape(nb, n, n, n)
    rvv = (r_v.swapaxes(2, 3).reshape(nb, n * n, n) @ v_col).reshape(nb, n, n)
    curv = -riemann_sign * (tau @ rvv.transpose(0, 2, 1))
    rho_rate = curv + rho @ velocity + tau @ spatial
    gam_v_t = gam_v.transpose(0, 2, 1)
    dtau = rho - tau @ gam_v_t
    drho = rho_rate - rho @ gam_v_t
    return dx, dv, dtau, drho, f_vals


def variation_rhs(man: Manifold, force: ForceField, q: TangentPoint,
                  vs: VariationState, riemann_sign: float = 1.0):
    """Covariant rates (d_t tau, d_t rho) of one variation state."""
    riem = at_point(man.riemann, q.x)
    spatial, velocity = at_point(extended_gradients, man, force, q.x, q.v)
    curv = -riemann_sign * np.einsum('kmsr,s,r,m->k',
                                     riem, vs.tau, q.v, q.v)
    drho = (curv + vs.rho @ velocity + vs.tau @ spatial)
    return vs.rho.copy(), drho


def integrate_batch(man: Manifold, force: ForceField, x0, v0, tau0, rho0,
                    t_end: float, h: float,
                    riemann_sign: float = 1.0) -> BatchTrajectory:
    """RK4 on the combined system for B trajectories at once.

    Raises IntegrationAbort with the truncated record when any state
    component becomes non-finite; nothing is clamped.
    """
    if h <= 0.0:
        raise DynamicsError("step must be positive")
    steps = int(round(t_end / h))
    if steps < 1 or abs(steps * h - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise DynamicsError("t_end must be an integer multiple of the step")
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    tau0 = np.asarray(tau0, dtype=float)
    rho0 = np.asarray(rho0, dtype=float)
    nb, n = x0.shape
    nvar = tau0.shape[1]

    times = np.arange(steps + 1) * h
    xs = np.empty((steps + 1, nb, n))
    vs = np.empty((steps + 1, nb, n))
    taus = np.empty((steps + 1, nb, nvar, n))
    rhos = np.empty((steps + 1, nb, nvar, n))
    forces = np.empty((steps + 1, nb, n))

    x, v, tau, rho = x0.copy(), v0.copy(), tau0.copy(), rho0.copy()
    with np.errstate(all='ignore'):
        xs[0], vs[0], taus[0], rhos[0] = x, v, tau, rho
        for i in range(steps):
            k1 = _rhs(man, force, x, v, tau, rho, riemann_sign)
            forces[i] = k1[4]
            k2 = _rhs(man, force,
                      x + 0.5 * h * k1[0], v + 0.5 * h * k1[1],
                      tau + 0.5 * h * k1[2], rho + 0.5 * h * k1[3],
                      riemann_sign)
            k3 = _rhs(man, force,
                      x + 0.5 * h * k2[0], v + 0.5 * h * k2[1],
                      tau + 0.5 * h * k2[2], rho + 0.5 * h * k2[3],
                      riemann_sign)
            k4 = _rhs(man, force,
                      x + h * k3[0], v + h * k3[1],
                      tau + h * k3[2], rho + h * k3[3],
                      riemann_sign)
            x = x + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            v = v + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            tau = tau + (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
            rho = rho + (h / 6.0) * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
            ok = (np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1)
                  & np.isfinite(tau).all(axis=(1, 2))
                  & np.isfinite(rho).all(axis=(1, 2)))
            if not ok.all():
                partial = BatchTrajectory(
                    times[:i + 1], xs[:i + 1], vs[:i + 1],
                    taus[:i + 1], rhos[:i + 1], forces[:i + 1], h)
                raise IntegrationAbort(partial, i, np.nonzero(~ok)[0])
            xs[i + 1], vs[i + 1] = x, v
            taus[i + 1], rhos[i + 1] = tau, rho
        forces[steps] = force.components(x, v)
    return BatchTrajectory(times, xs, vs, taus, rhos, forces, h)


def integrate(man: Manifold, force: ForceField, init: FlowState,
              t_end: float, h: float,
              riemann_sign: float = 1.0) -> BatchTrajectory:
    """Integrate one trajectory with its variations."""
    n = man.dimension
    nvar = len(init.variations)
    tau0 = np.zeros((1, nvar, n))
    rho0 = np.zeros((1, nvar, n))
    for j, vst in enumerate(init.variations):
        tau0[0, j] = vst.tau
        rho0[0, j] = vst.rho
    try:
        batch = integrate_batch(man, force, init.q.x[None, :],
                                init.q.v[None, :], tau0, rho0, t_end, h,
                                riemann_sign=riemann_sign)
    except IntegrationAbort as abort:
        abort.record = single_record(abort.record, 0)
        raise
    return single_record(batch, 0)


def single_record(batch: BatchTrajectory, row: int) -> BatchTrajectory:
    """The record of one batch row, without the batch axis."""
    return BatchTrajectory(batch.times, batch.x[:, row], batch.v[:, row],
                           batch.tau[:, row], batch.rho[:, row],
                           batch.force[:, row], batch.step)


def covariant_rate(man: Manifold, record: BatchTrajectory,
                   series: np.ndarray) -> np.ndarray:
    """Covariant time derivative of a vector series along the record.

    Central differences inside, second-order one-sided at the ends, plus
    the connection term gamma^k_rs v^r series^s per node.
    """
    series = np.asarray(series, dtype=float)
    m = record.node_count
    if m < 3:
        raise DynamicsError("record must have at least 3 nodes")
    if series.shape[0] != m:
        raise DynamicsError("series not aligned with record nodes")
    h = record.step
    deriv = np.empty_like(series)
    deriv[1:-1] = (series[2:] - series[:-2]) / (2.0 * h)
    deriv[0] = (-3.0 * series[0] + 4.0 * series[1] - series[2]) / (2.0 * h)
    deriv[-1] = (3.0 * series[-1] - 4.0 * series[-2] + series[-3]) / (2.0 * h)
    gamma = man.christoffel(record.x)
    return deriv + np.einsum('bkrs,br,bs->bk', gamma, record.v, series)


def nabla_t_force(man: Manifold, force: ForceField,
                  q: TangentPoint) -> np.ndarray:
    """Covariant rate of the force along the flow through q (chain rule)."""
    spatial, velocity = at_point(extended_gradients, man, force, q.x, q.v)
    f_val = at_point(force.components, q.x, q.v)
    return q.v @ spatial + f_val @ velocity

"""Flow equations and fixed-step integration with variation vectors.

The integrated state is kept in plain time derivatives; the variation
rate stored alongside each variation vector is its covariant rate, and
the connection terms are folded into the right-hand side on the fly.
Classic fourth-order Runge-Kutta on a uniform grid; no adaptivity.

Each RK4 stage makes one generated call (``ForceField.jet``: the metric,
its inverse, the Koszul symbol of its first partials, the force, both
force Jacobians and the metric's second partials contracted with v
twice, all views of the one array the call fills), with or without
variations.  The connection enters only as gamma contracted with v and
F, and the curvature only as the Jacobi operator R(., v)v
(``Manifold.riemann`` with the velocity passed, once per stage), so no
stage builds gamma, its derivative, the metric's second partials or the
curvature tensor.  ``integrate_batch`` is the one integrator: a single
trajectory is a batch of one, and the record's consumers (the deviation
series, the rank test, the front export) take the whole batch.

The integrator packs each row's x, v, tau and rho into one state row of
2n + 2Jn numbers, so each stage input, the step's combination and the
finite check are one array operation for the whole batch however many
quantities it carries; ``_rhs`` takes the quantities one by one, as
views of that row, and writes the four rates into views of a stage
rate row.  The elementwise arithmetic is the same as on four separate
arrays, bit for bit.  The stored nodes are one (M+1, B, 2n + 2Jn)
history array, and the record's x, v, tau and rho are views of it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import ForceField, Manifold, extended_gradients, spray


class DynamicsError(ValueError):
    pass


class IntegrationAbort(RuntimeError):
    """Non-finite state encountered; carries the partial record and the
    names of the state quantities (among x, v, tau, rho) that went
    non-finite."""

    def __init__(self, record, node_index: int, batch_indices, quantities):
        self.record = record
        self.node_index = node_index
        self.batch_indices = [int(i) for i in batch_indices]
        self.quantities = list(quantities)
        super().__init__(
            f"non-finite state ({', '.join(self.quantities)}) after node "
            f"{node_index} (batch rows {self.batch_indices})")


class BatchTrajectory(NamedTuple):
    """Uniform-grid record of B trajectories with J variations each.

    Axes: times (M+1,), x/v (M+1, B, n), tau/rho (M+1, B, J, n).  rho
    holds covariant rates of tau.  From ``integrate_batch``, x, v, tau and
    rho are views of one packed history array.  The same type without
    the B axis, x/v (M+1, n) and tau/rho (M+1, J, n), is one trajectory;
    the deviation layer takes either.
    """

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    tau: np.ndarray
    rho: np.ndarray
    step: float

    @property
    def node_count(self) -> int:
        return self.times.shape[0]


def _rhs(man: Manifold, force: ForceField, x, v, tau, rho,
         riemann_sign: float, out=None):
    """Plain time derivatives of the batched state: (dx, dv, dtau, drho).

    x, v: (B, n); tau, rho: (B, J, n).  riemann_sign flips the curvature
    term (debug hook for the selftest convention arbiter).  out, when
    given, is the four rate arrays (dx, dv, dtau, drho) to write into,
    e.g. views of a packed state row; they are returned.

    One generated call (``force.jet``), which gives g^-1 with the rest;
    with J = 0 it returns after dv.  gamma enters only through its
    products with v and F (``spray``, from the jet's Koszul symbol),
    shared by the flow, the force gradient, the curvature and both
    connection terms, and the curvature only as K = R(., v)v from
    ``man.riemann``, which takes the jet's ddg contracted with v twice.
    With (gamma v)^T[i, k] = gamma^k_ij v^j, the variation rates are
    three products per row:

        dtau = rho - tau (gamma v)^T
        drho = tau (spatial - riemann_sign K^T) + rho (dF/dv - (gamma v)^T)
    """
    if out is None:
        out = tuple(np.empty_like(a) for a in (v, v, tau, rho))
    dx, dv, dtau, drho = out
    _, ginv, koszul, f_vals, dfdx, dfdv, ddg_vv = force.jet(x, v)
    along = spray(ginv, koszul, v, f_vals)
    dx[...] = v
    np.subtract(f_vals, along.gvv, out=dv)
    if tau.shape[1] == 0:
        return out
    jacobi = man.riemann(x, ginv=ginv, vs=v, along=along, ddg_vv=ddg_vv)
    spatial, velocity = extended_gradients(man, force, x, v,
                                           jac=(dfdx, dfdv), along=along)
    np.subtract(rho, tau @ along.gam_v, out=dtau)
    np.add(tau @ (spatial - riemann_sign * jacobi.swapaxes(1, 2)),
           rho @ (velocity - along.gam_v), out=drho)
    return out


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
    nb, n = x0.shape
    tau0 = np.asarray(tau0, dtype=float)
    nvar = tau0.shape[1]
    # each trajectory's state row is [x, v, tau, rho], split at these ends
    ends = np.cumsum([n, n, nvar * n, nvar * n])
    names = ("x", "v", "tau", "rho")

    def split(y):
        x, v, tau, rho = np.split(y, ends[:-1], axis=-1)
        lead = y.shape[:-1]
        return (x, v, tau.reshape(lead + (nvar, n)),
                rho.reshape(lead + (nvar, n)))

    times = np.arange(steps + 1) * h
    history = np.empty((steps + 1, nb, ends[-1]))
    # the state, the stage input and the four stage rates, with views of
    # each made once
    state, stage, k1, k2, k3, k4 = np.empty((6, nb, ends[-1]))
    at_state, at_stage = split(state), split(stage)
    r1, r2, r3, r4 = split(k1), split(k2), split(k3), split(k4)
    for part, value in zip(at_state, (x0, v0, tau0, rho0)):
        part[...] = value
    history[0] = state
    with np.errstate(all='ignore'):
        for i in range(steps):
            _rhs(man, force, *at_state, riemann_sign, out=r1)
            np.add(state, 0.5 * h * k1, out=stage)
            _rhs(man, force, *at_stage, riemann_sign, out=r2)
            np.add(state, 0.5 * h * k2, out=stage)
            _rhs(man, force, *at_stage, riemann_sign, out=r3)
            np.add(state, h * k3, out=stage)
            _rhs(man, force, *at_stage, riemann_sign, out=r4)
            state += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ok = np.isfinite(state).all(axis=1)
            if not ok.all():
                partial = BatchTrajectory(times[:i + 1],
                                          *split(history[:i + 1]), h)
                bad = [name for name, part in zip(names, at_state)
                       if not np.isfinite(part).all()]
                raise IntegrationAbort(partial, i, np.nonzero(~ok)[0], bad)
            history[i + 1] = state
    return BatchTrajectory(times, *split(history), h)

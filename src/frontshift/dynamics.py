"""Flow equations and fixed-step integration with variation vectors.

The integrated state is kept in plain time derivatives; the variation
rate stored alongside each variation vector is its covariant rate, and
the connection terms are folded into the right-hand side on the fly.
Classic fourth-order Runge-Kutta on a uniform grid; no adaptivity.

The system is block-triangular: the flow (x, v) never reads the
variations (tau, rho), which are linear with coefficients that depend
only on the flow's stage points.  So ``integrate_batch`` takes a block
of steps (at most ``BLOCK_POINTS`` stage points, or one step) at a time:

1. the flow's RK4, entry-first, (2n, B) rows: each stage forms its
   point, makes one ``ForceField.flow_jet`` call on its coordinate
   rows, which writes the acceleration a = F - gamma(v, v) into the
   stage rate's rows, and copies v beside it, all in a workspace
   allocated once per integration;
2. the coefficients at the block's stage points, batch-last: one
   ``ForceField.variation_jet`` record (the force Jacobians, S, g^-1,
   the Koszul symbol and the connection contracted with v and F), and
   ``Manifold.riemann(record=)`` (K = R(., v)v) and
   ``extended_gradients(record=)`` over its views, stored through one
   transposed view as a batch-first rate matrix per point (at most
   ``BLOCK_POINTS`` points a call);
3. the variations' RK4 on the rows [tau_j, rho_j], (B, J, 2n): one
   batched product with the rate matrices per stage, and the finite
   check after each step.

No stage builds gamma, its derivative or the curvature tensor, and none
inverts a matrix numerically: g^-1 is generated in every dimension.
The flow stops at its first non-finite node, so no call sees a point
past the step that aborts.  ``integration_work`` counts the calls an
integration makes, for the run report.  The record's x, v, tau and rho
are views of one (M+1, B, 2n + 2Jn) history array of rows [x, v, tau,
rho], written by one transposed store per step of each half, bit for
bit the record of a stage-by-stage RK4 on the whole row
(``tests/oracles.py``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import ForceField, Manifold, extended_gradients


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


# Stage points per block (as many whole steps of 4B points as fit, at
# least one) and per coefficient call.
BLOCK_POINTS = 2048


def _block_steps(nb: int, steps: int) -> int:
    """The steps of a block of nb rows, in an integration of steps."""
    return max(1, min(steps, BLOCK_POINTS // (4 * nb)))


def integration_work(nb: int, nvar: int, steps: int) -> dict:
    """The calls ``integrate_batch`` makes over steps steps of nb rows
    with nvar variations each: flow_calls, one ``ForceField.flow_jet`` per
    stage; coefficient_calls, each one ``ForceField.variation_jet``, one
    ``Manifold.riemann(record=)`` and one ``extended_gradients`` (none
    without variations); and coefficient_points, the stage points those
    evaluate.  It follows ``_Stages.flow``: a call at most every
    BLOCK_POINTS pending points, and one more at each block's end."""
    calls = 0
    if nvar:
        block = _block_steps(nb, steps)
        for first in range(0, steps, block):
            pending = 0
            for _ in range(4 * min(block, steps - first)):
                pending += nb
                if pending >= BLOCK_POINTS:
                    calls += -(-pending // BLOCK_POINTS)
                    pending = 0
            calls += -(-pending // BLOCK_POINTS)
    return {"flow_calls": 4 * steps, "coefficient_calls": calls,
            "coefficient_points": 4 * nb * steps if nvar else 0}


class _Stages:
    """The RK4 stages of one integration over a workspace sized by its
    block of stage points (ordered by step, stage, batch row), never by
    its steps: the flow's state y, stage rates k[s] and pending points,
    (2n, B) rows; the points' variation records; and rates[p], the
    matrix the rows [tau_j, rho_j] at point p are multiplied by."""

    def __init__(self, man: Manifold, force: ForceField, y0: np.ndarray,
                 nvar: int, size: int, riemann_sign: float):
        nb, n = len(y0), man.dimension
        self.man, self.force, self.sign = man, force, riemann_sign
        self.shape = (nb, nvar, n)
        self.y = y0[:, :2 * n].T.copy()
        # [tau_j, rho_j] per variation, always a copy: with one variation
        # the swapped axes are contiguous, and a reshape would be a view
        tau_rho = y0[:, 2 * n:].reshape(nb, 2, nvar, n).swapaxes(1, 2)
        self.vy = tau_rho.copy().reshape(nb, nvar, 2 * n)
        # fewer than BLOCK_POINTS are pending before a stage adds its nb
        pending = min(size, BLOCK_POINTS + nb - 1)
        self.points = np.empty((2 * n, pending))
        self.jets = np.empty((force.variation_record.size,
                              min(pending, BLOCK_POINTS)))
        self.rates = np.empty((size, 2 * n, 2 * n))
        self.rates[:, n:, :n] = np.eye(n)
        self.k = np.empty((4, 2 * n, nb))
        self.vk = np.empty((4, nb, nvar, 2 * n))
        self.vstage = np.empty((nb, nvar, 2 * n))

    def flow(self, history, first: int, last: int, h: float) -> int:
        """The flow's RK4 over the steps first..last, and the coefficients
        once BLOCK_POINTS points are pending and at the end; returns the
        node it stopped at, the first non-finite one or last."""
        nb, nvar, n = self.shape
        y, done = self.y, 0
        for i in range(first, last):
            for s, k in enumerate(self.k):
                a = (4 * (i - first) + s) * nb - done
                b = a + nb
                point = self.points[:, a:b]
                if s == 0:
                    point[...] = y
                else:
                    np.add(y, (h if s == 3 else 0.5 * h) * self.k[s - 1],
                           out=point)
                self.force.flow_jet(point[:n], point[n:], out=k[n:])
                k[:n] = point[n:]
                if b >= BLOCK_POINTS:
                    if nvar:
                        self.coefficients(done, b)
                    done += b
            k1, k2, k3, k4 = self.k
            y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            history[i + 1, :, :2 * n] = y.T
            if not np.isfinite(y).all():
                last = i + 1
                break
        if nvar:
            self.coefficients(done, 4 * nb * (last - first) - done)
        return last

    def coefficients(self, offset: int, count: int) -> None:
        """The rate matrices [[-(gamma v)^T, spatial - riemann_sign K^T],
        [I, dF/dv - (gamma v)^T]] at the count pending points, the
        block's from offset on, formed batch-last and stored through one
        transposed view per block; the I block is the workspace's own."""
        man, force, n = self.man, self.force, self.shape[2]
        rates = self.rates[offset:offset + count].transpose(1, 2, 0)
        for a in range(0, count, BLOCK_POINTS):
            b = min(count, a + BLOCK_POINTS)
            rate = rates[..., a:b]
            xs, vs = self.points[:n, a:b], self.points[n:, a:b]
            jet = force.variation_jet(xs, vs, out=self.jets[:, :b - a])
            jacobi = man.riemann(xs.T, record=jet)
            spatial, dfdv = extended_gradients(man, force, xs.T, vs.T,
                                               record=jet)
            np.negative(jet["gam_v"], out=rate[:n, :n])
            np.subtract(spatial, self.sign * jacobi.swapaxes(0, 1),
                        out=rate[:n, n:])
            np.subtract(dfdv, jet["gam_v"], out=rate[n:, n:])

    def variations(self, history, i: int, step: int, h: float) -> None:
        """The variations' RK4 step from node i, the block's step
        ``step``: each stage is one product of the rows [tau_j, rho_j]
        with the rate matrices, dtau = rho - tau (gamma v)^T and drho =
        tau (spatial - riemann_sign K^T) + rho (dF/dv - (gamma v)^T)."""
        nb, nvar, n = self.shape
        y, vk = self.vy, self.vk
        for s in range(4):
            p = (4 * step + s) * nb
            if s:
                np.add(y, (h if s == 3 else 0.5 * h) * vk[s - 1],
                       out=self.vstage)
            np.matmul(self.vstage if s else y, self.rates[p:p + nb],
                      out=vk[s])
        k1, k2, k3, k4 = vk
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tau_rho = history[i + 1, :, 2 * n:].reshape(nb, 2, nvar, n)
        tau_rho[...] = y.reshape(nb, nvar, 2, n).swapaxes(1, 2)


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
    if nb == 0:
        raise DynamicsError("no trajectories to integrate")
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
    for part, value in zip(split(history[0]), (x0, v0, tau0, rho0)):
        part[...] = value
    block = _block_steps(nb, steps)
    stages = _Stages(man, force, history[0], nvar, 4 * nb * block,
                     riemann_sign)
    with np.errstate(all='ignore'):
        for first in range(0, steps, block):
            last = stages.flow(history, first, min(steps, first + block), h)
            for i in range(first, last):
                if nvar:
                    stages.variations(history, i, i - first, h)
                ok = np.isfinite(history[i + 1]).all(axis=1)
                if not ok.all():
                    partial = BatchTrajectory(times[:i + 1],
                                              *split(history[:i + 1]), h)
                    bad = [name for name, part in
                           zip(names, split(history[i + 1]))
                           if not np.isfinite(part).all()]
                    raise IntegrationAbort(partial, i, np.nonzero(~ok)[0],
                                           bad)
    return BatchTrajectory(times, *split(history), h)

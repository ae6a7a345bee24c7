"""Front construction: blow-up of a point, shift of a hypersurface.

A blow-up fans trajectories out of one point in all grid directions of
the unit sphere of the tangent space there; a shift launches them from a
parametrized hypersurface along its normals.  Both produce the same
record shape: batched trajectories with one variation per surface
parameter, plus the deviation and normalized-deviation series that
measure how far the moving fronts are from orthogonality.

Each front is described by one record, ``BlowupConfig`` or
``HypersurfaceSpec``, which is also its section of a scenario file, and
integrated by ``simulate_blowup`` or ``simulate_shift`` with the same
arguments (man, force, spec, t_end, h).  A launch speed nu that is not
positive and finite on the grid, or whose u-gradient is not finite, is a
``BlowupError``.

The sphere grid is one hyperspherical recursion in every dimension, as
whole arrays with the direction axis last, and the record's deviation
phi = g(tau, v) is ``deviation.phi`` at every node, batch-last.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import deviation, exprlang
from .dynamics import BatchTrajectory, IntegrationAbort, integrate_batch
from .geometry import (ForceField, Manifold, at_point,
                       check_positive_definite, dot_last, matvec_last,
                       vecmat_last)
from .report import FrontTable

TAU_NORM_FLOOR = 1e-12


class BlowupError(ValueError):
    pass


class BlowupConfig(NamedTuple):
    """Blow-up of the point p0 with launch speed nu(u) over a sphere grid
    of the given resolution; the ``blowup`` section of a scenario."""

    p0: Sequence[float]
    nu: float | str = 1.0
    resolution: int = 64


class HypersurfaceSpec(NamedTuple):
    """Parametric hypersurface x^k(u) with launch speed nu(u); the
    ``shift`` section of a scenario."""

    surface: Sequence          # n expressions in u1..u{n-1}
    box: Sequence              # (n-1) pairs [lo, hi)
    nu: float | str = 1.0
    resolution: int = 64
    orient_flip: bool = False


class FrontRecord(NamedTuple):
    """Record of a blow-up or shift with deviation series attached."""

    u: np.ndarray              # (B, n-1) surface/sphere parameters
    batch: BatchTrajectory
    phi: np.ndarray            # (M+1, B, n-1)
    psi: np.ndarray            # (M+1, B, n-1), nan where |tau| ~ 0

    @property
    def times(self) -> np.ndarray:
        return self.batch.times


class OrthogonalityReport(NamedTuple):
    times: np.ndarray
    max_psi_per_time: np.ndarray   # nan where no defined entries
    mean_psi_per_time: np.ndarray
    max_psi: float
    mean_psi: float
    undefined_count: int
    inconclusive: bool


def sphere_grid(man: Manifold, p0, resolution: int):
    """Directions covering the g(p0)-unit sphere of the tangent space:
    the arrays (u, directions, tangents) of shapes (B, n-1), (B, n) and
    (B, n-1, n), B = resolution^(n-1), holding each direction's sphere
    parameters, its g(p0)-unit vector n(q) and its tangents K_a(q).

    One hyperspherical recursion in every dimension: s(phi) =
    (cos phi, sin phi), s(theta, rest) = (sin theta s(rest), cos theta),
    with u = (theta_1, ..., theta_{n-2}, phi) meshed row-major, the
    first polar angle outermost.  Every polar angle excludes shrinking
    caps where the inner tangents degenerate.  Built through a
    g(p0)-orthonormal frame (Cholesky factor of g(p0)), so directions
    are exactly g-unit and tangents exactly g-orthogonal to them.
    """
    if resolution < 8:
        raise BlowupError("resolution must be at least 8")
    n = man.dimension
    p0 = np.asarray(p0, dtype=float)
    g0 = at_point(man.metric, p0)
    check_positive_definite(p0, g0)
    frame = np.linalg.inv(np.linalg.cholesky(g0).T)

    delta = np.pi / (4.0 * resolution)
    polar = delta + (np.pi - 2.0 * delta) * np.arange(resolution) / (
        resolution - 1)
    ph = 2.0 * np.pi * np.arange(resolution) / resolution
    mesh = np.meshgrid(*[polar] * (n - 2), ph, indexing='ij')
    u = np.stack([axis.ravel() for axis in mesh], axis=-1)
    # s_hat[k, b] and its tangents ds[k, a, b]
    s_hat = np.stack([np.cos(u[:, -1]), np.sin(u[:, -1])])
    ds = np.stack([-s_hat[1], s_hat[0]])[:, None]
    for k in reversed(range(n - 2)):
        st, ct = np.sin(u[:, k]), np.cos(u[:, k])
        d_theta = np.concatenate([ct * s_hat, -st[None]])[:, None]
        lifted = np.concatenate([st * ds, np.zeros_like(ds[:1])])
        ds = np.concatenate([d_theta, lifted], axis=1)
        s_hat = np.concatenate([st * s_hat, ct[None]])
    return (u, matvec_last(frame[:, :, None], s_hat).T,
            matvec_last(frame[:, :, None, None], ds).T)


def _nu_function(nu, n_params: int):
    """Compile nu once: a callable u -> (per-row nu values, exact
    u-gradient, or None for a constant nu)."""
    if isinstance(nu, (int, float)):
        if nu <= 0.0:
            raise BlowupError("constant nu must be positive")
        return lambda u: (float(nu) * np.ones(u.shape[0]), None)
    names = [f"u{k + 1}" for k in range(n_params)]
    ast = exprlang.parse(str(nu), names)
    fn = exprlang.compile_fn(
        [ast] + [exprlang.differentiate(ast, name) for name in names], names)

    def values(u: np.ndarray):
        out = fn(*(u[:, k] for k in range(n_params)))
        return out[0], out[1:].T
    return values


def _launch_speeds(nu_fn, u: np.ndarray, where: str):
    """nu_fn(u), checked: nu positive and finite and its u-gradient finite
    at every launch point.  nan and inf pass a sign test, and the
    variations' launch rates need the gradient, so either would otherwise
    surface later as an integration abort.  The check replaces numpy's
    floating-point warnings."""
    with np.errstate(divide='ignore', invalid='ignore', over='ignore'):
        nu_vals, nu_grads = nu_fn(u)
    if not (np.isfinite(nu_vals).all() and (nu_vals > 0.0).all()):
        raise BlowupError(f"nu must be positive and finite on {where}")
    if nu_grads is not None and not np.isfinite(nu_grads).all():
        raise BlowupError(f"the u-gradient of nu must be finite on {where}")
    return nu_vals, nu_grads


def simulate_blowup(man: Manifold, force: ForceField, spec: BlowupConfig,
                    t_end: float, h: float) -> FrontRecord:
    """Integrate the blow-up of spec.p0 over the sphere grid.

    Variations start at zero with covariant rate nu0 * K_a for constant
    nu, and d(nu n)/du^a when nu varies over the sphere.
    """
    u, dirs, tangents = sphere_grid(man, spec.p0, spec.resolution)
    nb, n = dirs.shape
    nu_vals, nu_grads = _launch_speeds(_nu_function(spec.nu, n - 1), u,
                                       "the whole sphere grid")

    p0 = np.asarray(spec.p0, dtype=float)
    x0 = np.broadcast_to(p0, (nb, n)).copy()
    v0 = nu_vals[:, None] * dirs
    tau0 = np.zeros((nb, n - 1, n))
    if nu_grads is None:
        rho0 = nu_vals[:, None, None] * tangents
    else:
        rho0 = (nu_grads[:, :, None] * dirs[:, None, :]
                + nu_vals[:, None, None] * tangents)
    return _integrate_front(man, force, u, x0, v0, tau0, rho0, t_end, h)


def surface_grid(hs: HypersurfaceSpec, n_params: int) -> np.ndarray:
    """Right-open per-axis grid over the parameter box, row-major."""
    box = np.asarray(hs.box, dtype=float)
    if box.shape != (n_params, 2):
        raise BlowupError("parameter box needs [lo, hi] per parameter")
    axes = [box[a, 0] + (box[a, 1] - box[a, 0])
            * np.arange(hs.resolution) / hs.resolution
            for a in range(n_params)]
    mesh = np.meshgrid(*axes, indexing='ij')
    return np.stack([m.ravel() for m in mesh], axis=1)


def _surface_map(n: int, hs: HypersurfaceSpec):
    """Compile the surface map once: a callable u -> (points x(u), exact
    tangents dx/du[b, a, k])."""
    n_params = n - 1
    names = [f"u{k + 1}" for k in range(n_params)]
    asts = [exprlang.simplify(exprlang.parse(str(c), names))
            if not isinstance(c, exprlang.Node) else c for c in hs.surface]
    if len(asts) != n:
        raise BlowupError("surface map needs one expression per coordinate")
    fn = exprlang.compile_fn(
        asts + [exprlang.differentiate(asts[k], names[a])
                for a in range(n_params) for k in range(n)], names)

    def points_and_tangents(u: np.ndarray):
        out = fn(*(u[:, k] for k in range(n_params))).T.copy()
        return out[:, :n], out[:, n:].reshape(u.shape[0], n_params, n)
    return points_and_tangents


def _surface_frames(man: Manifold, surface, u: np.ndarray,
                    orient_flip: bool, where: str = "the surface grid"):
    """Points, exact tangents, and oriented g-unit normals at u."""
    with np.errstate(divide='ignore', invalid='ignore', over='ignore'):
        x, tangents = surface(u)
    undefined = ~(np.isfinite(x).all(axis=1)
                  & np.isfinite(tangents).all(axis=(1, 2)))
    if np.any(undefined):
        raise BlowupError(
            f"the surface map and its tangents must be finite on {where}; "
            f"they are not at rows {np.nonzero(undefined)[0].tolist()[:8]}")
    sv = np.linalg.svd(tangents, compute_uv=False)
    degenerate = sv[:, -1] <= 1e-10 * np.maximum(sv[:, 0], 1e-300)
    if np.any(degenerate):
        raise BlowupError(
            f"surface map has degenerate Jacobian at grid rows "
            f"{np.nonzero(degenerate)[0].tolist()[:8]}")

    rows = man.metric_rows(x.T)
    lowered = np.stack(list(man.lower_rows(rows, tangents.T)))   # [i, a, b]
    _, _, vt = np.linalg.svd(lowered.T)
    normal = vt[:, -1, :]
    normal = normal / man.g_norm_rows(rows, normal.T)[:, None]
    # Orientation: (tangents..., normal) positively oriented, optional flip.
    basis = np.concatenate([tangents, normal[:, None, :]], axis=1)
    sign = np.sign(np.linalg.det(np.swapaxes(basis, 1, 2)))
    sign = np.where(sign == 0.0, 1.0, sign)
    if orient_flip:
        sign = -sign
    return x, tangents, normal * sign[:, None]


def simulate_shift(man: Manifold, force: ForceField, hs: HypersurfaceSpec,
                   t_end: float, h: float) -> FrontRecord:
    """Integrate the shift of a hypersurface along its oriented normals.

    Variations start at the exact coordinate tangents; their covariant
    rates are the covariant u-derivatives of the launch field nu(u)n(u),
    obtained by central differencing plus the connection correction
    gamma(K_a, v0), the gam_v of ``ForceField.first_order_jet``.
    The surface map, nu and their u-derivatives are compiled once.  The
    differences evaluate nu and the surface just off the grid, so launch
    rates that come out non-finite there are a ``BlowupError`` too.
    """
    n = man.dimension
    n_params = n - 1
    u = surface_grid(hs, n_params)
    surface = _surface_map(n, hs)
    nu_fn = _nu_function(hs.nu, n_params)
    x0, tangents, normal = _surface_frames(man, surface, u, hs.orient_flip)
    nu_vals, _ = _launch_speeds(nu_fn, u, "the surface grid")
    v0 = nu_vals[:, None] * normal

    box = np.asarray(hs.box, dtype=float)
    # launch term rho0[b, a, k] = gamma^k_rs K_a^r v0^s; differences added
    gam_v = force.first_order_jet(x0.T, v0.T)["gam_v"]
    rho0 = vecmat_last(tangents.T, gam_v[:, :, None]).T

    def launch_field(params, where):
        _, _, normals = _surface_frames(man, surface, params, hs.orient_flip,
                                        where)
        with np.errstate(divide='ignore', invalid='ignore', over='ignore'):
            nus, _ = nu_fn(params)
        return nus[:, None] * normals

    for a in range(n_params):
        delta = 1e-6 * max(1.0, abs(box[a, 1] - box[a, 0]))
        where = f"the surface grid shifted by {delta:g} along u{a + 1}"
        up, down = u.copy(), u.copy()
        up[:, a] += delta
        down[:, a] -= delta
        rho0[:, a] += (launch_field(up, where)
                       - launch_field(down, where)) / (2.0 * delta)
    if not np.isfinite(rho0).all():
        raise BlowupError(
            "the launch rates must be finite on the surface grid; they "
            "difference nu and the surface map just off it")
    return _integrate_front(man, force, u, x0, v0, tangents.copy(), rho0,
                            t_end, h)


def _integrate_front(man: Manifold, force: ForceField, u: np.ndarray,
                     x0, v0, tau0, rho0, t_end: float,
                     h: float) -> FrontRecord:
    """Integrate the launched front and attach its deviation series.

    An IntegrationAbort is re-raised carrying the partial FrontRecord.
    """
    try:
        batch = integrate_batch(man, force, x0, v0, tau0, rho0, t_end, h)
    except IntegrationAbort as abort:
        abort.record = _attach_series(man, u, abort.record)
        raise
    return _attach_series(man, u, batch)


def _attach_series(man: Manifold, u: np.ndarray,
                   batch: BatchTrajectory) -> FrontRecord:
    """phi and psi of the batch from the metric's unique-entry rows at its
    nodes: x, v and each variation as [k, m, b] views of the record, one
    variation at a time, since its components lie side by side there."""
    x, v = np.moveaxis(batch.x, -1, 0), np.moveaxis(batch.v, -1, 0)
    taus = np.moveaxis(batch.tau, (-1, -2), (1, 0))     # [j][k, m, b]
    rows = man.metric_rows(x)
    v_cov = list(man.lower_rows(rows, v))
    speed = np.sqrt(dot_last(v, v_cov))
    phi = np.stack([deviation.phi(v_cov, tau) for tau in taus], axis=-1)
    del v_cov
    tau_norm = np.stack([man.g_norm_rows(rows, tau) for tau in taus],
                        axis=-1)
    del rows
    with np.errstate(invalid='ignore', divide='ignore'):
        psi = np.where(tau_norm > TAU_NORM_FLOOR,
                       phi / (speed[..., None] * tau_norm), np.nan)
    return FrontRecord(u, batch, phi, psi)


def orthogonality_report(record: FrontRecord) -> OrthogonalityReport:
    """Aggregate |psi| over directions and times, skipping undefined nodes."""
    if record.batch.node_count == 0:
        raise BlowupError("empty record")
    apsi = np.abs(record.psi)
    defined = np.isfinite(apsi)
    undefined = int((~defined).sum())
    flat = apsi.reshape(apsi.shape[0], -1)
    has_any = np.isfinite(flat).any(axis=1)
    max_per_t = np.full(flat.shape[0], np.nan)
    mean_per_t = np.full(flat.shape[0], np.nan)
    rows = np.nonzero(has_any)[0]
    if rows.size:
        max_per_t[rows] = np.nanmax(flat[rows], axis=1)
        mean_per_t[rows] = np.nanmean(flat[rows], axis=1)
    if not defined.any():
        return OrthogonalityReport(record.times, max_per_t, mean_per_t,
                                   float('nan'), float('nan'),
                                   undefined, True)
    return OrthogonalityReport(record.times, max_per_t, mean_per_t,
                               float(apsi[defined].max()),
                               float(apsi[defined].mean()),
                               undefined, False)


def initial_slopes(record: FrontRecord) -> np.ndarray:
    """Measured lim phi/t per direction and variation, Richardson on the
    first two interior nodes.  Nonzero exactly when the launch speed
    varies over the initial front."""
    if record.batch.node_count < 3:
        raise BlowupError("record too short for slope measurement")
    t1, t2 = record.times[1], record.times[2]
    d1 = record.phi[1] / t1
    d2 = record.phi[2] / t2
    return 2.0 * d1 - d2


def front_header(dimension: int) -> list[str]:
    n = dimension
    cols = ["t", "dir_index"] + [f"u{a + 1}" for a in range(n - 1)]
    cols += [f"x{k + 1}" for k in range(n)]
    cols += [f"v{k + 1}" for k in range(n)]
    cols += [f"tau{j + 1}_{k + 1}" for j in range(n - 1) for k in range(n)]
    cols += [f"phi_{j + 1}" for j in range(n - 1)]
    cols += [f"psi_{j + 1}" for j in range(n - 1)]
    return cols


def export_front(record: FrontRecord, output_every: int = 1):
    """(header, ``report.FrontTable``) of the front, time-major: lead
    (dir_index, u) per direction, body (x, v, tau, phi, psi) as views."""
    if output_every < 1:
        raise BlowupError("output_every must be >= 1")
    batch = record.batch
    n = batch.x.shape[-1]
    nodes = slice(0, batch.node_count, output_every)
    tau = batch.tau[nodes]
    lead = np.column_stack([np.arange(len(record.u), dtype=float), record.u])
    body = (batch.x[nodes], batch.v[nodes],
            tau.reshape(tau.shape[:2] + ((n - 1) * n,)),
            record.phi[nodes], record.psi[nodes])
    return front_header(n), FrontTable(record.times[nodes], lead, body)

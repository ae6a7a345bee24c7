"""Front construction: blow-up of a point, shift of a hypersurface.

A blow-up fans trajectories out of one point in all grid directions of
the unit sphere of the tangent space there; a shift launches them from a
parametrized hypersurface along its normals.  Both produce the same
record shape: batched trajectories with one variation per surface
parameter, plus the deviation and normalized-deviation series that
measure how far the moving fronts are from orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exprlang
from .dynamics import BatchTrajectory, IntegrationAbort, integrate_batch
from .geometry import ForceField, Manifold, at_point

TAU_NORM_FLOOR = 1e-12


class BlowupError(ValueError):
    pass


@dataclass(frozen=True)
class SphereSample:
    """One grid direction: sphere parameters, unit vector, tangents."""

    u: np.ndarray            # (n-1,)
    direction: np.ndarray    # n(q), g(p0)-unit
    tangents: np.ndarray     # K_a(q), (n-1, n)


@dataclass(frozen=True)
class BlowupConfig:
    p0: Sequence[float]
    nu: float | str
    resolution: int
    t_end: float
    step: float


@dataclass(frozen=True)
class HypersurfaceSpec:
    """Parametric hypersurface x^k(u) with launch speed nu(u)."""

    chart_map: Sequence        # n expressions in u1..u{n-1}
    box: Sequence              # (n-1) pairs [lo, hi)
    resolution: int
    nu: float | str
    orient_flip: bool = False


@dataclass(frozen=True)
class FrontRecord:
    """Record of a blow-up or shift with deviation series attached."""

    kind: str                  # "blowup" or "shift"
    man: Manifold
    force: ForceField
    u: np.ndarray              # (B, n-1) surface/sphere parameters
    origin: np.ndarray         # (B, n) points at t=0
    launch_speed: np.ndarray   # (B,) nu values
    batch: BatchTrajectory
    phi: np.ndarray            # (M+1, B, n-1)
    psi: np.ndarray            # (M+1, B, n-1), nan where |tau| ~ 0
    speed: np.ndarray          # (M+1, B)
    tau_norm: np.ndarray       # (M+1, B, n-1)

    @property
    def times(self) -> np.ndarray:
        return self.batch.times


@dataclass(frozen=True)
class FrontSample:
    t: float
    u: np.ndarray
    x: np.ndarray
    v: np.ndarray
    tau: np.ndarray
    rho: np.ndarray
    phi: np.ndarray
    psi: np.ndarray


@dataclass(frozen=True)
class OrthogonalityReport:
    times: np.ndarray
    max_psi_per_time: np.ndarray   # nan where no defined entries
    mean_psi_per_time: np.ndarray
    max_psi: float
    mean_psi: float
    undefined_count: int
    inconclusive: bool


@dataclass(frozen=True)
class TaylorReport:
    """Remainders of the launch expansions at t = h, 2h, 4h.

    Ratios r(2h)/r(h) and r(4h)/r(2h) track the remainder order: about 4
    for the position and variation fits (quadratic remainder), about 2
    for the velocity fit (linear remainder).  Exact fits report nan.
    """

    x_remainder: np.ndarray      # (B, 3)
    v_remainder: np.ndarray      # (B, 3)
    tau_remainder: np.ndarray    # (B, n-1, 3)
    x_ratios: np.ndarray         # (B, 2)
    v_ratios: np.ndarray
    tau_ratios: np.ndarray       # (B, n-1, 2)


def sphere_grid(man: Manifold, p0, resolution: int) -> list[SphereSample]:
    """Directions covering the g(p0)-unit sphere of the tangent space.

    Built through a g(p0)-orthonormal frame (Cholesky factor of g(p0)),
    so directions are exactly g-unit and tangents exactly g-orthogonal
    to them.  n=3 grids exclude shrinking polar caps where the
    longitude tangent degenerates.
    """
    if resolution < 8:
        raise BlowupError("resolution must be at least 8")
    n = man.dimension
    p0 = np.asarray(p0, dtype=float)
    g0 = at_point(man.metric, p0)
    man.check_positive_definite(p0, g0)
    frame = np.linalg.inv(np.linalg.cholesky(g0).T)

    samples = []
    if n == 2:
        for j in range(resolution):
            u = 2.0 * np.pi * j / resolution
            s_hat = np.array([np.cos(u), np.sin(u)])
            ds = np.array([-np.sin(u), np.cos(u)])
            samples.append(SphereSample(np.array([u]), frame @ s_hat,
                                        (frame @ ds)[None, :]))
    elif n == 3:
        delta = np.pi / (4.0 * resolution)
        thetas = delta + (np.pi - 2.0 * delta) * np.arange(resolution) / (
            resolution - 1)
        for theta in thetas:
            st, ct = np.sin(theta), np.cos(theta)
            for j in range(resolution):
                ph = 2.0 * np.pi * j / resolution
                cp, sp = np.cos(ph), np.sin(ph)
                s_hat = np.array([st * cp, st * sp, ct])
                d_theta = np.array([ct * cp, ct * sp, -st])
                d_phi = np.array([-st * sp, st * cp, 0.0])
                samples.append(SphereSample(
                    np.array([theta, ph]), frame @ s_hat,
                    np.stack([frame @ d_theta, frame @ d_phi])))
    else:
        raise BlowupError("sphere grids are built for dimensions 2 and 3")
    return samples


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
        return out[:, 0], out[:, 1:]
    return values


def simulate_blowup(man: Manifold, force: ForceField,
                    cfg: BlowupConfig) -> FrontRecord:
    """Integrate the blow-up of cfg.p0 over the sphere grid.

    Variations start at zero with covariant rate nu0 * K_a for constant
    nu, and d(nu n)/du^a when nu varies over the sphere.
    """
    samples = sphere_grid(man, cfg.p0, cfg.resolution)
    nb = len(samples)
    n = man.dimension
    u = np.stack([s.u for s in samples])
    dirs = np.stack([s.direction for s in samples])
    tangents = np.stack([s.tangents for s in samples])
    nu_vals, nu_grads = _nu_function(cfg.nu, n - 1)(u)
    if np.any(nu_vals <= 0.0):
        raise BlowupError("nu must be positive on the whole sphere grid")

    p0 = np.asarray(cfg.p0, dtype=float)
    x0 = np.broadcast_to(p0, (nb, n)).copy()
    v0 = nu_vals[:, None] * dirs
    tau0 = np.zeros((nb, n - 1, n))
    if nu_grads is None:
        rho0 = nu_vals[:, None, None] * tangents
    else:
        rho0 = (nu_grads[:, :, None] * dirs[:, None, :]
                + nu_vals[:, None, None] * tangents)
    return _integrate_front("blowup", man, force, u, nu_vals, x0, v0, tau0,
                            rho0, cfg.t_end, cfg.step)


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
            if not isinstance(c, exprlang.Node) else c for c in hs.chart_map]
    if len(asts) != n:
        raise BlowupError("surface map needs one expression per coordinate")
    fn = exprlang.compile_fn(
        asts + [exprlang.differentiate(asts[k], names[a])
                for a in range(n_params) for k in range(n)], names)

    def points_and_tangents(u: np.ndarray):
        out = fn(*(u[:, k] for k in range(n_params)))
        return out[:, :n], out[:, n:].reshape(u.shape[0], n_params, n)
    return points_and_tangents


def _surface_frames(man: Manifold, surface, u: np.ndarray,
                    orient_flip: bool):
    """Points, exact tangents, and oriented g-unit normals on the grid."""
    x, tangents = surface(u)
    sv = np.linalg.svd(tangents, compute_uv=False)
    degenerate = sv[:, -1] <= 1e-10 * np.maximum(sv[:, 0], 1e-300)
    if np.any(degenerate):
        raise BlowupError(
            f"surface map has degenerate Jacobian at grid rows "
            f"{np.nonzero(degenerate)[0].tolist()[:8]}")

    g = man.metric(x)
    rows = np.einsum('baj,bjk->bak', tangents, g)
    _, _, vt = np.linalg.svd(rows)
    normal = vt[:, -1, :]
    norms = np.sqrt(np.einsum('bij,bi,bj->b', g, normal, normal))
    normal = normal / norms[:, None]
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
    obtained by central differencing plus the connection correction.
    The surface map, nu and their u-derivatives are compiled once.
    """
    n = man.dimension
    n_params = n - 1
    u = surface_grid(hs, n_params)
    surface = _surface_map(n, hs)
    nu_fn = _nu_function(hs.nu, n_params)
    x0, tangents, normal = _surface_frames(man, surface, u, hs.orient_flip)
    nu_vals, _ = nu_fn(u)
    if np.any(nu_vals <= 0.0):
        raise BlowupError("nu must be positive on the surface grid")
    v0 = nu_vals[:, None] * normal

    box = np.asarray(hs.box, dtype=float)
    rho0 = np.empty((u.shape[0], n_params, n))
    gamma0 = man.christoffel(x0)

    def launch_field(params):
        _, _, normals = _surface_frames(man, surface, params, hs.orient_flip)
        nus, _ = nu_fn(params)
        return nus[:, None] * normals

    for a in range(n_params):
        delta = 1e-6 * max(1.0, abs(box[a, 1] - box[a, 0]))
        up, down = u.copy(), u.copy()
        up[:, a] += delta
        down[:, a] -= delta
        rho0[:, a] = (launch_field(up) - launch_field(down)) / (2.0 * delta)
        rho0[:, a] += np.einsum('bkrs,br,bs->bk', gamma0,
                                tangents[:, a], v0)
    return _integrate_front("shift", man, force, u, nu_vals, x0, v0,
                            tangents.copy(), rho0, t_end, h)


def _integrate_front(kind: str, man: Manifold, force: ForceField,
                     u: np.ndarray, nu_vals: np.ndarray, x0, v0, tau0, rho0,
                     t_end: float, h: float) -> FrontRecord:
    """Integrate the launched front and attach its deviation series.

    An IntegrationAbort is re-raised carrying the partial FrontRecord.
    """
    try:
        batch = integrate_batch(man, force, x0, v0, tau0, rho0, t_end, h)
    except IntegrationAbort as abort:
        abort.record = _attach_series(kind, man, force, u, x0, nu_vals,
                                      abort.record)
        raise
    return _attach_series(kind, man, force, u, x0, nu_vals, batch)


def _attach_series(kind: str, man: Manifold, force: ForceField,
                   u: np.ndarray, origin: np.ndarray, nu_vals: np.ndarray,
                   batch: BatchTrajectory) -> FrontRecord:
    m1, nb, nvar, n = batch.tau.shape
    flat_x = batch.x.reshape(m1 * nb, n)
    g = man.metric(flat_x).reshape(m1, nb, n, n)
    v_cov = np.einsum('tbij,tbj->tbi', g, batch.v)
    speed = np.sqrt(np.einsum('tbi,tbi->tb', v_cov, batch.v))
    phi = np.einsum('tbi,tbji->tbj', v_cov, batch.tau)
    tau_norm = np.sqrt(np.einsum('tbij,tbai,tbaj->tba', g,
                                 batch.tau, batch.tau))
    with np.errstate(invalid='ignore', divide='ignore'):
        psi = np.where(tau_norm > TAU_NORM_FLOOR,
                       phi / (speed[:, :, None] * tau_norm), np.nan)
    return FrontRecord(kind, man, force, u, origin, nu_vals, batch,
                       phi, psi, speed, tau_norm)


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


def taylor_check(record: FrontRecord) -> TaylorReport:
    """Remainders of the launch-time expansions at t = h, 2h, 4h."""
    if record.batch.node_count < 5:
        raise BlowupError("record needs nodes at t = h, 2h, 4h")
    nodes = [1, 2, 4]
    x0 = record.batch.x[0]
    v0 = record.batch.v[0]
    rho0 = record.batch.rho[0]
    tau0 = record.batch.tau[0]
    x_rem = np.empty((x0.shape[0], 3))
    v_rem = np.empty_like(x_rem)
    tau_rem = np.empty((x0.shape[0], tau0.shape[1], 3))
    for col, i in enumerate(nodes):
        t = record.times[i]
        x_rem[:, col] = np.linalg.norm(
            record.batch.x[i] - x0 - v0 * t, axis=1)
        v_rem[:, col] = np.linalg.norm(record.batch.v[i] - v0, axis=1)
        tau_rem[:, :, col] = np.linalg.norm(
            record.batch.tau[i] - tau0 - rho0 * t, axis=2)

    def ratios(rem):
        scale = np.maximum(np.abs(rem).max(axis=-1, keepdims=True), 1.0)
        safe = rem[..., :-1] > 1e-13 * scale
        with np.errstate(invalid='ignore', divide='ignore'):
            r = np.where(safe, rem[..., 1:] / rem[..., :-1], np.nan)
        return r

    return TaylorReport(x_rem, v_rem, tau_rem,
                        ratios(x_rem), ratios(v_rem), ratios(tau_rem))


def front_at(record: FrontRecord, t: float) -> FrontSample:
    """Front snapshot at a grid time; off-grid times are an error."""
    idx = int(round(t / record.batch.step))
    if (idx < 0 or idx >= record.batch.node_count
            or abs(record.times[idx] - t) > 1e-9 * max(1.0, abs(t))):
        raise BlowupError(f"t={t} is not on the output grid")
    return FrontSample(float(record.times[idx]), record.u,
                       record.batch.x[idx], record.batch.v[idx],
                       record.batch.tau[idx], record.batch.rho[idx],
                       record.phi[idx], record.psi[idx])


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
    """(header, table) of the front: one float row per (output time,
    direction), time-major and direction-minor."""
    if output_every < 1:
        raise BlowupError("output_every must be >= 1")
    n = record.man.dimension
    header = front_header(n)
    nodes = slice(0, record.batch.node_count, output_every)
    times = record.times[nodes]
    shape = (times.shape[0], record.u.shape[0])
    columns = [
        np.broadcast_to(times[:, None, None], shape + (1,)),
        np.broadcast_to(np.arange(shape[1], dtype=float)[None, :, None],
                        shape + (1,)),
        np.broadcast_to(record.u, shape + record.u.shape[1:]),
        record.batch.x[nodes], record.batch.v[nodes],
        record.batch.tau[nodes].reshape(shape + ((n - 1) * n,)),
        record.phi[nodes], record.psi[nodes]]
    return header, np.concatenate(columns, axis=2).reshape(-1, len(header))

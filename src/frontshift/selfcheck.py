"""Built-in identity suites over the bundled systems.

Each suite checks one family of exact identities the rest of the package
leans on: metric compatibility of the connection, the projector gradient
identities, equality of the raw and combined normality residuals, the
closed-form deviation derivatives against differencing, and the
variation equation against twin-trajectory finite differences (the test
that pins the curvature index convention).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import exprlang
from .deviation import phi_derivatives
from .dynamics import integrate_batch
from .exprlang import Add, Const, Div, Mul, Sub, Var
from .geometry import ForceField, Manifold
from .normality import bundle, raw_batch, weak_batch
from .systems import BUNDLED, SystemSpec


class SuiteCase(NamedTuple):
    system: str
    observed: float
    tolerance: float
    passed: bool


class SuiteResult(NamedTuple):
    name: str
    module: str
    cases: list[SuiteCase]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)


def _probe_points(spec: SystemSpec, man: Manifold, count: int,
                  rng: np.random.Generator):
    box = np.asarray(spec.x_box, dtype=float)
    xs = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(
        (count, man.dimension))
    dirs = rng.normal(size=(count, man.dimension))
    radii = spec.v_min + (spec.v_max - spec.v_min) * rng.random(count)
    speeds = man.g_norm_rows(man.metric_rows(xs.T), dirs.T)
    vs = dirs * (radii / speeds)[:, None]
    return xs, vs


def metric_compatibility(count: int = 100, seed: int = 7) -> SuiteResult:
    """d_s g_ij = gamma^k_si g_kj + gamma^k_sj g_ik at random points."""
    cases = []
    rng = np.random.default_rng(seed)
    for name, spec in BUNDLED.items():
        man, _ = spec.build()
        xs, _ = _probe_points(spec, man, count, rng)
        g = man.metric(xs)
        dg = man.metric_partials(xs)
        gamma = man.christoffel(xs, ginv=np.linalg.inv(g), dg=dg)
        lhs = dg - (np.einsum('bksi,bkj->bsij', gamma, g)
                    + np.einsum('bksj,bik->bsij', gamma, g))
        observed = float(np.abs(lhs).max())
        cases.append(SuiteCase(name, observed, 1e-10, observed <= 1e-10))
    return SuiteResult("metric-compatibility", "geometry", cases)


def _projector_asts(man: Manifold):
    """Projector components as expressions of (x, v), for exact
    differentiation through the defining formula."""
    n = man.dimension
    names = man.coords + man.velocities
    v_vars = [Var(v) for v in man.velocities]
    lowered = []
    for i in range(n):
        acc = None
        for j in range(n):
            term = Mul(man.metric_ast[i][j], v_vars[j])
            acc = term if acc is None else Add(acc, term)
        lowered.append(acc)
    speed2 = None
    for k in range(n):
        term = Mul(v_vars[k], lowered[k])
        speed2 = term if speed2 is None else Add(speed2, term)
    p_ast = [[exprlang.simplify(
        Sub(Const(1.0 if r == i else 0.0),
            Div(Mul(v_vars[r], lowered[i]), speed2)))
        for i in range(n)] for r in range(n)]
    return p_ast, names


def projector_identities(count: int = 100, seed: int = 11) -> SuiteResult:
    """Algebraic projector identities plus both gradient identities.

    The velocity gradient of P differentiated through its formula must
    match -(N_i P^r_s + g_ij P^j_s N^r)/speed; the spatial covariant
    gradient must vanish.
    """
    cases = []
    rng = np.random.default_rng(seed)
    for name, spec in BUNDLED.items():
        man, _ = spec.build()
        n = man.dimension
        xs, vs = _probe_points(spec, man, count, rng)
        g = man.metric(xs)
        gamma = man.christoffel(xs, ginv=np.linalg.inv(g))
        # the frame is batch-last; the identities below read it batch-first
        speed, unit, unit_cov, proj = (
            np.moveaxis(a, -1, 0)
            for a in man.frame(vs.T, np.moveaxis(g, 0, -1)))

        alg = max(
            float(np.abs(np.einsum('bri,bij->brj', proj, proj) - proj).max()),
            float(np.abs(np.einsum('bri,bi->br', proj, vs)).max()
                  / spec.v_max),
            float(np.abs(np.einsum('brr->b', proj) - (n - 1)).max()),
        )
        cases.append(SuiteCase(f"{name}/algebraic", alg, 1e-12, alg <= 1e-12))

        p_ast, names = _projector_asts(man)
        dpdv = [[[exprlang.differentiate(p_ast[r][i], man.velocities[s])
                  for i in range(n)] for r in range(n)] for s in range(n)]
        dpdx = [[[exprlang.differentiate(p_ast[r][i], man.coords[s])
                  for i in range(n)] for r in range(n)] for s in range(n)]
        worst_v = 0.0
        worst_x = 0.0
        for b in range(count):
            binding = {nm: val for nm, val in zip(
                names, list(xs[b]) + list(vs[b]))}
            dv = np.array([[[exprlang.evaluate(dpdv[s][r][i], binding)
                             for i in range(n)] for r in range(n)]
                           for s in range(n)])
            dx = np.array([[[exprlang.evaluate(dpdx[s][r][i], binding)
                             for i in range(n)] for r in range(n)]
                           for s in range(n)])
            expected = -(np.einsum('i,rs->sri', unit_cov[b], proj[b])
                         + np.einsum('ij,js,r->sri', g[b], proj[b], unit[b])
                         ) / speed[b]
            worst_v = max(worst_v, float(np.abs(dv - expected).max()))
            spatial = (dx
                       - np.einsum('jsm,m,jri->sri', gamma[b], vs[b], dv)
                       + np.einsum('rsj,ji->sri', gamma[b], proj[b])
                       - np.einsum('jsi,rj->sri', gamma[b], proj[b]))
            worst_x = max(worst_x, float(np.abs(spatial).max()))
        cases.append(SuiteCase(f"{name}/velocity-gradient", worst_v, 1e-8,
                               worst_v <= 1e-8))
        cases.append(SuiteCase(f"{name}/spatial-gradient", worst_x, 1e-8,
                               worst_x <= 1e-8))
    return SuiteResult("projector-identities", "geometry", cases)


def rewrite_equivalence(count: int = 1000, seed: int = 13) -> SuiteResult:
    """Raw residual forms equal speed times the combined system."""
    cases = []
    rng = np.random.default_rng(seed)
    for name, spec in BUNDLED.items():
        man, force = spec.build()
        xs, vs = _probe_points(spec, man, count, rng)
        b = bundle(man, force, xs.T, vs.T)
        first, second = weak_batch(b)
        raw1, raw2 = raw_batch(b)
        s = b['speed']
        observed = max(float(np.abs(raw1 - s * first).max()),
                       float(np.abs(raw2 - s * second).max()))
        cases.append(SuiteCase(name, observed, 1e-12, observed <= 1e-12))
    return SuiteResult("rewrite-equivalence", "normality", cases)


def deviation_formulas(trajectories: int = 10, seed: int = 17,
                       t_end: float = 0.5, h: float = 1e-3) -> SuiteResult:
    """Closed-form phi_dot and phi_ddot against central differences."""
    cases = []
    rng = np.random.default_rng(seed)
    for name, spec in BUNDLED.items():
        man, force = spec.build()
        n = man.dimension
        box = np.asarray(spec.x_box, dtype=float)
        width = box[:, 1] - box[:, 0]
        inset = np.stack([box[:, 0] + 0.25 * width,
                          box[:, 1] - 0.25 * width], axis=1)
        launch = SystemSpec(name, n, spec.metric, spec.force,
                            inset.tolist(), 0.5, 1.5)
        xs, vs = _probe_points(launch, man, trajectories, rng)
        tau0 = rng.normal(size=(trajectories, 1, n))
        rho0 = rng.normal(size=(trajectories, 1, n))
        batch = integrate_batch(man, force, xs, vs, tau0, rho0, t_end, h)
        _, phi_dot, phi_ddot = phi_derivatives(
            force, batch.x, batch.v, batch.tau, batch.rho)
        # phi apart from deviation.phi; the differences amplify its last bits
        g = man.metric(batch.x.reshape(-1, n)).reshape(batch.x.shape + (n,))
        phi = (batch.tau @ (g @ batch.v[..., None]))[..., 0]
        num_dot = (phi[2:] - phi[:-2]) / (2.0 * h)
        num_ddot = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / h ** 2
        ref = np.maximum(1.0, np.abs(phi_dot[1:-1]))
        worst_dot = float((np.abs(phi_dot[1:-1] - num_dot) / ref).max())
        ref = np.maximum(1.0, np.abs(phi_ddot[1:-1]))
        worst_ddot = float((np.abs(phi_ddot[1:-1] - num_ddot) / ref).max())
        cases.append(SuiteCase(f"{name}/phi-dot", worst_dot, 1e-6,
                               worst_dot <= 1e-6))
        cases.append(SuiteCase(f"{name}/phi-ddot", worst_ddot, 1e-4,
                               worst_ddot <= 1e-4))
    return SuiteResult("deviation-formulas", "deviation", cases)


def variation_errors(man: Manifold, force: ForceField, x0, v0, du: float,
                     t_end: float = 1.0, h: float = 1e-3,
                     riemann_sign: float = 1.0) -> float:
    """Max gap between the integrated variation and the symmetric
    finite difference of a rotated-launch trajectory family."""
    return _twin_errors(man, force, x0, v0, [du], t_end, h, riemann_sign)[0]


def _twin_errors(man: Manifold, force: ForceField, x0, v0, dus,
                 t_end: float, h: float, riemann_sign: float) -> list[float]:
    """``variation_errors`` for each step in dus, from one batch: the base
    row, which carries the variation, then the twin pair rotated by +du
    and -du for each du in turn.  Rows are independent, so each error is
    the one a batch of that du's three rows gives, bit for bit."""
    n = man.dimension
    vs = np.stack([v0] + [_rotation(n, sign * du) @ v0
                          for du in dus for sign in (1.0, -1.0)])
    xs = np.stack([x0] * len(vs))
    tau0 = np.zeros((len(vs), 1, n))
    rho0 = np.zeros((len(vs), 1, n))
    rho0[0, 0] = _rotation_generator(n) @ v0
    batch = integrate_batch(man, force, xs, vs, tau0, rho0, t_end, h,
                            riemann_sign=riemann_sign)
    errors = []
    for k, du in enumerate(dus):
        fd = (batch.x[:, 1 + 2 * k] - batch.x[:, 2 + 2 * k]) / (2.0 * du)
        errors.append(float(np.abs(fd - batch.tau[:, 0, 0]).max()))
    return errors


def _rotation(n: int, angle: float) -> np.ndarray:
    out = np.eye(n)
    c, s = np.cos(angle), np.sin(angle)
    out[0, 0] = c
    out[0, 1] = -s
    out[1, 0] = s
    out[1, 1] = c
    return out


def _rotation_generator(n: int) -> np.ndarray:
    out = np.zeros((n, n))
    out[0, 1] = -1.0
    out[1, 0] = 1.0
    return out


VARIATION_CASES = {
    "euclid-harmonic": (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    "sphere-free": (np.array([np.pi / 2, 0.0]), np.array([0.3, 1.0])),
}


def variation_fidelity(riemann_sign: float = 1.0) -> SuiteResult:
    """Finite-difference twin trajectories against the variation equation.

    The launch family rotates the initial velocity, so its parameter
    dependence is nonlinear and the symmetric-difference error shows the
    quadratic order: shrinking du tenfold cuts it about a hundredfold.
    A flipped curvature sign breaks the sphere case outright.
    """
    cases = []
    for name, (x0, v0) in VARIATION_CASES.items():
        man, force = BUNDLED[name].build()
        e3, e4 = _twin_errors(man, force, x0, v0, (1e-3, 1e-4), 1.0, 1e-3,
                              riemann_sign)
        noise_floor = e3 <= 1e-11 and e4 <= 1e-10
        ratio = e3 / e4 if e4 > 0 else float('inf')
        quadratic = 50.0 <= ratio <= 200.0 and e3 <= 1e-5
        cases.append(SuiteCase(f"{name}/du-1e-3", e3, 1e-5, e3 <= 1e-5))
        cases.append(SuiteCase(f"{name}/order", ratio, 100.0,
                               noise_floor or quadratic))
    return SuiteResult("variation-fidelity", "dynamics", cases)


def run_all(riemann_sign: float = 1.0) -> list[SuiteResult]:
    return [
        metric_compatibility(),
        projector_identities(),
        rewrite_equivalence(),
        deviation_formulas(),
        variation_fidelity(riemann_sign=riemann_sign),
    ]

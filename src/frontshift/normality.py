"""Normality residuals of a force field and the sampling classifier.

The weak-normality system constrains the force so that wavefronts blown
up from any point stay orthogonal to the trajectories; the additional
system tightens this to the normal shift of arbitrary hypersurfaces in
dimension three and above.  Everything here evaluates left-hand sides at
tangent-bundle points; no PDE is solved.

Every term of every residual carries the projector onto the hyperplane
orthogonal to the velocity, so residuals contracted with the unit
velocity vanish identically; that is asserted by the tests, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deviation import _alpha_beta_batch
from .geometry import (ForceField, Manifold, TangentPoint,
                       extended_gradients)


class NormalityError(ValueError):
    pass


WEAK_NORMAL = "weak-normal"
COMPLETE_NORMAL = "complete-normal"
NEITHER = "neither"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ResidualReport:
    xs: np.ndarray                # (count, n) sampled positions
    vs: np.ndarray                # (count, n) sampled velocities
    max_weak: float
    mean_weak: float
    max_additional: float
    mean_additional: float
    verdict: str
    tolerance: float
    additional_trivial: bool      # n == 2: projected families carry no content
    max_strong_additional: float | None
    worst_index: int              # sample with the largest weak-residual norm


def _bundle(man: Manifold, force: ForceField, xs: np.ndarray,
            vs: np.ndarray) -> dict:
    """Everything the residual families consume, batched."""
    g = man.metric(xs)
    ginv = np.linalg.inv(g)
    gamma = man.christoffel(xs, ginv=ginv)
    f_vals = force.components(xs, vs)
    spatial, velocity = extended_gradients(man, force, xs, vs,
                                           gamma=gamma, f_vals=f_vals)
    speed, unit, unit_cov, proj = man.frame(xs, vs, g=g)
    f_cov = np.einsum('bij,bj->bi', g, f_vals)
    spa_cov = np.einsum('bik,bkj->bij', spatial, g)   # nabla_i F_j
    vel_cov = np.einsum('bik,bkj->bij', velocity, g)  # tnabla_i F_j
    return dict(g=g, ginv=ginv, f=f_vals, f_cov=f_cov, spa=spatial,
                vel=velocity, spa_cov=spa_cov, vel_cov=vel_cov,
                speed=speed, unit=unit, unit_cov=unit_cov, proj=proj)


def _weak_batch(b: dict) -> tuple[np.ndarray, np.ndarray]:
    s = b['speed']
    # tnabla_i(N^j F_j) expanded with tnabla_i N^j = P^j_i / speed.
    grad_scalar = (np.einsum('bji,bj->bi', b['proj'], b['f_cov']) / s[:, None]
                   + np.einsum('bj,bij->bi', b['unit'], b['vel_cov']))
    first = np.einsum('bi,bik->bk',
                      b['f_cov'] / s[:, None] + grad_scalar, b['proj'])

    sym = b['spa_cov'] + np.einsum('bij->bji', b['spa_cov'])
    ff = np.einsum('bi,bj->bij', b['f_cov'], b['f_cov'])
    term1 = np.einsum('bij,bj->bi', sym - 2.0 * ff / (s ** 2)[:, None, None],
                      b['unit'])
    term2 = np.einsum('bj,bji->bi', b['f'], b['vel_cov']) / s[:, None]
    nn_grad = np.einsum('br,bj,bjr->b', b['unit'], b['unit'], b['vel_cov'])
    term3 = -b['f_cov'] * (nn_grad / s)[:, None]
    second = np.einsum('bi,bik->bk', term1 + term2 + term3, b['proj'])
    return first, second


def _raw_batch(man: Manifold, force: ForceField, xs, vs,
               b: dict) -> tuple[np.ndarray, np.ndarray]:
    alpha, beta, _, _ = _alpha_beta_batch(man, force, xs, vs)
    first = np.einsum('br,brk->bk', alpha, b['proj'])
    nf = np.einsum('bs,bs->b', b['unit'], b['f_cov'])
    nn_grad = np.einsum('bs,bq,bsq->b', b['unit'], b['unit'], b['vel_cov'])
    inner_cov = (beta
                 - 2.0 * b['f_cov'] * (nf / b['speed'])[:, None]
                 - b['f_cov'] * nn_grad[:, None])
    second = np.einsum('br,brk->bk', inner_cov, b['proj'])
    return first, second


def _additional_batch(b: dict) -> tuple[np.ndarray, np.ndarray]:
    n = b['proj'].shape[-1]
    s = b['speed']
    n_grad = np.einsum('bm,bmj->bj', b['unit'], b['vel_cov'])
    x_mat = (np.einsum('bi,bj->bij', b['f_cov'], n_grad) / s[:, None, None]
             - b['spa_cov'])
    anti = x_mat - np.einsum('bij->bji', x_mat)
    a1 = np.einsum('bie,bjs,bij->bes', b['proj'], b['proj'], anti)
    lhs = np.einsum('bei,bji,bjs->bes', b['proj'], b['vel'], b['proj'])
    trace = np.einsum('bjm,bji,bmi->b', b['proj'], b['vel'], b['proj'])
    a2 = lhs - (trace / (n - 1))[:, None, None] * b['proj']
    return a1, a2


def _strong_additional_batch(b: dict) -> tuple[np.ndarray, np.ndarray]:
    """Unprojected strengthenings of the additional families.

    In dimension two the projected families vanish identically for every
    force field (the projector has rank one), so they cannot separate
    the complete verdict from the weak one; these forms can.
    """
    n = b['proj'].shape[-1]
    s = b['speed']
    n_grad = np.einsum('bm,bmj->bj', b['unit'], b['vel_cov'])
    x_mat = (np.einsum('bi,bj->bij', b['f_cov'], n_grad) / s[:, None, None]
             - b['spa_cov'])
    s1 = x_mat - np.einsum('bij->bji', x_mat)
    trace = np.einsum('bmm->b', b['vel'])
    s2 = b['vel'] - (trace / n)[:, None, None] * np.eye(n)
    return s1, s2


def _norm_cov(ginv: np.ndarray, cov: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum('bij,bi,bj->b', ginv, cov, cov))


def _norm_twolow(ginv: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum('bia,bjc,bij,bac->b', ginv, ginv, t, t))


def _norm_uplow(g: np.ndarray, ginv: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum('bea,bsc,bes,bac->b', g, ginv, t, t))


def weak_residual(man: Manifold, force: ForceField,
                  q: TangentPoint) -> tuple[np.ndarray, np.ndarray]:
    """Left-hand sides of the combined weak-normality system."""
    b = _bundle(man, force, q.x[None, :], q.v[None, :])
    first, second = _weak_batch(b)
    return first[0], second[0]


def raw_first_residual(man: Manifold, force: ForceField,
                       q: TangentPoint) -> np.ndarray:
    """Pre-rewrite first equation; equals speed times the combined form."""
    b = _bundle(man, force, q.x[None, :], q.v[None, :])
    return _raw_batch(man, force, q.x[None, :], q.v[None, :], b)[0][0]


def raw_second_residual(man: Manifold, force: ForceField,
                        q: TangentPoint) -> np.ndarray:
    """Pre-rewrite second equation; equals speed times the combined form."""
    b = _bundle(man, force, q.x[None, :], q.v[None, :])
    return _raw_batch(man, force, q.x[None, :], q.v[None, :], b)[1][0]


def additional_residual(man: Manifold, force: ForceField,
                        q: TangentPoint) -> tuple[np.ndarray, np.ndarray]:
    """Both additional-normality families (content requires n >= 3)."""
    b = _bundle(man, force, q.x[None, :], q.v[None, :])
    a1, a2 = _additional_batch(b)
    return a1[0], a2[0]


def halton(index: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse, vectorized over indices."""
    out = np.zeros(index.shape, dtype=float)
    frac = 1.0
    idx = index.astype(np.int64).copy()
    while np.any(idx > 0):
        frac /= base
        out += frac * (idx % base)
        idx //= base
    return out


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def sample_tangent_points(man: Manifold, x_box, v_min: float, v_max: float,
                          count: int, seed: int = 0):
    """Deterministic low-discrepancy samples of the tangent bundle.

    Positions fill the configured box, velocity directions sweep the
    sphere, and g-speeds walk log-spaced shells in [v_min, v_max].  The
    seed offsets the Halton index, so runs are reproducible.
    """
    if count < 1:
        raise NormalityError("empty sample set")
    if v_min <= 0.0 or v_max < v_min:
        raise NormalityError("need 0 < v_min <= v_max")
    n = man.dimension
    box = np.asarray(x_box, dtype=float)
    if box.shape != (n, 2):
        raise NormalityError("x box must give [lo, hi] per coordinate")
    idx = np.arange(count, dtype=np.int64) + 1 + int(seed)
    xs = np.empty((count, n))
    for k in range(n):
        xs[:, k] = box[k, 0] + (box[k, 1] - box[k, 0]) * halton(idx, _PRIMES[k])

    u = [halton(idx, _PRIMES[n + k]) for k in range(3)]
    if n == 2:
        theta = 2.0 * np.pi * u[0]
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif n == 3:
        z = 2.0 * u[0] - 1.0
        phi = 2.0 * np.pi * u[1]
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        dirs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    elif n == 4:
        # Shoemake's uniform points on the 3-sphere.
        s1 = np.sqrt(1.0 - u[0])
        s2 = np.sqrt(u[0])
        dirs = np.stack([s1 * np.sin(2 * np.pi * u[1]),
                         s1 * np.cos(2 * np.pi * u[1]),
                         s2 * np.sin(2 * np.pi * u[2]),
                         s2 * np.cos(2 * np.pi * u[2])], axis=1)
    else:
        raise NormalityError("sampler supports dimensions 2..4")

    shells = np.geomspace(v_min, v_max, num=min(count, 16))
    radii = shells[np.arange(count) % shells.shape[0]]
    g = man.metric(xs)
    gspeed = np.sqrt(np.einsum('bij,bi,bj->b', g, dirs, dirs))
    vs = dirs * (radii / gspeed)[:, None]
    return xs, vs


def classify(man: Manifold, force: ForceField, x_box, v_min: float,
             v_max: float, count: int, seed: int = 0,
             tol: float = 1e-8) -> ResidualReport:
    """Sample the tangent bundle and classify the force field.

    weak-normal: both weak equations hold at every sample.
    complete-normal: additionally the additional families hold; for n = 2
    the projected families are vacuous, so their unprojected
    strengthenings decide the upgrade (see report flag).
    Maxima in the guard band (tol, 100 tol) give an inconclusive verdict.
    """
    xs, vs = sample_tangent_points(man, x_box, v_min, v_max, count, seed)
    b = _bundle(man, force, xs, vs)
    first, second = _weak_batch(b)
    a1, a2 = _additional_batch(b)

    weak_norms = np.maximum(_norm_cov(b['ginv'], first),
                            _norm_cov(b['ginv'], second))
    add_norms = np.maximum(_norm_twolow(b['ginv'], a1),
                           _norm_uplow(b['g'], b['ginv'], a2))
    max_weak = float(weak_norms.max())
    max_add = float(add_norms.max())

    trivial = man.dimension == 2
    max_strong = None
    if trivial:
        s1, s2 = _strong_additional_batch(b)
        strong_norms = np.maximum(_norm_twolow(b['ginv'], s1),
                                  _norm_uplow(b['g'], b['ginv'], s2))
        max_strong = float(strong_norms.max())
        upgrade_value = max_strong
    else:
        upgrade_value = max_add

    if max_weak <= tol:
        if upgrade_value <= tol:
            verdict = COMPLETE_NORMAL
        elif upgrade_value < 100.0 * tol:
            verdict = INCONCLUSIVE
        else:
            verdict = WEAK_NORMAL
    elif max_weak < 100.0 * tol:
        verdict = INCONCLUSIVE
    else:
        verdict = NEITHER

    return ResidualReport(
        xs=xs,
        vs=vs,
        max_weak=max_weak,
        mean_weak=float(weak_norms.mean()),
        max_additional=max_add,
        mean_additional=float(add_norms.mean()),
        verdict=verdict,
        tolerance=tol,
        additional_trivial=trivial,
        max_strong_additional=max_strong,
        worst_index=int(weak_norms.argmax()),
    )

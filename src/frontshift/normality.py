"""Normality residuals of a force field and the sampling classifier.

The weak-normality system constrains the force so that wavefronts blown
up from any point stay orthogonal to the trajectories; the additional
system tightens this to the normal shift of arbitrary hypersurfaces in
dimension three and above.  Everything here evaluates left-hand sides at
tangent-bundle points; no PDE is solved.

Every term of every residual carries the projector onto the hyperplane
orthogonal to the velocity, so residuals contracted with the unit
velocity vanish identically; that is asserted by the tests, not here.

The residual layer is batch-last: ``bundle`` takes the points as
xs[k, b] and vs[k, b], and every tensor, family and norm carries the
sample axis last (a covector [k, b], a two-index tensor [i, j, b]).
Each contraction over an index of length n <= 4 is then one broadcast
product of contiguous length-B rows plus n - 1 additions
(``geometry.matvec_last`` and its siblings), not one BLAS call per
n x n matrix as ``@`` over a leading sample axis makes (3.9-6.9 against
2 ms on an S^3 drag block of 2048 samples).  The additions run in index
order, so a sample's norms do not depend on the block.
``tests/test_normality_reference.py`` pins these to the einsum forms.

``classify`` draws its samples once and evaluates the residuals over
fixed blocks of them, keeping per sample only the positions, velocities
and norms, so its memory grows with the count by those and by the
sampler's temporaries.  The sampler builds its samples batch-last, (n,
count) rows, and hands out (count, n) views, the report's layout.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .deviation import alpha_beta
from .geometry import (ForceField, Manifold, dot_last, force_tensors,
                       matmul_last, matvec_last, vecmat_last)


class NormalityError(ValueError):
    pass


WEAK_NORMAL = "weak-normal"
COMPLETE_NORMAL = "complete-normal"
NEITHER = "neither"
INCONCLUSIVE = "inconclusive"


class ResidualReport(NamedTuple):
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


def bundle(man: Manifold, force: ForceField, xs: np.ndarray,
           vs: np.ndarray, **jet) -> dict:
    """Everything the residual families consume at the points xs[k, b],
    vs[k, b], batch axis last: the force_tensors of the points (jet the
    first-order call's out and registers) and the velocity frame."""
    b = force_tensors(force, xs, vs, **jet)
    b['speed'], b['unit'], b['unit_cov'], b['proj'] = man.frame(vs, b['g'])
    return b


def weak_batch(b: dict) -> tuple[np.ndarray, np.ndarray]:
    """Left-hand sides of the combined weak-normality system, [k, b]."""
    s = b['speed']
    unit, f_cov, proj, vel_cov = b['unit'], b['f_cov'], b['proj'], b['vel_cov']
    # tnabla_i(N^j F_j) expanded with tnabla_i N^j = P^j_i / speed
    grad_scalar = matvec_last(vel_cov, unit)
    nn_grad = dot_last(unit, grad_scalar)
    grad_scalar += vecmat_last(f_cov, proj) / s
    first = vecmat_last(f_cov / s + grad_scalar, proj)

    spa_cov = b['spa_cov']
    term1 = (matvec_last(spa_cov, unit) + vecmat_last(unit, spa_cov)
             - f_cov * (2.0 * dot_last(f_cov, unit) / s ** 2))
    term2 = vecmat_last(b['f'], vel_cov) / s
    term3 = -f_cov * (nn_grad / s)
    second = vecmat_last(term1 + term2 + term3, proj)
    return first, second


def raw_batch(b: dict) -> tuple[np.ndarray, np.ndarray]:
    """Pre-rewrite pair of equations; equals speed times the combined form."""
    alpha, beta = alpha_beta(b)
    unit, f_cov = b['unit'], b['f_cov']
    first = vecmat_last(alpha, b['proj'])
    nf = dot_last(unit, f_cov)
    nn_grad = dot_last(unit, matvec_last(b['vel_cov'], unit))
    inner_cov = (beta
                 - 2.0 * f_cov * (nf / b['speed'])
                 - f_cov * nn_grad)
    second = vecmat_last(inner_cov, b['proj'])
    return first, second


def additional_batch(b: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both additional-normality families (content requires n >= 3), and
    s1, the unprojected strengthening of the first: the antisymmetric
    force-term matrix that the first family projects.  Each is [i, j, b]."""
    proj = b['proj']
    n = proj.shape[0]
    n_grad = vecmat_last(b['unit'], b['vel_cov'])
    x_mat = b['f_cov'][:, None] * n_grad[None] / b['speed'] - b['spa_cov']
    s1 = x_mat - x_mat.swapaxes(0, 1)
    a1 = matmul_last(proj.swapaxes(0, 1), matmul_last(s1, proj))
    lhs = matmul_last(matmul_last(proj, b['vel'].swapaxes(0, 1)), proj)
    # sum_jmi P_jm V_ji P_mi, the trace of lhs
    a2 = lhs - (_trace(lhs) / (n - 1)) * proj
    return a1, a2, s1


def _trace(m: np.ndarray) -> np.ndarray:
    """m[i, i, b] summed over i, in order."""
    out = m[0, 0] + m[1, 1]
    for i in range(2, m.shape[0]):
        out += m[i, i]
    return out


def _contract(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """t[i, j, b] u[i, j, b] summed over i and j."""
    n = t.shape[0]
    return dot_last(t.reshape(n * n, -1), u.reshape(n * n, -1))


def _norm_cov(ginv: np.ndarray, cov: np.ndarray) -> np.ndarray:
    return np.sqrt(dot_last(cov, matvec_last(ginv, cov)))


def _norm_twolow(ginv: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.sqrt(_contract(t, matmul_last(matmul_last(ginv, t), ginv)))


def _norm_uplow(g: np.ndarray, ginv: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.sqrt(_contract(t, matmul_last(matmul_last(g, t), ginv)))


def halton(index: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse, vectorized over non-negative
    indices: one pass per base-``base`` digit of the largest index.  The
    digits are taken in 32-bit integers when every index fits, where
    integer division costs about half as much as in 64 bits."""
    out = np.zeros(index.shape, dtype=float)
    frac = 1.0
    top = int(index.max()) if index.size else 0
    idx = index.astype(np.int32 if top < 2 ** 31 else np.int64)
    while top > 0:
        top //= base
        frac /= base
        quotient = idx // base
        idx -= quotient * base          # now the digit
        out += frac * idx
        idx = quotient
    return out


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)

# Samples per residual block of ``classify``.  A block's residual phase
# peaks near 1 kB per sample in 3-D (2 MiB at 2048); smaller blocks save
# little more, since the sampler then dominates, and cost more calls.
_SAMPLE_BLOCK = 2048


def sample_blocks(count: int) -> int:
    """How many residual blocks ``classify`` evaluates count samples in."""
    return -(-count // _SAMPLE_BLOCK)


def _directions(u: list) -> np.ndarray:
    """(n, count) unit directions from the n - 1 Halton rows u; apart, so
    that their temporaries are freed before the metric rows are formed."""
    if len(u) == 1:
        theta = 2.0 * np.pi * u[0]
        return np.stack([np.cos(theta), np.sin(theta)])
    if len(u) == 2:
        z = 2.0 * u[0] - 1.0
        phi = 2.0 * np.pi * u[1]
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z])
    # Shoemake's uniform points on the 3-sphere.
    s1, s2 = np.sqrt(1.0 - u[0]), np.sqrt(u[0])
    return np.stack([s1 * np.sin(2 * np.pi * u[1]),
                     s1 * np.cos(2 * np.pi * u[1]),
                     s2 * np.sin(2 * np.pi * u[2]),
                     s2 * np.cos(2 * np.pi * u[2])])


def sample_tangent_points(man: Manifold, x_box, v_min: float, v_max: float,
                          count: int, seed: int = 0):
    """Deterministic low-discrepancy samples of the tangent bundle.

    Positions fill the configured box, velocity directions sweep the
    sphere, and g-speeds walk log-spaced shells in [v_min, v_max].  The
    seed offsets the Halton index, so runs are reproducible.  Returns
    (xs, vs), (count, n) views of (n, count) rows, built batch-last with
    ``Manifold.g_norm_rows``.  Coordinate k takes the k-th prime as its
    Halton base and direction coordinate k the (n + k)-th; only the n - 1
    direction coordinates the dimension uses are drawn.
    """
    if count < 1:
        raise NormalityError("empty sample set")
    if v_min <= 0.0 or v_max < v_min:
        raise NormalityError("need 0 < v_min <= v_max")
    # the int64 Halton indices run from seed + 1 to seed + count
    if not 0 <= seed < 2 ** 63 - count:
        raise NormalityError("need 0 <= seed < 2^63 - count")
    n = man.dimension
    if not 2 <= n <= 4:
        raise NormalityError("sampler supports dimensions 2..4")
    box = np.asarray(x_box, dtype=float)
    if box.shape != (n, 2):
        raise NormalityError("x box must give [lo, hi] per coordinate")
    idx = np.arange(count, dtype=np.int64) + 1 + int(seed)
    xs = np.empty((n, count))
    for k in range(n):
        xs[k] = box[k, 0] + (box[k, 1] - box[k, 0]) * halton(idx, _PRIMES[k])
    vs = _directions([halton(idx, _PRIMES[n + k]) for k in range(n - 1)])
    radii = np.resize(np.geomspace(v_min, v_max, num=min(count, 16)), count)
    radii /= man.g_norm_rows(man.metric_rows(xs), vs)
    vs *= radii
    return xs.T, vs.T


def _block_norms(man: Manifold, force: ForceField, xs: np.ndarray,
                 vs: np.ndarray, **jet):
    """Per-sample weak, additional and (n = 2, else None) strong residual
    norms of one block of samples xs[k, b], vs[k, b]."""
    b = bundle(man, force, xs, vs, **jet)
    return _residual_norms(b, weak_batch(b), additional_batch(b))


def _residual_norms(b: dict, weak_pair, additional) -> tuple:
    """``_block_norms`` from the bundle and its two families."""
    ginv = b['ginv']
    first, second = weak_pair
    a1, a2, s1 = additional
    weak = np.maximum(_norm_cov(ginv, first), _norm_cov(ginv, second))
    add = np.maximum(_norm_twolow(ginv, a1), _norm_uplow(b['g'], ginv, a2))
    n = first.shape[0]
    if n != 2:
        return weak, add, None
    # The projected families vanish identically for every field when the
    # projector has rank one, so they cannot separate the complete verdict
    # from the weak one; their unprojected strengthenings (s1, and the
    # velocity-gradient isotropy defect s2) can.  s2 is laid out as vel,
    # derivative index first, and _norm_uplow takes the upper index first.
    s2 = b['vel'] - (_trace(b['vel']) / n) * np.eye(n)[:, :, None]
    strong = np.maximum(_norm_twolow(ginv, s1),
                        _norm_uplow(b['g'], ginv, s2.swapaxes(0, 1)))
    return weak, add, strong


def _verdict(max_weak: float, max_upgrade: float, tol: float) -> str:
    """The verdict from the largest weak residual and the largest residual
    that decides the upgrade (additional, or strong when n = 2)."""
    if max_weak <= tol:
        if max_upgrade <= tol:
            return COMPLETE_NORMAL
        if max_upgrade < 100.0 * tol:
            return INCONCLUSIVE
        return WEAK_NORMAL
    if max_weak < 100.0 * tol:
        return INCONCLUSIVE
    return NEITHER


def classify(man: Manifold, force: ForceField, x_box, v_min: float,
             v_max: float, count: int, seed: int = 0,
             tol: float = 1e-8) -> ResidualReport:
    """Sample the tangent bundle and classify the force field.

    weak-normal: both weak equations hold at every sample.
    complete-normal: additionally the additional families hold; for n = 2
    the projected families are vacuous, so their unprojected
    strengthenings decide the upgrade (see report flag).
    Maxima in the guard band (tol, 100 tol) give an inconclusive verdict.

    The samples (xs and vs) are drawn once; the residuals are evaluated
    over blocks of ``_SAMPLE_BLOCK`` samples, whose first-order calls
    write into one output with registers classify owns, and only each
    sample's norms outlive its block: working memory is bounded by the
    block, not the count, and the norms are those of a single block.
    Raises NormalityError when a norm is not finite (the force or metric
    undefined at a sample).
    """
    xs, vs = sample_tangent_points(man, x_box, v_min, v_max, count, seed)
    # the residual layer runs batch-last: component k of sample b at [k, b]
    x_rows, v_rows = xs.T, vs.T
    trivial = man.dimension == 2
    weak_norms = np.empty(count)
    add_norms = np.empty(count)
    strong_norms = np.empty(count) if trivial else None
    out = np.empty((force.first_order_record.size, min(count, _SAMPLE_BLOCK)))
    registers = force.registers("first_order", out)
    with np.errstate(divide='ignore', invalid='ignore', over='ignore'):
        for lo in range(0, count, _SAMPLE_BLOCK):
            rows = slice(lo, lo + _SAMPLE_BLOCK)
            cols = slice(min(count - lo, _SAMPLE_BLOCK))
            weak, add, strong = _block_norms(
                man, force, x_rows[:, rows], v_rows[:, rows],
                out=out[:, cols], registers=registers[:, cols])
            weak_norms[rows], add_norms[rows] = weak, add
            if trivial:
                strong_norms[rows] = strong

    defined = np.isfinite(weak_norms) & np.isfinite(add_norms)
    if trivial:
        defined &= np.isfinite(strong_norms)
    if not defined.all():
        first = int(np.argmin(defined))
        raise NormalityError(
            f"residuals undefined at {count - int(defined.sum())} of "
            f"{count} samples, first at x={[float(c) for c in xs[first]]}, "
            f"v={[float(c) for c in vs[first]]}")

    max_weak = float(weak_norms.max())
    max_add = float(add_norms.max())
    max_strong = float(strong_norms.max()) if trivial else None
    return ResidualReport(
        xs=xs,
        vs=vs,
        max_weak=max_weak,
        mean_weak=float(weak_norms.mean()),
        max_additional=max_add,
        mean_additional=float(add_norms.mean()),
        verdict=_verdict(max_weak, max_strong if trivial else max_add, tol),
        tolerance=tol,
        additional_trivial=trivial,
        max_strong_additional=max_strong,
        worst_index=int(weak_norms.argmax()),
    )

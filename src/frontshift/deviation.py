"""Deviation functions of a front and their closed-form derivatives.

phi measures the angle defect between front and trajectory: the scalar
product of the velocity with a variation vector.  Its first and second
time derivatives have closed forms in terms of the force field and its
gradients; those forms (not differencing) are what this module
evaluates, with finite differences kept for the tests.

Everything here is batched over any leading axes: points (..., n) and
variations (..., J, n), such as a record's (M+1, B, ...) nodes or one
trajectory's (M+1, ...).  phi itself is formed in one place, ``phi``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dynamics import BatchTrajectory
from .geometry import (ForceField, Manifold, force_tensors, lower, matvec,
                       matvec_last, vecmat_last)


class DeviationError(ValueError):
    pass


class RankResult(NamedTuple):
    """Rank test of each trajectory, over the record's leading axes."""

    singular_values: np.ndarray   # (..., k), zero where inconclusive
    ratio: np.ndarray             # (...) sigma3/sigma1, nan where inconclusive
    inconclusive: np.ndarray      # (...) bool


def phi(g, v, tau):
    """phi[..., j] = g(tau[..., j], v): the deviation of variations tau
    (..., J, n) from the velocity v (..., n), with the metric g (..., n, n)."""
    return matvec(tau, lower(g, v))


def alpha_beta(b: dict) -> tuple[np.ndarray, np.ndarray]:
    """Covectors weighting the rate and the vector in phi_ddot, from the
    force_tensors bundle b, batch axis last (alpha[r, b]):
    alpha_r = 2 F_r + v^s tnabla_r F_s, beta_r per the paired formula."""
    vs, spa_cov, vel_cov = b['v'], b['spa_cov'], b['vel_cov']
    alpha = 2.0 * b['f_cov'] + matvec_last(vel_cov, vs)
    beta = (vecmat_last(vs, spa_cov) + matvec_last(spa_cov, vs)
            + vecmat_last(b['f'], vel_cov))
    return alpha, beta


def phi_derivatives(force: ForceField, xs, vs, tau, rho):
    """(phi, phi_dot, phi_ddot)[..., j] for variations tau[..., j] with
    covariant rates rho[..., j] at tangent-bundle points (xs, vs).

    phi = (v | tau), phi_dot = (F | tau) + (v | rho) and
    phi_ddot = (alpha | rho) + (beta | tau), in closed form.
    """
    xs, vs = np.asarray(xs, dtype=float), np.asarray(vs, dtype=float)
    lead, n = xs.shape[:-1], xs.shape[-1]
    b = force_tensors(force, xs.reshape(-1, n).T, vs.reshape(-1, n).T)
    alpha, beta, f_cov = (w.T.reshape(lead + (n,))
                          for w in (*alpha_beta(b), b['f_cov']))
    g = np.moveaxis(b['g'], -1, 0).reshape(lead + (n, n))
    return (phi(g, vs, tau), matvec(tau, f_cov) + phi(g, vs, rho),
            matvec(rho, alpha) + matvec(tau, beta))


def deviation_rank(man: Manifold, record: BatchTrajectory,
                   window: tuple[float, float]) -> RankResult:
    """Singular values of each trajectory's row-normalized phi sample
    matrix.

    Rows are the variations' deviation functions sampled on the window;
    sigma3/sigma1 measures the defect from the two-dimensional solution
    space that weak normality implies.  A trajectory whose phi stays
    below 1e-14 on the window is inconclusive.  The record's axes
    between time and variation (none for one trajectory) lead every
    field of the result.
    """
    nvar = record.tau.shape[-2]
    if nvar < 4:
        raise DeviationError("need at least 4 variation initializations")
    lo, hi = window
    mask = (record.times >= lo - 1e-12) & (record.times <= hi + 1e-12)
    if int(mask.sum()) < 8:
        raise DeviationError("window must cover at least 8 grid nodes")
    x = record.x[mask]
    g = man.metric(x.reshape(-1, x.shape[-1])).reshape(
        x.shape + x.shape[-1:])
    rows = np.moveaxis(phi(g, record.v[mask], record.tau[mask]), 0, -1)
    scale = np.abs(rows).max(axis=-1)
    inconclusive = np.all(scale < 1e-14, axis=-1)
    norm = np.where(scale > 1e-14, scale, 1.0)
    sv = np.linalg.svd(rows / norm[..., None], compute_uv=False)
    sv[inconclusive] = 0.0
    with np.errstate(invalid='ignore'):
        ratio = np.where(inconclusive, np.nan, sv[..., 2] / sv[..., 0])
    return RankResult(sv, ratio, inconclusive)

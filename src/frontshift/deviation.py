"""Deviation functions of a front and their closed-form derivatives.

phi measures the angle defect between front and trajectory: the scalar
product of the velocity with a variation vector.  Its first and second
time derivatives have closed forms in terms of the force field and its
gradients; those forms (not differencing) are what this module
evaluates, with finite differences kept for the tests.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dynamics import BatchTrajectory
from .geometry import (ForceField, Manifold, force_tensors, lower, matvec,
                       vecmat)


class DeviationError(ValueError):
    pass


class DeviationSeries(NamedTuple):
    times: np.ndarray
    phi: np.ndarray        # (M+1, J)
    phi_dot: np.ndarray
    phi_ddot: np.ndarray


class RankResult(NamedTuple):
    singular_values: np.ndarray
    ratio: float | None     # sigma3/sigma1, the rank-2 defect measure
    inconclusive: bool


def alpha_beta(b: dict) -> tuple[np.ndarray, np.ndarray]:
    """Covectors weighting the rate and the vector in phi_ddot, from the
    force_tensors bundle b: alpha_r = 2 F_r + v^s tnabla_r F_s, beta_r per
    the paired formula."""
    vs, spa_cov, vel_cov = b['v'], b['spa_cov'], b['vel_cov']
    alpha = 2.0 * b['f_cov'] + matvec(vel_cov, vs)
    beta = (vecmat(vs, spa_cov) + matvec(spa_cov, vs)
            + vecmat(b['f'], vel_cov))
    return alpha, beta


def phi_derivatives(man: Manifold, force: ForceField, xs, vs, tau, rho):
    """(phi, phi_dot, phi_ddot)[b, j] for variations tau[b, j] with
    covariant rates rho[b, j] at tangent-bundle points (xs, vs).

    phi = (v | tau), phi_dot = (F | tau) + (v | rho) and
    phi_ddot = (alpha | rho) + (beta | tau), in closed form.
    """
    b = force_tensors(force, xs, vs)
    alpha, beta = alpha_beta(b)
    v_cov = lower(b['g'], vs)
    phi_vals = matvec(tau, v_cov)
    dot_vals = matvec(tau, b['f_cov']) + matvec(rho, v_cov)
    ddot_vals = matvec(rho, alpha) + matvec(tau, beta)
    return phi_vals, dot_vals, ddot_vals


def series_along(man: Manifold, force: ForceField,
                 record: BatchTrajectory) -> DeviationSeries:
    """phi and its formula-based derivatives at every node of a
    single-trajectory record."""
    return DeviationSeries(record.times, *phi_derivatives(
        man, force, record.x, record.v, record.tau, record.rho))


def deviation_rank(man: Manifold, record: BatchTrajectory,
                   window: tuple[float, float]) -> RankResult:
    """Singular values of the row-normalized phi sample matrix.

    Rows are the variations' deviation functions sampled on the window;
    sigma3/sigma1 measures the defect from the two-dimensional solution
    space that weak normality implies.
    """
    nvar = record.tau.shape[1]
    if nvar < 4:
        raise DeviationError("need at least 4 variation initializations")
    lo, hi = window
    mask = (record.times >= lo - 1e-12) & (record.times <= hi + 1e-12)
    if int(mask.sum()) < 8:
        raise DeviationError("window must cover at least 8 grid nodes")
    v_cov = lower(man.metric(record.x[mask]), record.v[mask])
    rows = matvec(record.tau[mask], v_cov).T
    scale = np.abs(rows).max(axis=1)
    if np.all(scale < 1e-14):
        return RankResult(np.zeros(min(rows.shape)), None, True)
    norm = np.where(scale > 1e-14, scale, 1.0)
    sv = np.linalg.svd(rows / norm[:, None], compute_uv=False)
    ratio = float(sv[2] / sv[0]) if sv.shape[0] >= 3 else None
    return RankResult(sv, ratio, False)

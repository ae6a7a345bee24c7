"""Deviation functions of a front and their closed-form derivatives.

phi measures the angle defect between front and trajectory: the scalar
product of the velocity with a variation vector.  Its first and second
time derivatives have closed forms in terms of the force field and its
gradients; those forms (not differencing) are what this module
evaluates, with finite differences kept for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import BatchTrajectory, FlowState, VariationState, integrate
from .geometry import ForceField, Manifold, TangentPoint, force_tensors


class DeviationError(ValueError):
    pass


@dataclass(frozen=True)
class DeviationSeries:
    times: np.ndarray
    phi: np.ndarray        # (M+1, J)
    phi_dot: np.ndarray
    phi_ddot: np.ndarray


@dataclass(frozen=True)
class InitialLimits:
    """Per-variation values and limits at the blow-up instant."""

    phi: np.ndarray
    phi_dot: np.ndarray
    phi_ddot_limit: np.ndarray
    phi_dddot_estimate: np.ndarray


@dataclass(frozen=True)
class RankResult:
    singular_values: np.ndarray
    ratio: float | None     # sigma3/sigma1, the rank-2 defect measure
    inconclusive: bool


def alpha_beta(b: dict) -> tuple[np.ndarray, np.ndarray]:
    """Covectors weighting the rate and the vector in phi_ddot, from the
    force_tensors bundle b: alpha_r = 2 F_r + v^s tnabla_r F_s, beta_r per
    the paired formula."""
    vs, spa_cov, vel_cov = b['v'], b['spa_cov'], b['vel_cov']
    alpha = 2.0 * b['f_cov'] + np.einsum('brs,bs->br', vel_cov, vs)
    beta = (np.einsum('bs,bsr->br', vs, spa_cov)
            + np.einsum('bs,brs->br', vs, spa_cov)
            + np.einsum('bs,bsr->br', b['f'], vel_cov))
    return alpha, beta


def phi_derivatives(man: Manifold, force: ForceField, xs, vs, tau, rho):
    """(phi, phi_dot, phi_ddot)[b, j] for variations tau[b, j] with
    covariant rates rho[b, j] at tangent-bundle points (xs, vs).

    phi = (v | tau), phi_dot = (F | tau) + (v | rho) and
    phi_ddot = (alpha | rho) + (beta | tau), in closed form.
    """
    b = force_tensors(man, force, xs, vs)
    alpha, beta = alpha_beta(b)
    v_cov = np.einsum('bij,bj->bi', b['g'], vs)
    phi_vals = np.einsum('bi,bji->bj', v_cov, tau)
    dot_vals = (np.einsum('bi,bji->bj', b['f_cov'], tau)
                + np.einsum('bi,bji->bj', v_cov, rho))
    ddot_vals = (np.einsum('br,bjr->bj', alpha, rho)
                 + np.einsum('br,bjr->bj', beta, tau))
    return phi_vals, dot_vals, ddot_vals


def series_along(man: Manifold, force: ForceField,
                 record: BatchTrajectory) -> DeviationSeries:
    """phi and its formula-based derivatives at every node of a
    single-trajectory record."""
    return DeviationSeries(record.times, *phi_derivatives(
        man, force, record.x, record.v, record.tau, record.rho))


def initial_limits(man: Manifold, force: ForceField, p0, nu0: float,
                   sample, h: float = 1e-3) -> InitialLimits:
    """Initial-instant diagnostics for one blow-up direction.

    phi(0) and phi_dot(0) vanish by the initial data themselves; the
    second-derivative limit is the formula value at t = 0, the direct
    contraction nu0 * (alpha | K_i), and the third derivative is
    Richardson-extrapolated from formula values of phi_ddot at t = h and
    t = 2h.
    """
    if nu0 <= 0.0:
        raise DeviationError("nu0 must be positive")
    direction = np.asarray(sample.direction, dtype=float)
    tangents = np.asarray(sample.tangents, dtype=float)
    nvar = tangents.shape[0]
    init = FlowState(TangentPoint(p0, nu0 * direction),
                     [VariationState(np.zeros_like(k), nu0 * k)
                      for k in tangents])
    series = series_along(man, force, integrate(man, force, init, 2.0 * h, h))
    ddot_limit = series.phi_ddot[0]
    d1 = (series.phi_ddot[1] - ddot_limit) / h
    d2 = (series.phi_ddot[2] - ddot_limit) / (2.0 * h)
    dddot = 2.0 * d1 - d2
    return InitialLimits(np.zeros(nvar), np.zeros(nvar), ddot_limit, dddot)


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
    g = man.metric(record.x[mask])
    v_cov = np.einsum('bij,bj->bi', g, record.v[mask])
    rows = np.einsum('bi,bji->jb', v_cov, record.tau[mask])
    scale = np.abs(rows).max(axis=1)
    if np.all(scale < 1e-14):
        return RankResult(np.zeros(min(rows.shape)), None, True)
    norm = np.where(scale > 1e-14, scale, 1.0)
    sv = np.linalg.svd(rows / norm[:, None], compute_uv=False)
    ratio = float(sv[2] / sv[0]) if sv.shape[0] >= 3 else None
    return RankResult(sv, ratio, False)

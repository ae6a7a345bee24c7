import numpy as np
import pytest

from frontshift.blowup import (BlowupConfig, BlowupError, simulate_blowup,
                               sphere_grid)
from frontshift.deviation import (DeviationError, alpha_beta, deviation_rank,
                                  phi_derivatives, series_along)
from frontshift.geometry import ForceField, Manifold, at_point, force_tensors
from oracles import initial_instant, run_one

EUCLID = Manifold(2, [["1", "0"], ["0", "1"]])
ZERO = ForceField(EUCLID, ["0", "0"])
HARMONIC = ForceField(EUCLID, ["-x1", "-x2"])
DRAG = ForceField(EUCLID, ["-0.3*v1*sqrt(v1^2+v2^2)",
                           "-0.3*v2*sqrt(v1^2+v2^2)"])
CONST = ForceField(EUCLID, ["1", "0"])


def _phis(man, force, x, v, tau, rho):
    """(phi, phi_dot, phi_ddot) of one variation tau with covariant rate
    rho at the tangent-bundle point (x, v)."""
    phis = at_point(phi_derivatives, man, force, x, v, [tau], [rho])
    return tuple(float(p[0]) for p in phis)


def _alpha_beta(force, x, v):
    return at_point(lambda xs, vs: alpha_beta(force_tensors(
        force, xs, vs)), x, v)


def test_phi_values():
    def phi(man, x, v, tau):
        zero = ForceField(man, ["0", "0"])
        return _phis(man, zero, x, v, tau, [0, 0])[0]
    assert phi(EUCLID, [0, 0], [0, 1], [1, 0]) == 0.0
    t = 0.7
    assert phi(EUCLID, [np.cos(t), np.sin(t)], [0.0, 1.0],
               [0.0, np.sin(t)]) == pytest.approx(np.sin(t))
    scaled = Manifold(2, [["1", "0"], ["0", "4"]])
    assert phi(scaled, [0, 0], [0, 1], [0, 1]) == 4.0


def test_phi_dot_harmonic_initial():
    assert _phis(EUCLID, HARMONIC, [1.0, 0.0], [0.0, 1.0], [0.0, 0.0],
                 [0.0, 1.0])[1] == 1.0


def test_phi_dot_zero_force_zero_rate():
    assert _phis(EUCLID, ZERO, [1.0, 0.0], [0.0, 1.0], [0.4, -0.2],
                 [0.0, 0.0])[1] == 0.0


def test_alpha_beta_position_force():
    alpha, beta = _alpha_beta(HARMONIC, [1.0, 0.0], [0.0, 1.0])
    assert np.allclose(alpha, [-2.0, 0.0], atol=0)
    assert np.allclose(beta, [0.0, -2.0], atol=0)


def test_alpha_beta_zero_force():
    alpha, beta = _alpha_beta(ZERO, [1.0, 0.0], [0.3, 1.0])
    assert np.abs(alpha).max() == 0.0
    assert np.abs(beta).max() == 0.0


def test_alpha_beta_velocity_force():
    force = ForceField(EUCLID, ["0.5*v1", "0.5*v2"])
    alpha, beta = _alpha_beta(force, [1.0, 0.0], [0.0, 2.0])
    assert np.allclose(alpha, [0.0, 3.0], atol=1e-15)
    assert np.allclose(beta, [0.0, 0.5], atol=1e-15)


def test_phi_ddot_harmonic_closed_form():
    t = np.pi / 4
    point = ([np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)],
             [0.0, np.sin(t)], [0.0, np.cos(t)])
    assert _phis(EUCLID, HARMONIC, *point)[2] == pytest.approx(-2.0, abs=1e-8)
    assert _phis(EUCLID, ZERO, *point)[2] == 0.0


def test_formula_derivatives_match_differencing():
    h = 1e-3
    for force in (HARMONIC, DRAG, CONST):
        rec = run_one(EUCLID, force, [1.0, 0.2], [0.3, 1.0], 1.0, h,
                      tau=[[0.1, -0.4]], rho=[[0.2, 0.3]])
        ser = series_along(EUCLID, force, rec)
        num_dot = (ser.phi[2:] - ser.phi[:-2]) / (2 * h)
        num_ddot = (ser.phi[2:] - 2 * ser.phi[1:-1] + ser.phi[:-2]) / h ** 2
        scale_dot = np.maximum(1.0, np.abs(ser.phi_dot[1:-1]))
        scale_ddot = np.maximum(1.0, np.abs(ser.phi_ddot[1:-1]))
        assert (np.abs(ser.phi_dot[1:-1] - num_dot) / scale_dot).max() < 1e-6
        assert (np.abs(ser.phi_ddot[1:-1] - num_ddot)
                / scale_ddot).max() < 1e-4


def _one_direction(u):
    grid = sphere_grid(EUCLID, [0.0, 0.0], 64)
    return min(grid, key=lambda s: abs(s.u[0] - u))


def test_initial_limits_universal_zeroes():
    # phi(0) and its first derivative vanish from the initial data alone,
    # even for a force that is not weakly normal
    sample = _one_direction(0.8)
    phi, phi_dot, _, _ = initial_instant(EUCLID, CONST, [0.0, 0.0], 1.0,
                                         sample)
    assert np.abs(phi).max() == 0.0
    assert np.abs(phi_dot).max() < 1e-15


def test_initial_limits_constant_force_contraction():
    for u_target in (0.0, 0.8, 2.3, 4.0):
        sample = _one_direction(u_target)
        u = sample.u[0]
        phi_ddot = initial_instant(EUCLID, CONST, [0.0, 0.0], 1.0, sample)[2]
        assert phi_ddot[0] == pytest.approx(-2.0 * np.sin(u), abs=1e-12)


def test_initial_limits_velocity_aligned_force_vanishes():
    force = ForceField(EUCLID, ["0.5*v1", "0.5*v2"])
    sample = _one_direction(1.1)
    phi_ddot = initial_instant(EUCLID, force, [0.0, 0.0], 1.0, sample)[2]
    assert np.abs(phi_ddot).max() < 1e-14


def test_initial_limits_third_derivative_weakly_normal():
    sample = _one_direction(0.8)
    for force in (ZERO, DRAG):
        phi_dddot = initial_instant(EUCLID, force, [0.0, 0.0], 1.0,
                                    sample)[3]
        assert np.abs(phi_dddot).max() < 1e-9


def test_initial_limits_third_derivative_catches_modulated_drag():
    # F = c(x) v keeps the second-derivative limit at zero in every
    # direction; the defect first appears in the third derivative
    modulated = ForceField(EUCLID, ["x2*v1", "x2*v2"])
    worst_dd = 0.0
    worst_ddd = 0.0
    for u_target in (0.0, 0.8, 1.6, 2.3, 4.0):
        sample = _one_direction(u_target)
        _, _, phi_ddot, phi_dddot = initial_instant(
            EUCLID, modulated, [0.0, 0.5], 1.0, sample)
        worst_dd = max(worst_dd, abs(phi_ddot[0]))
        worst_ddd = max(worst_ddd, abs(phi_dddot[0]))
    assert worst_dd < 1e-12
    assert worst_ddd > 0.1


def test_initial_limits_rejects_bad_nu():
    # a blow-up launched at zero speed has no initial front
    with pytest.raises(BlowupError):
        simulate_blowup(EUCLID, ZERO, BlowupConfig([0.0, 0.0], 0.0), 1e-3,
                        1e-3)


def _rank_run(force, rng, count=5):
    """One trajectory with count random variations (tau, rho drawn in
    turn per variation)."""
    pairs = rng.normal(size=(count, 2, 2))
    return run_one(EUCLID, force, [1.0, 0.2], [0.3, 1.0], 1.0, 1e-3,
                   tau=pairs[:, 0], rho=pairs[:, 1])


def test_rank_free_affine_deviations():
    rng = np.random.default_rng(0)
    rec = _rank_run(ZERO, rng)
    result = deviation_rank(EUCLID, rec, (0.2, 1.0))
    assert not result.inconclusive
    assert result.ratio <= 1e-10


def test_rank_harmonic_exceeds_two():
    rng = np.random.default_rng(0)
    rec = _rank_run(HARMONIC, rng)
    result = deviation_rank(EUCLID, rec, (0.2, 1.0))
    assert result.ratio >= 1e-3


def test_rank_drag_weakly_normal():
    rng = np.random.default_rng(0)
    rec = _rank_run(DRAG, rng)
    result = deviation_rank(EUCLID, rec, (0.2, 1.0))
    assert result.ratio <= 1e-6


def test_rank_degenerate_window_inconclusive():
    # variations orthogonal to a straight-line trajectory keep phi at 0
    rec = run_one(EUCLID, ZERO, [0.0, 0.0], [1.0, 0.0], 1.0, 1e-3,
                  tau=np.zeros((4, 2)))
    result = deviation_rank(EUCLID, rec, (0.2, 1.0))
    assert result.inconclusive


def test_rank_preconditions():
    rng = np.random.default_rng(1)
    rec = _rank_run(ZERO, rng, count=3)
    with pytest.raises(DeviationError):
        deviation_rank(EUCLID, rec, (0.2, 1.0))
    rec = _rank_run(ZERO, rng)
    with pytest.raises(DeviationError):
        deviation_rank(EUCLID, rec, (0.5, 0.504))

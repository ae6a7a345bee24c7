import numpy as np
import pytest

from frontshift.geometry import (ForceField, Manifold,
                                 NonPositiveDefiniteError, ZeroVelocityError,
                                 at_point, extended_gradients)

EUCLID = Manifold(2, [["1", "0"], ["0", "1"]])
POLAR = Manifold(2, [["1", "0"], ["0", "x1^2"]])
SPHERE = Manifold(2, [["1", "0"], ["0", "sin(x1)^2"]])


def _metric_checked(man, x):
    """(g, g^-1) at one point, positive-definiteness checked."""
    g = at_point(man.metric, x)
    man.check_positive_definite(x, g)
    return g, np.linalg.inv(g)


def test_metric_euclidean_identity():
    g, ginv = _metric_checked(EUCLID, [0.7, -0.3])
    assert np.array_equal(g, np.eye(2))
    assert np.array_equal(ginv, np.eye(2))


def test_metric_polar_values_and_inverse():
    g, ginv = _metric_checked(POLAR, [2.0, 0.3])
    assert np.allclose(g, np.diag([1.0, 4.0]), atol=0)
    assert np.allclose(ginv, np.diag([1.0, 0.25]), atol=1e-15)
    assert np.abs(g @ ginv - np.eye(2)).max() < 1e-12


def test_metric_rejects_degenerate():
    bad = Manifold(2, [["0", "0"], ["0", "1"]])
    with pytest.raises(NonPositiveDefiniteError):
        _metric_checked(bad, [0.0, 0.0])


def test_metric_rejects_asymmetric_expressions():
    from frontshift.geometry import GeometryError
    with pytest.raises(GeometryError):
        Manifold(2, [["1", "x1"], ["0", "1"]])


def test_christoffel_flat_zero():
    assert np.abs(at_point(EUCLID.christoffel, [0.4, 1.2])).max() == 0.0


def test_christoffel_polar_hand_values():
    gam = at_point(POLAR.christoffel, [2.0, 0.3])
    assert gam[0, 1, 1] == pytest.approx(-2.0, abs=1e-14)
    assert gam[1, 0, 1] == pytest.approx(0.5, abs=1e-14)
    assert gam[1, 1, 0] == pytest.approx(0.5, abs=1e-14)
    mask = np.ones((2, 2, 2), dtype=bool)
    mask[0, 1, 1] = mask[1, 0, 1] = mask[1, 1, 0] = False
    assert np.abs(gam[mask]).max() < 1e-14


def test_christoffel_sphere_hand_values():
    gam = at_point(SPHERE.christoffel, [np.pi / 4, 0.0])
    assert gam[0, 1, 1] == pytest.approx(-0.5, abs=1e-14)
    assert gam[1, 0, 1] == pytest.approx(1.0, abs=1e-14)


def test_christoffel_symmetric_lower_indices():
    rng = np.random.default_rng(3)
    xs = np.array([[rng.uniform(0.5, 3.0), rng.uniform(0.0, 6.0)]
                   for _ in range(20)])
    gam = POLAR.christoffel(xs)
    assert np.abs(gam - gam.transpose(0, 1, 3, 2)).max() == 0.0


def test_metric_compatibility():
    rng = np.random.default_rng(5)
    for man, box in ((POLAR, [[0.5, 3.0], [0.0, 6.0]]),
                     (SPHERE, [[0.6, 2.5], [0.0, 6.0]])):
        box = np.asarray(box)
        xs = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((100, 2))
        g = man.metric(xs)
        dg = man.metric_partials(xs)
        gamma = man.christoffel(xs, ginv=np.linalg.inv(g), dg=dg)
        lhs = dg - (np.einsum('bksi,bkj->bsij', gamma, g)
                    + np.einsum('bksj,bik->bsij', gamma, g))
        assert np.abs(lhs).max() < 1e-10


def test_riemann_flat_vanishes():
    assert np.abs(at_point(EUCLID.riemann, [1.0, 2.0])).max() < 1e-12
    rng = np.random.default_rng(9)
    xs = np.array([[rng.uniform(0.5, 3.0), rng.uniform(0.0, 6.0)]
                   for _ in range(20)])
    assert np.abs(POLAR.riemann(xs)).max() < 1e-10


def test_riemann_sphere_unit_curvature():
    # oracle: sectional curvature K = g(R(e1,e2)e2, e1) for an
    # orthonormal pair; the round unit sphere has K = 1 everywhere
    rng = np.random.default_rng(13)
    xs = np.array([[rng.uniform(0.6, 2.5), rng.uniform(0.0, 6.0)]
                   for _ in range(20)])
    g = SPHERE.metric(xs)
    riem = SPHERE.riemann(xs)
    e1 = np.array([1.0, 0.0])
    e2 = np.stack([np.zeros(20), 1.0 / np.sin(xs[:, 0])], axis=1)
    # R(e1, e2)e2 has components R^k_msr e2^m e1^s e2^r
    vec = np.einsum('bkmsr,bm,s,br->bk', riem, e2, e1, e2)
    curvature = np.einsum('bij,bi,j->b', g, vec, e1)
    assert np.abs(curvature - 1.0).max() <= 1e-10
    r_eq = at_point(SPHERE.riemann, [np.pi / 2, 0.0])
    assert abs(r_eq[0, 1, 0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_riemann_antisymmetry():
    rng = np.random.default_rng(17)
    for man, lo, hi in ((SPHERE, 0.6, 2.5), (POLAR, 0.5, 3.0)):
        xs = np.array([[rng.uniform(lo, hi), rng.uniform(0.0, 6.0)]
                       for _ in range(10)])
        riem = man.riemann(xs)
        assert np.abs(riem + riem.transpose(0, 1, 2, 4, 3)).max() == 0.0


def test_frame_euclidean():
    speed, unit, _, proj = at_point(EUCLID.frame, [0.0, 0.0], [0.0, 2.0])
    assert speed == 2.0
    assert np.array_equal(unit, [0.0, 1.0])
    assert np.array_equal(proj, [[1.0, 0.0], [0.0, 0.0]])


def test_frame_curved_hand_values():
    man = Manifold(2, [["1", "0"], ["0", "4"]])
    speed, unit, unit_cov, proj = at_point(man.frame, [2.0, 0.0], [0.0, 1.0])
    assert speed == pytest.approx(2.0, abs=1e-15)
    assert np.allclose(unit, [0.0, 0.5], atol=1e-15)
    assert np.allclose(unit_cov, [0.0, 2.0], atol=1e-15)
    assert np.allclose(proj, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_frame_identities_random():
    rng = np.random.default_rng(19)
    for man, lo, hi in ((SPHERE, 0.6, 2.5), (POLAR, 0.5, 3.0),
                        (EUCLID, -1.0, 1.0)):
        xs, vs = [], []
        for _ in range(35):
            xs.append([rng.uniform(lo, hi), rng.uniform(0.0, 6.0)])
            vs.append(rng.normal(size=2) + 0.05)
        xs, vs = np.array(xs), np.array(vs)
        g = man.metric(xs)
        speed, unit, _, p = man.frame(xs, vs, g=g)
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.all(np.abs(p @ vs[:, :, None])[:, :, 0].max(axis=1)
                      < 1e-12 * np.maximum(1.0, speed))
        assert np.abs(np.trace(p, axis1=1, axis2=2) - 1.0).max() <= 1e-12
        assert np.abs(np.einsum('bij,bi,bj->b', g, unit, unit)
                      - 1.0).max() <= 1e-12
        # g-symmetry: g_rj P^j_i == g_ij P^j_r
        gp = g @ p
        assert np.abs(gp - gp.transpose(0, 2, 1)).max() < 1e-12


SKEW = Manifold(2, [["1 + x2^2", "0.1*x1*x2"],
                    ["0.1*x1*x2", "2 + x1^2"]])


def test_non_diagonal_metric_identities():
    rng = np.random.default_rng(23)
    xs = rng.uniform(-1.0, 1.0, size=(100, 2))
    g = SKEW.metric(xs)
    assert np.linalg.eigvalsh(g).min() > 0.5
    dg = SKEW.metric_partials(xs)
    gamma = SKEW.christoffel(xs, ginv=np.linalg.inv(g), dg=dg)
    compat = dg - (np.einsum('bksi,bkj->bsij', gamma, g)
                   + np.einsum('bksj,bik->bsij', gamma, g))
    assert np.abs(compat).max() < 1e-10
    vs = rng.normal(size=(100, 2)) + 0.05
    speed, unit, unit_cov, proj = SKEW.frame(xs, vs, g=g)
    assert np.abs(np.einsum('bri,bij->brj', proj, proj) - proj).max() < 1e-12
    assert np.abs(np.einsum('bri,bi->br', proj, vs)).max() < 1e-11
    assert np.abs(np.einsum('bij,bi,bj->b', g, unit, unit) - 1.0).max() < 1e-12


def test_frame_zero_velocity_error():
    with pytest.raises(ZeroVelocityError):
        at_point(EUCLID.frame, [0.0, 0.0], [0.0, 0.0])


def test_gradients_position_force():
    force = ForceField(EUCLID, ["-x1", "-x2"])
    spatial, velocity = at_point(extended_gradients, EUCLID, force,
                                 [0.3, 0.4], [1.0, 2.0])
    assert np.allclose(spatial, -np.eye(2), atol=0)
    assert np.abs(velocity).max() == 0.0


def test_gradients_velocity_force():
    force = ForceField(EUCLID, ["0.5*v1", "0.5*v2"])
    spatial, velocity = at_point(extended_gradients, EUCLID, force,
                                 [0.3, 0.4], [1.0, 2.0])
    assert np.abs(spatial).max() == 0.0
    assert np.allclose(velocity, 0.5 * np.eye(2), atol=0)


def test_drag_jacobian_structural_zeros_at_rest():
    drag = ForceField(SPHERE, ["-0.3*v1*sqrt(v1^2 + sin(x1)^2*v2^2)",
                               "-0.3*v2*sqrt(v1^2 + sin(x1)^2*v2^2)"])
    xs = np.array([[1.0, 0.3], [2.0, -1.5]])
    with np.errstate(invalid='ignore'):
        dfdx, _ = drag.jacobians(xs, np.zeros_like(xs))
    # no component depends on x2, so its row is exactly zero, not 0/0
    assert np.array_equal(dfdx[:, 1, :], np.zeros((2, 2)))


def test_gradients_connection_terms_enter():
    force = ForceField(POLAR, ["-x1", "0"])
    spatial, velocity = at_point(extended_gradients, POLAR, force,
                                 [2.0, 0.3], [1.0, 1.0])
    # nabla_2 F^2 = Gamma^2_{21} F^1 = (1/x1)(-x1) = -1
    assert spatial[1, 1] == pytest.approx(-1.0, abs=1e-14)
    # nabla_2 F^1 = Gamma^1_{22} F^2 = 0, but plain d F^1/d x^2 = 0 too;
    # nabla_1 F^1 = -1 + Gamma^1_{11} F^1 = -1
    assert spatial[0, 0] == pytest.approx(-1.0, abs=1e-14)
    assert np.abs(velocity).max() == 0.0

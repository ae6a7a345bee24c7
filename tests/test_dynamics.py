import numpy as np
import pytest

from frontshift.dynamics import (DynamicsError, FlowState, IntegrationAbort,
                                 VariationState, _rhs, covariant_rate,
                                 integrate, integrate_batch, nabla_t_force,
                                 variation_rhs)
from frontshift.geometry import ForceField, Manifold, TangentPoint, at_point
from frontshift.selfcheck import variation_errors

EUCLID = Manifold(2, [["1", "0"], ["0", "1"]])
POLAR = Manifold(2, [["1", "0"], ["0", "x1^2"]])
SPHERE = Manifold(2, [["1", "0"], ["0", "sin(x1)^2"]])
ZERO = ForceField(EUCLID, ["0", "0"])
HARMONIC = ForceField(EUCLID, ["-x1", "-x2"])


def newton_rhs(man, force, x, v):
    """(dx, dv) of the flow at one point: dx = v, dv = F - gamma(v, v)."""
    empty = np.zeros((0, man.dimension))
    dx, dv, _, _, _ = at_point(_rhs, man, force, x, v, empty, empty, 1.0)
    return dx, dv


def test_newton_rhs_free():
    dx, dv = newton_rhs(EUCLID, ZERO, [0, 0], [1, 2])
    assert np.array_equal(dx, [1.0, 2.0])
    assert np.array_equal(dv, [0.0, 0.0])


def test_newton_rhs_harmonic():
    _, dv = newton_rhs(EUCLID, HARMONIC, [1, 0], [0, 1])
    assert np.array_equal(dv, [-1.0, 0.0])


def test_newton_rhs_polar_connection():
    force = ForceField(POLAR, ["0", "0"])
    _, dv = newton_rhs(POLAR, force, [2, 0], [0, 1])
    assert dv[0] == pytest.approx(2.0, abs=1e-14)
    assert dv[1] == pytest.approx(0.0, abs=1e-14)


def test_variation_rhs_harmonic_closed_form():
    q = TangentPoint([1.0, 0.0], [0.0, 1.0])
    vs = VariationState([0.2, 0.5], [0.0, 0.0])
    dtau, drho = variation_rhs(EUCLID, HARMONIC, q, vs)
    assert np.array_equal(dtau, [0.0, 0.0])
    assert np.allclose(drho, [-0.2, -0.5], atol=1e-15)


def test_variation_rhs_free_affine():
    q = TangentPoint([1.0, 0.0], [0.0, 1.0])
    vs = VariationState([0.2, 0.5], [0.3, 0.1])
    dtau, drho = variation_rhs(EUCLID, ZERO, q, vs)
    assert np.array_equal(dtau, vs.rho)
    assert np.abs(drho).max() == 0.0


def test_integrate_harmonic_oracle():
    # closed form x = (cos t, sin t); step chosen so t_end is a grid point
    steps = 1571
    h = (np.pi / 2) / steps
    init = FlowState(TangentPoint([1.0, 0.0], [0.0, 1.0]))
    rec = integrate(EUCLID, HARMONIC, init, np.pi / 2, h)
    assert np.abs(rec.x[-1] - np.array([np.cos(np.pi / 2), 1.0])).max() < 1e-10
    assert np.abs(rec.v[-1] - np.array([-1.0, np.cos(np.pi / 2)])).max() < 1e-10


def test_integrate_straight_line_exact():
    init = FlowState(TangentPoint([0.0, 0.0], [1.0, 2.0]))
    rec = integrate(EUCLID, ZERO, init, 1.0, 1e-3)
    assert np.abs(rec.x[-1] - np.array([1.0, 2.0])).max() < 1e-12


def test_integrate_rejects_offgrid_t_end():
    init = FlowState(TangentPoint([0.0, 0.0], [1.0, 0.0]))
    with pytest.raises(DynamicsError):
        integrate(EUCLID, ZERO, init, 1.0005, 1e-3)
    with pytest.raises(DynamicsError):
        integrate(EUCLID, ZERO, init, 1.0, -1e-3)


def test_integrate_harmonic_variation_closed_form():
    init = FlowState(TangentPoint([1.0, 0.0], [0.0, 1.0]),
                     [VariationState([0.0, 0.0], [0.0, 1.0])])
    rec = integrate(EUCLID, HARMONIC, init, 2.0, 1e-3)
    assert np.abs(rec.tau[:, 0, 1] - np.sin(rec.times)).max() < 1e-11
    assert np.abs(rec.tau[:, 0, 0]).max() < 1e-12
    assert np.abs(rec.rho[:, 0, 1] - np.cos(rec.times)).max() < 1e-11


def test_rk4_fourth_order():
    init = FlowState(TangentPoint([1.0, 0.0], [0.0, 1.0]))
    errs = []
    for h in (4e-3, 2e-3):
        rec = integrate(EUCLID, HARMONIC, init, 2.0, h)
        exact = np.stack([np.cos(rec.times), np.sin(rec.times)], axis=1)
        errs.append(np.abs(rec.x - exact).max())
    ratio = errs[0] / errs[1]
    assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2


def test_sphere_geodesic_speed_conserved():
    force = ForceField(SPHERE, ["0", "0"])
    init = FlowState(TangentPoint([np.pi / 2, 0.0], [0.3, 1.0]))
    rec = integrate(SPHERE, force, init, 2.0, 1e-3)
    g = SPHERE.metric(rec.x)
    speeds = np.sqrt(np.einsum('bij,bi,bj->b', g, rec.v, rec.v))
    assert np.abs(speeds - speeds[0]).max() < 1e-10


def test_speed_monotone_under_drag():
    drag = ForceField(EUCLID, ["-0.3*v1*sqrt(v1^2+v2^2)",
                               "-0.3*v2*sqrt(v1^2+v2^2)"])
    init = FlowState(TangentPoint([0.0, 0.0], [1.0, 0.7]))
    rec = integrate(EUCLID, drag, init, 2.0, 1e-3)
    speeds = np.linalg.norm(rec.v, axis=1)
    assert np.all(np.diff(speeds) <= 1e-15)


def test_covariant_rate_plain_derivative_euclidean():
    init = FlowState(TangentPoint([0.0, 0.0], [1.0, 0.0]))
    rec = integrate(EUCLID, ZERO, init, 1.0, 1e-3)
    const_series = np.tile([0.3, -0.7], (rec.node_count, 1))
    rate = covariant_rate(EUCLID, rec, const_series)
    assert np.abs(rate).max() < 1e-10


def test_covariant_rate_harmonic_variation():
    init = FlowState(TangentPoint([1.0, 0.0], [0.0, 1.0]),
                     [VariationState([0.0, 0.0], [0.0, 1.0])])
    rec = integrate(EUCLID, HARMONIC, init, 2.0, 1e-3)
    rate = covariant_rate(EUCLID, rec, rec.tau[:, 0])
    assert np.abs(rate[:, 1] - np.cos(rec.times)).max() < 1e-6


def test_covariant_rate_needs_three_nodes():
    init = FlowState(TangentPoint([0.0, 0.0], [1.0, 0.0]))
    rec = integrate(EUCLID, ZERO, init, 1e-3, 1e-3)
    with pytest.raises(DynamicsError):
        covariant_rate(EUCLID, rec, rec.v)


def test_nabla_t_force_harmonic():
    out = nabla_t_force(EUCLID, HARMONIC, TangentPoint([1.0, 0.0], [0.0, 1.0]))
    assert np.allclose(out, [0.0, -1.0], atol=1e-15)
    zero = nabla_t_force(EUCLID, ZERO, TangentPoint([1.0, 0.0], [0.0, 1.0]))
    assert np.abs(zero).max() == 0.0


def test_force_chain_rule_matches_trajectory_oracle():
    # the test that pins the spatial-gradient convention: compare the
    # pointwise chain rule against differencing the recorded force series
    speed = "sqrt(v1^2 + x1^2*v2^2)"
    drag = ForceField(POLAR, [f"-0.3*{speed}*v1", f"-0.3*{speed}*v2"])
    init = FlowState(TangentPoint([2.0, 0.3], [0.4, 0.5]))
    rec = integrate(POLAR, drag, init, 1.0, 1e-3)
    oracle = covariant_rate(POLAR, rec, rec.force)
    direct = np.stack([
        nabla_t_force(POLAR, drag, TangentPoint(rec.x[i], rec.v[i]))
        for i in range(0, rec.node_count, 50)])
    assert np.abs(direct - oracle[::50]).max() < 1e-5


def test_variation_matches_finite_differences():
    e3 = variation_errors(EUCLID, HARMONIC, np.array([1.0, 0.0]),
                          np.array([0.0, 1.0]), 1e-3)
    e4 = variation_errors(EUCLID, HARMONIC, np.array([1.0, 0.0]),
                          np.array([0.0, 1.0]), 1e-4)
    assert e3 < 1e-5
    assert 50.0 <= e3 / e4 <= 200.0


def test_integration_abort_keeps_partial_record():
    # cubic feedback escapes to infinity in finite time
    runaway = ForceField(EUCLID, ["x1^3", "0"])
    init = FlowState(TangentPoint([2.0, 0.0], [5.0, 0.0]))
    with pytest.raises(IntegrationAbort) as info:
        integrate(EUCLID, runaway, init, 1.0, 1e-3)
    abort = info.value
    assert abort.record.node_count >= 1
    assert abort.node_index < 1000
    assert np.isfinite(abort.record.x).all()
    assert abort.batch_indices == [0]


def test_batch_row_equals_single_run():
    drag = ForceField(EUCLID, ["-0.3*v1*sqrt(v1^2+v2^2)",
                               "-0.3*v2*sqrt(v1^2+v2^2)"])
    rng = np.random.default_rng(31)
    x0 = rng.normal(size=(4, 2))
    v0 = rng.normal(size=(4, 2)) + 0.2
    tau0 = rng.normal(size=(4, 1, 2))
    rho0 = rng.normal(size=(4, 1, 2))
    batch = integrate_batch(EUCLID, drag, x0, v0, tau0, rho0, 0.2, 1e-3)
    for row in range(4):
        init = FlowState(TangentPoint(x0[row], v0[row]),
                         [VariationState(tau0[row, 0], rho0[row, 0])])
        single = integrate(EUCLID, drag, init, 0.2, 1e-3)
        assert np.array_equal(single.x, batch.x[:, row])
        assert np.array_equal(single.v, batch.v[:, row])
        assert np.array_equal(single.tau, batch.tau[:, row])
        assert np.array_equal(single.rho, batch.rho[:, row])

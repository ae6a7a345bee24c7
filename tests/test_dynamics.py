import numpy as np
import pytest

from frontshift.dynamics import (DynamicsError, IntegrationAbort, _rhs,
                                 integrate_batch)
from frontshift.geometry import (ForceField, Manifold, at_point,
                                 extended_gradients, vecmat)
from frontshift.selfcheck import (VARIATION_CASES, _twin_errors,
                                  variation_errors)
from frontshift.systems import BUNDLED
from oracles import covariant_rate, rk4_per_quantity, run_one
from test_geometry import owner
from test_rhs_reference import CHARTS

EUCLID = Manifold(2, [["1", "0"], ["0", "1"]])
POLAR = Manifold(2, [["1", "0"], ["0", "x1^2"]])
SPHERE = Manifold(2, [["1", "0"], ["0", "sin(x1)^2"]])
ZERO = ForceField(EUCLID, ["0", "0"])
HARMONIC = ForceField(EUCLID, ["-x1", "-x2"])


def newton_rhs(man, force, x, v):
    """(dx, dv) of the flow at one point: dx = v, dv = F - gamma(v, v)."""
    empty = np.zeros((0, man.dimension))
    dx, dv, _, _ = at_point(_rhs, man, force, x, v, empty, empty, 1.0)
    return dx, dv


def force_rate(man, force, xs, vs):
    """Covariant rate of the force along the flow through (xs, vs), by the
    chain rule: v . spatial + F . velocity."""
    spatial, velocity = extended_gradients(man, force, xs, vs)
    return (vecmat(vs, spatial)
            + vecmat(force.components(xs, vs), velocity))


def _s3_drag_batch(nb=6):
    metric, force_src, box = CHARTS["S3"]
    man = Manifold(3, metric)
    rng = np.random.default_rng(43)
    lo, hi = np.array(box).T
    x0 = lo + (hi - lo) * rng.random((nb, 3))
    return (man, ForceField(man, force_src), x0, rng.normal(size=(nb, 3)),
            rng.normal(size=(nb, 2, 3)), rng.normal(size=(nb, 2, 3)))


def test_rk4_stage_is_one_jet_one_riemann_no_lapack(monkeypatch):
    man, force, x0, v0, tau0, rho0 = _s3_drag_batch()
    calls = {}

    def count(cls, name):
        real = getattr(cls, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    for name in ("metric", "metric_partials", "metric_second_partials",
                 "christoffel", "christoffel_partials", "riemann"):
        count(Manifold, name)
    for name in ("jet", "first_order_jet", "jacobians", "components"):
        count(ForceField, name)
    count(np.linalg, "inv")
    # every tensor a stage reads is a view of the one array the jet's
    # generated call fills: no gather copies any of them out
    owners = []
    jet = ForceField.jet

    def viewed(self, xs, vs):
        tensors = jet(self, xs, vs)
        owners.append({id(owner(a)) for a in tensors})
        return tensors
    monkeypatch.setattr(ForceField, "jet", viewed)
    steps = 5
    integrate_batch(man, force, x0, v0, tau0, rho0, steps * 1e-2, 1e-2)
    assert calls == {"jet": 4 * steps, "riemann": 4 * steps,
                     "first_order_jet": 0, "metric": 0,
                     "metric_partials": 0, "metric_second_partials": 0,
                     "christoffel": 0, "christoffel_partials": 0,
                     "jacobians": 0, "inv": 0, "components": 0}
    assert len(owners) == 4 * steps and all(len(o) == 1 for o in owners)
    # without variations each stage makes the same jet call and stops
    # after dv
    for name in calls:
        calls[name] = 0
    integrate_batch(man, force, x0, v0, tau0[:, :0], rho0[:, :0],
                    steps * 1e-2, 1e-2)
    assert {name: k for name, k in calls.items() if k} == {
        "jet": 4 * steps}


def test_flow_does_not_depend_on_the_variations():
    man, force, x, v, tau, rho = _s3_drag_batch()
    with_variations = _rhs(man, force, x, v, tau, rho, 1.0)
    flow_only = _rhs(man, force, x, v, tau[:, :0], rho[:, :0], 1.0)
    for a, b in zip(with_variations[:2], flow_only[:2], strict=True):
        assert np.array_equal(a, b)
    assert flow_only[2].shape == flow_only[3].shape == (len(x), 0, 3)


def test_curvature_term_is_what_riemann_returns(monkeypatch):
    # the benchmark's curvature flip negates Manifold.riemann; that must
    # act on the RHS exactly as the riemann_sign debug hook does
    man, force, x, v, tau, rho = _s3_drag_batch()
    flipped = _rhs(man, force, x, v, tau, rho, -1.0)
    riemann = Manifold.riemann
    monkeypatch.setattr(Manifold, "riemann",
                        lambda self, *a, **k: -riemann(self, *a, **k))
    negated = _rhs(man, force, x, v, tau, rho, 1.0)
    for a, b in zip(flipped, negated, strict=True):
        assert np.array_equal(a, b)
    assert not np.array_equal(flipped[3],
                              _rhs(man, force, x, v, tau, rho, -1.0)[3])


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


def test_integrate_harmonic_oracle():
    # closed form x = (cos t, sin t); step chosen so t_end is a grid point
    steps = 1571
    h = (np.pi / 2) / steps
    rec = run_one(EUCLID, HARMONIC, [1.0, 0.0], [0.0, 1.0], np.pi / 2, h)
    assert np.abs(rec.x[-1] - np.array([np.cos(np.pi / 2), 1.0])).max() < 1e-10
    assert np.abs(rec.v[-1] - np.array([-1.0, np.cos(np.pi / 2)])).max() < 1e-10


def test_integrate_straight_line_exact():
    rec = run_one(EUCLID, ZERO, [0.0, 0.0], [1.0, 2.0], 1.0, 1e-3)
    assert np.abs(rec.x[-1] - np.array([1.0, 2.0])).max() < 1e-12


def test_integrate_rejects_offgrid_t_end():
    for t_end, h in ((1.0005, 1e-3), (1.0, -1e-3)):
        with pytest.raises(DynamicsError):
            run_one(EUCLID, ZERO, [0.0, 0.0], [1.0, 0.0], t_end, h)


def test_integrate_harmonic_variation_closed_form():
    rec = run_one(EUCLID, HARMONIC, [1.0, 0.0], [0.0, 1.0], 2.0, 1e-3,
                  tau=[[0.0, 0.0]], rho=[[0.0, 1.0]])
    assert np.abs(rec.tau[:, 0, 1] - np.sin(rec.times)).max() < 1e-11
    assert np.abs(rec.tau[:, 0, 0]).max() < 1e-12
    assert np.abs(rec.rho[:, 0, 1] - np.cos(rec.times)).max() < 1e-11


def test_rk4_fourth_order():
    errs = []
    for h in (4e-3, 2e-3):
        rec = run_one(EUCLID, HARMONIC, [1.0, 0.0], [0.0, 1.0], 2.0, h)
        exact = np.stack([np.cos(rec.times), np.sin(rec.times)], axis=1)
        errs.append(np.abs(rec.x - exact).max())
    ratio = errs[0] / errs[1]
    assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2


def test_sphere_geodesic_speed_conserved():
    force = ForceField(SPHERE, ["0", "0"])
    rec = run_one(SPHERE, force, [np.pi / 2, 0.0], [0.3, 1.0], 2.0, 1e-3)
    g = SPHERE.metric(rec.x)
    speeds = np.sqrt(np.einsum('bij,bi,bj->b', g, rec.v, rec.v))
    assert np.abs(speeds - speeds[0]).max() < 1e-10


def test_speed_monotone_under_drag():
    drag = ForceField(EUCLID, ["-0.3*v1*sqrt(v1^2+v2^2)",
                               "-0.3*v2*sqrt(v1^2+v2^2)"])
    rec = run_one(EUCLID, drag, [0.0, 0.0], [1.0, 0.7], 2.0, 1e-3)
    speeds = np.linalg.norm(rec.v, axis=1)
    assert np.all(np.diff(speeds) <= 1e-15)


def test_covariant_rate_plain_derivative_euclidean():
    rec = run_one(EUCLID, ZERO, [0.0, 0.0], [1.0, 0.0], 1.0, 1e-3)
    const_series = np.tile([0.3, -0.7], (rec.node_count, 1))
    rate = covariant_rate(EUCLID, rec, const_series)
    assert np.abs(rate).max() < 1e-10


def test_covariant_rate_harmonic_variation():
    rec = run_one(EUCLID, HARMONIC, [1.0, 0.0], [0.0, 1.0], 2.0, 1e-3,
                  tau=[[0.0, 0.0]], rho=[[0.0, 1.0]])
    rate = covariant_rate(EUCLID, rec, rec.tau[:, 0])
    assert np.abs(rate[:, 1] - np.cos(rec.times)).max() < 1e-6


def test_covariant_rate_needs_three_nodes():
    rec = run_one(EUCLID, ZERO, [0.0, 0.0], [1.0, 0.0], 1e-3, 1e-3)
    with pytest.raises(ValueError):
        covariant_rate(EUCLID, rec, rec.v)


def test_nabla_t_force_harmonic():
    xs, vs = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    assert np.allclose(force_rate(EUCLID, HARMONIC, xs, vs), [[0.0, -1.0]],
                       atol=1e-15)
    assert np.abs(force_rate(EUCLID, ZERO, xs, vs)).max() == 0.0


def test_force_chain_rule_matches_trajectory_oracle():
    # the test that pins the spatial-gradient convention: compare the
    # pointwise chain rule against differencing the force series along a
    # trajectory
    speed = "sqrt(v1^2 + x1^2*v2^2)"
    drag = ForceField(POLAR, [f"-0.3*{speed}*v1", f"-0.3*{speed}*v2"])
    rec = run_one(POLAR, drag, [2.0, 0.3], [0.4, 0.5], 1.0, 1e-3)
    oracle = covariant_rate(POLAR, rec, drag.components(rec.x, rec.v))
    direct = force_rate(POLAR, drag, rec.x[::50], rec.v[::50])
    assert np.abs(direct - oracle[::50]).max() < 1e-5


def test_variation_matches_finite_differences():
    e3 = variation_errors(EUCLID, HARMONIC, np.array([1.0, 0.0]),
                          np.array([0.0, 1.0]), 1e-3)
    e4 = variation_errors(EUCLID, HARMONIC, np.array([1.0, 0.0]),
                          np.array([0.0, 1.0]), 1e-4)
    assert e3 < 1e-5
    assert 50.0 <= e3 / e4 <= 200.0


def test_twin_batch_is_each_step_alone_bit_for_bit():
    # the selftest integrates the base row and both twin pairs as one
    # batch; rows are independent, so each error is the one a batch of
    # its own three rows gives, with either curvature sign
    man, force = BUNDLED["sphere-free"].build()
    x0, v0 = VARIATION_CASES["sphere-free"]
    for sign in (1.0, -1.0):
        got = _twin_errors(man, force, x0, v0, (1e-3, 1e-4), 0.3, 1e-3, sign)
        assert got == [variation_errors(man, force, x0, v0, du, t_end=0.3,
                                        riemann_sign=sign)
                       for du in (1e-3, 1e-4)]


def test_integration_abort_keeps_partial_record():
    # cubic feedback escapes to infinity in finite time
    runaway = ForceField(EUCLID, ["x1^3", "0"])
    with pytest.raises(IntegrationAbort) as info:
        run_one(EUCLID, runaway, [2.0, 0.0], [5.0, 0.0], 1.0, 1e-3)
    abort = info.value
    assert abort.record.node_count >= 1
    assert abort.node_index < 1000
    assert np.isfinite(abort.record.x).all()
    assert abort.batch_indices == [0]
    # no variations are carried, so only the flow itself can run away
    assert abort.quantities == ["x", "v"]
    assert str(abort).startswith("non-finite state (x, v) after node")


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
        single = run_one(EUCLID, drag, x0[row], v0[row], 0.2, 1e-3,
                         tau=tau0[row], rho=rho0[row])
        assert np.array_equal(single.x, batch.x[:, row])
        assert np.array_equal(single.v, batch.v[:, row])
        assert np.array_equal(single.tau, batch.tau[:, row])
        assert np.array_equal(single.rho, batch.rho[:, row])


FIELDS = ("times", "x", "v", "tau", "rho")


@pytest.mark.parametrize("nvar", [2, 0])
@pytest.mark.parametrize("chart", ["S2", "skew3"])
def test_packed_state_is_the_per_quantity_loop(chart, nvar):
    metric, force_src, box = CHARTS[chart]
    n = len(metric)
    man = Manifold(n, metric)
    force = ForceField(man, force_src)
    rng = np.random.default_rng([29, n, nvar])
    lo, hi = np.array(box).T
    x0 = lo + (hi - lo) * rng.random((7, n))
    v0 = rng.normal(size=(7, n))
    tau0, rho0 = rng.normal(size=(2, 7, nvar, n))
    packed = integrate_batch(man, force, x0, v0, tau0, rho0, 0.1, 1e-2)
    loop = rk4_per_quantity(man, force, x0, v0, tau0, rho0, 0.1, 1e-2)
    for name in FIELDS:
        assert np.array_equal(getattr(packed, name), getattr(loop, name)), \
            name
    assert packed.tau.shape == (11, 7, nvar, n)
    # x, v, tau and rho are views of one history array
    assert np.may_share_memory(packed.x, packed.v)


def test_packed_abort_is_the_per_quantity_abort():
    # rows 1 and 3 run away, mirror images of each other, at the same
    # step; their variations follow them to inf/nan
    runaway = ForceField(EUCLID, ["x1^3", "0"])
    x0 = np.array([[0.1, 0.0], [2.0, 0.0], [0.0, 1.0], [-2.0, 0.5]])
    v0 = np.array([[0.1, 0.0], [5.0, 0.0], [0.2, 0.1], [-5.0, 0.0]])
    rng = np.random.default_rng(8)
    tau0, rho0 = rng.normal(size=(2, 4, 2, 2))
    aborts = []
    for run in (integrate_batch, rk4_per_quantity):
        with pytest.raises(IntegrationAbort) as info:
            run(EUCLID, runaway, x0, v0, tau0, rho0, 1.0, 1e-3)
        aborts.append(info.value)
    packed, loop = aborts
    assert (packed.node_index, packed.batch_indices, packed.quantities) == \
        (loop.node_index, loop.batch_indices, loop.quantities)
    assert packed.batch_indices == [1, 3]
    assert packed.quantities == ["x", "v", "tau", "rho"]
    assert str(packed) == str(loop)
    for name in FIELDS:
        assert np.array_equal(getattr(packed.record, name),
                              getattr(loop.record, name)), name

import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from frontshift import dynamics
from frontshift.dynamics import (DynamicsError, IntegrationAbort,
                                 integrate_batch)
from frontshift.geometry import (ForceField, Manifold, _koszul, at_point,
                                 extended_gradients)
from frontshift.selfcheck import (VARIATION_CASES, _twin_errors,
                                  variation_errors)
from frontshift.systems import BUNDLED
from oracles import (covariant_rate, rhs, rk4_per_quantity, run_one, spray,
                     three_products)
from test_geometry import JET_CHARTS, _chart_points, owner
from test_rhs_reference import CHARTS

EUCLID = Manifold(2, [["1", "0"], ["0", "1"]])
POLAR = Manifold(2, [["1", "0"], ["0", "x1^2"]])
SPHERE = Manifold(2, [["1", "0"], ["0", "sin(x1)^2"]])
ZERO = ForceField(EUCLID, ["0", "0"])
HARMONIC = ForceField(EUCLID, ["-x1", "-x2"])


def newton_rhs(man, force, x, v):
    """(dx, dv) of the flow at one point: dx = v, dv = F - gamma(v, v)."""
    empty = np.zeros((0, man.dimension))
    dx, dv, _, _ = at_point(rhs, man, force, x, v, empty, empty, 1.0)
    return dx, dv


def force_rate(man, force, xs, vs):
    """Covariant rate of the force along the flow through (xs, vs), by the
    chain rule: v . spatial + F . velocity."""
    spatial, velocity = (np.moveaxis(a, -1, 0)
                         for a in extended_gradients(man, force, xs, vs))
    return (vs[:, None, :] @ spatial
            + force.components(xs, vs)[:, None, :] @ velocity)[:, 0]


def _chart_batch(chart, nb, nvar=None, seed=43):
    """(man, force, x0, v0, tau0, rho0) of nb random rows on a chart of
    ``JET_CHARTS``, with n - 1 variations by default."""
    metric, force_src, box = JET_CHARTS[chart]
    n = len(metric)
    man = Manifold(n, metric)
    rng = np.random.default_rng([seed, nb, n])
    lo, hi = np.array(box).T
    x0 = lo + (hi - lo) * rng.random((nb, n))
    tau0, rho0 = rng.normal(size=(2, nb, n - 1 if nvar is None else nvar, n))
    return (man, ForceField(man, force_src), x0,
            0.5 * rng.normal(size=(nb, n)), tau0, rho0)


def _s3_drag_batch(nb=6):
    return _chart_batch("S3", nb)


def _block_steps(nb):
    """The steps of one block at batch size nb."""
    return max(1, dynamics.BLOCK_POINTS // (4 * nb))


def test_rk4_block_is_four_flow_calls_a_step_one_coefficient_call(
        monkeypatch):
    man, force, x0, v0, tau0, rho0 = _s3_drag_batch()
    calls = {}

    def count(owner, name):
        real = getattr(owner, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in ("metric", "metric_partials", "metric_second_partials",
                 "christoffel", "christoffel_partials"):
        count(Manifold, name)
    for name in ("first_order_jet", "jacobians", "components"):
        count(ForceField, name)
    count(np.linalg, "inv")
    count(dynamics, "extended_gradients")
    # the contracted form only: every riemann call passes the record
    riemann = Manifold.riemann
    calls["riemann(record=)"] = 0

    def contracted(self, xs, **kwargs):
        calls["riemann(record=)"] += kwargs["record"] is not None
        return riemann(self, xs, **kwargs)
    monkeypatch.setattr(Manifold, "riemann", contracted)
    # every array a stage or a coefficient call writes is a view of the
    # workspace: each call writes into the array it is given, and each
    # field of the variation record is a view of it
    owners = {"flow_jet": [], "variation_jet": []}

    def viewed(name):
        real = getattr(ForceField, name)

        def call(self, xs, vs, out=None, registers=None):
            written = real(self, xs, vs, out=out, registers=registers)
            fields = (list(written.values()) if isinstance(written, dict)
                      else [written])
            owners[name].append(tuple(id(owner(a))
                                      for a in (*fields, out, xs)))
            return written
        monkeypatch.setattr(ForceField, name, call)
    viewed("flow_jet")
    viewed("variation_jet")
    # two whole blocks and a partial one
    block = _block_steps(len(x0))
    steps = 2 * block + 3
    integrate_batch(man, force, x0, v0, tau0, rho0, steps * 1e-3, 1e-3)
    assert {name: len(seen) for name, seen in owners.items()} == {
        "flow_jet": 4 * steps, "variation_jet": 3}
    assert calls == {"riemann(record=)": 3, "extended_gradients": 3,
                     "first_order_jet": 0, "metric": 0,
                     "metric_partials": 0, "metric_second_partials": 0,
                     "christoffel": 0, "christoffel_partials": 0,
                     "jacobians": 0, "inv": 0, "components": 0}
    workspaces = {own for seen in owners.values() for triple in seen
                  for own in triple}
    # the stage points, the stage rates the flow call writes its
    # acceleration into, and the coefficient records: three arrays for
    # the whole integration, none of them per block
    assert len(workspaces) == 3
    assert all(len(set(ids[:-1])) == 1 for seen in owners.values()
               for ids in seen)
    # without variations only the flow runs
    for seen in owners.values():
        seen.clear()
    integrate_batch(man, force, x0, v0, tau0[:, :0], rho0[:, :0],
                    steps * 1e-3, 1e-3)
    assert {name: len(seen) for name, seen in owners.items()} == {
        "flow_jet": 4 * steps, "variation_jet": 0}
    assert calls["riemann(record=)"] == calls["extended_gradients"] == 3


def test_a_flow_stage_is_one_generated_call(monkeypatch):
    # the Python functions of the package a flow-only integration enters:
    # per stage the flow call (its argument rows and its generated code)
    # and nothing else, no contraction of the connection and no record;
    # once per integration, the flow call's registers
    # (``ForceField.registers`` and the callable's own)
    man, force, x0, v0, tau0, rho0 = _s3_drag_batch()
    src = str(Path(dynamics.__file__).parent)
    entered = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and (code.co_filename.startswith(src)
                                or code.co_name == "_compiled"):
            entered[code.co_name] += 1
    steps = _block_steps(len(x0)) + 2
    force.flow_jet(x0.T, v0.T)  # compiled outside the profile
    sys.setprofile(profile)
    try:
        integrate_batch(man, force, x0, v0, tau0[:, :0], rho0[:, :0],
                        steps * 1e-3, 1e-3)
    finally:
        sys.setprofile(None)
    assert entered == {"integrate_batch": 1, "split": 2, "_block_steps": 1,
                       "__init__": 1, "flow": 2, "flow_jet": 4 * steps,
                       "_compiled": 4 * steps, "registers": 2}


@pytest.mark.parametrize("nb, steps, nvar", [
    (6, 2 * 85 + 3, 2), (6, 50, 0), (128, 9, 1), (512, 3, 1),
    (1000, 3, 1), (2100, 2, 1)])
def test_integration_work_is_the_calls_made(nb, steps, nvar, monkeypatch):
    # partial blocks, a block of exactly BLOCK_POINTS points, and steps
    # larger than a block
    man, force, x0, v0, tau0, rho0 = _chart_batch("S2", nb, nvar)
    made = Counter()

    def counted(name):
        real = getattr(ForceField, name)

        def call(self, xs, vs, out=None, registers=None):
            made[name] += 1
            made[name, "points"] += xs.shape[1]
            return real(self, xs, vs, out=out, registers=registers)
        monkeypatch.setattr(ForceField, name, call)
    counted("flow_jet")
    counted("variation_jet")
    integrate_batch(man, force, x0, v0, tau0, rho0, steps * 1e-3, 1e-3)
    assert dynamics.integration_work(nb, nvar, steps) == {
        "flow_calls": made["flow_jet"],
        "coefficient_calls": made["variation_jet"],
        "coefficient_points": made["variation_jet", "points"]}


@pytest.mark.parametrize("points", [1, 20, 2048])
@pytest.mark.parametrize("chart", sorted(JET_CHARTS))
def test_coefficients_are_the_einsum_composition_of_the_oracles(chart,
                                                                points):
    # the four blocks of the block's rate matrices, formed batch-last and
    # stored batch-first, against einsums over the batch-first oracle
    # pieces: the full curvature tensor, the per-quantity Jacobians and
    # the numeric spray, in 2-D, 3-D and 4-D
    man, force, xs, vs = _chart_points(chart, nb=points)
    n, sign = man.dimension, -1.0
    stages = dynamics._Stages(man, force, np.zeros((1, 4 * n)), 1, points,
                              sign)
    stages.points[:n], stages.points[n:] = xs.T, vs.T
    stages.coefficients(0, points)
    ginv = np.linalg.inv(man.metric(xs))
    koszul = _koszul(man.metric_partials(xs)).transpose(0, 2, 3, 1)
    along = spray(ginv, koszul, vs, force.components(xs, vs))
    dfdx, dfdv = force.jacobians(xs, vs)
    spatial = (dfdx - np.einsum('bij,bjk->bik', along["gam_v"], dfdv)
               + along["gam_f"])
    jacobi = np.einsum('bkmsr,bm,br->bks', man.riemann(xs), vs, vs)
    rates = stages.rates
    assert rates.shape == (points, 2 * n, 2 * n)
    blocks = dict(connection=(rates[:, :n, :n], -along["gam_v"]),
                  curvature=(rates[:, :n, n:],
                             spatial - sign * jacobi.swapaxes(1, 2)),
                  velocity=(rates[:, n:, n:], dfdv - along["gam_v"]))
    for name, (got, ref) in blocks.items():
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), name
    # the identity block is the workspace's, written when it is allocated
    assert np.array_equal(rates[:, n:, :n],
                          np.broadcast_to(np.eye(n), (points, n, n)))


@pytest.mark.parametrize("riemann_sign", [1.0, -1.0])
@pytest.mark.parametrize("chart", sorted(JET_CHARTS))
def test_one_product_stage_is_the_three_product_stage(chart, riemann_sign):
    # one product of [tau_j, rho_j] with the rate matrix adds the same
    # terms as the three products, in another order
    man, force, xs, vs = _chart_points(chart, nb=64)
    rng = np.random.default_rng([47, man.dimension])
    tau, rho = rng.normal(size=(2, len(xs), man.dimension - 1,
                                man.dimension))
    got = rhs(man, force, xs, vs, tau, rho, riemann_sign)[2:]
    want = three_products(man, force, xs, vs, tau, rho, riemann_sign)
    for name, a, b in zip(("dtau", "drho"), got, want, strict=True):
        assert a.shape == b.shape, name
        assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max(), name


def test_flow_does_not_depend_on_the_variations():
    man, force, x, v, tau, rho = _s3_drag_batch()
    with_variations = integrate_batch(man, force, x, v, tau, rho, 0.05, 1e-2)
    flow_only = integrate_batch(man, force, x, v, tau[:, :0], rho[:, :0],
                                0.05, 1e-2)
    assert np.array_equal(with_variations.x, flow_only.x)
    assert np.array_equal(with_variations.v, flow_only.v)
    assert flow_only.tau.shape == flow_only.rho.shape == (6, len(x), 0, 3)


def test_curvature_term_is_what_riemann_returns(monkeypatch):
    # the benchmark's curvature flip negates Manifold.riemann; that must
    # act on the whole record exactly as the riemann_sign debug hook does
    man, force, x, v, tau, rho = _s3_drag_batch()
    steps = _block_steps(len(x)) + 2
    flipped = integrate_batch(man, force, x, v, tau, rho, steps * 1e-2,
                              1e-2, riemann_sign=-1.0)
    riemann = Manifold.riemann
    monkeypatch.setattr(Manifold, "riemann",
                        lambda self, *a, **k: -riemann(self, *a, **k))
    negated = integrate_batch(man, force, x, v, tau, rho, steps * 1e-2, 1e-2)
    for name in FIELDS:
        assert np.array_equal(getattr(flipped, name),
                              getattr(negated, name)), name
    monkeypatch.setattr(Manifold, "riemann", riemann)
    plain = integrate_batch(man, force, x, v, tau, rho, steps * 1e-2, 1e-2)
    assert not np.array_equal(flipped.rho, plain.rho)


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


def test_integrate_rejects_an_empty_batch():
    empty = np.zeros((0, 2))
    with pytest.raises(DynamicsError):
        integrate_batch(EUCLID, ZERO, empty, empty, np.zeros((0, 1, 2)),
                        np.zeros((0, 1, 2)), 1.0, 1e-3)


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


def test_one_row_one_variation_keeps_its_first_node():
    # with one variation (here at B = 1) the interleaved rows [tau, rho]
    # of the first node are already contiguous; the variations' state is a
    # copy of them, not a view, so the steps leave node 0 as it was given
    man, force, x0, v0, tau0, rho0 = _chart_batch("S2", 1, 1)
    rec = integrate_batch(man, force, x0, v0, tau0, rho0, 0.05, 1e-2)
    for name, given in (("x", x0), ("v", v0), ("tau", tau0), ("rho", rho0)):
        assert np.array_equal(getattr(rec, name)[0], given), name
    assert not np.array_equal(rec.tau[1], tau0)


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
    # the flow runs ahead of the variations; the abort falls in a later
    # block than the first
    assert packed.node_index >= 2 * _block_steps(len(x0))
    assert str(packed) == str(loop)
    for name in FIELDS:
        assert np.array_equal(getattr(packed.record, name),
                              getattr(loop.record, name)), name


def test_curved_runaway_names_every_quantity():
    # on a flat chart tau's rate is rho exactly (every connection entry is
    # the constant 0.0), and the blow-up's abort in tests/test_cli.py
    # leaves tau finite; a cubic runaway on S^2, launched the same way
    # (tau = 0), still carries x, v, tau and rho to inf/nan at one step
    runaway = ForceField(SPHERE, ["v1^3", "0"])
    x0 = np.array([[2.0, 0.0], [2.0, 0.0]])
    v0 = np.array([[5.0, 0.0], [5.0 * np.cos(0.3), 5.0 * np.sin(0.3)]])
    tau0 = np.zeros((2, 1, 2))
    rho0 = 5.0 * np.array([[[0.0, 1.0]], [[-np.sin(0.3), np.cos(0.3)]]])
    aborts = []
    for run in (integrate_batch, rk4_per_quantity):
        with pytest.raises(IntegrationAbort) as info:
            run(SPHERE, runaway, x0, v0, tau0, rho0, 1.0, 1e-3)
        aborts.append(info.value)
    packed, loop = aborts
    assert packed.quantities == ["x", "v", "tau", "rho"]
    assert packed.batch_indices == [0]
    assert str(packed) == str(loop)
    for name in FIELDS:
        assert np.array_equal(getattr(packed.record, name),
                              getattr(loop.record, name)), name


def test_flow_stops_at_the_step_that_aborts(monkeypatch):
    # the flow runs ahead of the variations, but not past a non-finite
    # node: no generated call sees a point beyond the step that aborts
    runaway = ForceField(EUCLID, ["x1^3", "0"])
    x0 = np.array([[0.1, 0.0], [2.0, 0.0]])
    v0 = np.array([[0.1, 0.0], [5.0, 0.0]])
    calls = []
    flow_jet = ForceField.flow_jet
    monkeypatch.setattr(ForceField, "flow_jet", lambda self, *a, **k: (
        calls.append(1), flow_jet(self, *a, **k))[1])
    with pytest.raises(IntegrationAbort) as info:
        integrate_batch(EUCLID, runaway, x0, v0, np.zeros((2, 1, 2)),
                        np.ones((2, 1, 2)), 1.0, 1e-3)
    assert info.value.node_index % _block_steps(2) != 0
    assert len(calls) == 4 * (info.value.node_index + 1)


def test_variation_abort_in_a_later_block_is_the_per_quantity_abort():
    # tau = tau0 + t rho0 overflows near t = 0.39 in row 2 while every
    # flow stays finite, and the flow has run ahead to the block's end
    x0 = np.zeros((4, 2))
    v0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1.0, 1.0]])
    tau0, rho0 = np.zeros((2, 4, 1, 2))
    tau0[2, 0, 0], rho0[2, 0, 0] = 1.7e308, 2.5e307
    aborts = []
    for run in (integrate_batch, rk4_per_quantity):
        with pytest.raises(IntegrationAbort) as info:
            run(EUCLID, ZERO, x0, v0, tau0, rho0, 1.0, 1e-3)
        aborts.append(info.value)
    packed, loop = aborts
    # inf tau times the zero coefficients makes drho nan at the same step
    assert (packed.batch_indices, packed.quantities) == ([2], ["tau", "rho"])
    assert packed.node_index % _block_steps(4) != 0
    assert packed.node_index >= 2 * _block_steps(4)
    assert str(packed) == str(loop)
    for name in FIELDS:
        assert np.array_equal(getattr(packed.record, name),
                              getattr(loop.record, name)), name


@pytest.mark.parametrize("nvar", [None, 0])
@pytest.mark.parametrize("chart", ["S2", "S3", "S4"])
def test_blocks_are_the_per_quantity_loop(chart, nvar):
    # three whole blocks of 4B stage points and a partial fourth at B = 5,
    # n = 2, 3 and 4, with and without variations
    man, force, x0, v0, tau0, rho0 = _chart_batch(chart, 5, nvar)
    steps = 3 * _block_steps(5) + 7
    packed = integrate_batch(man, force, x0, v0, tau0, rho0, steps * 1e-3,
                             1e-3)
    loop = rk4_per_quantity(man, force, x0, v0, tau0, rho0, steps * 1e-3,
                            1e-3)
    for name in FIELDS:
        assert np.array_equal(getattr(packed, name), getattr(loop, name)), \
            name


@pytest.mark.parametrize("nb", [1000, 2100])
@pytest.mark.parametrize("chart", ["S2", "S4"])
def test_a_step_larger_than_a_block_is_the_per_quantity_loop(chart, nb):
    # 4B above BLOCK_POINTS: a block is one step, and the coefficients
    # are formed once BLOCK_POINTS points are pending, in calls of at
    # most BLOCK_POINTS.  At B = 1000 the first three stages go in a full
    # call and a partial one and the fourth at the step's end; at
    # B = 2100 each stage goes in a full call and a partial one
    assert 2 * 1000 < dynamics.BLOCK_POINTS < 3 * 1000 < 2 * 2100
    man, force, x0, v0, tau0, rho0 = _chart_batch(chart, nb)
    packed = integrate_batch(man, force, x0, v0, tau0, rho0, 3e-3, 1e-3)
    loop = rk4_per_quantity(man, force, x0, v0, tau0, rho0, 3e-3, 1e-3)
    for name in FIELDS:
        assert np.array_equal(getattr(packed, name), getattr(loop, name)), \
            name


def test_workspace_does_not_grow_with_the_steps():
    # B = 64 fills a block with 8 steps at either length; what the
    # integration holds beyond its history is the same at 50 and at 500
    # (the first long run in a process allocates about 0.1 MiB more once,
    # so each length is measured after a run of its own)
    man, force, x0, v0, tau0, rho0 = _chart_batch("S3", 64)
    extra = {}
    for steps in (50, 500, 50, 500):
        tracemalloc.start()
        try:
            rec = integrate_batch(man, force, x0, v0, tau0, rho0,
                                  steps * 1e-3, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra[steps] = peak - owner(rec.x).nbytes
    assert abs(extra[50] - extra[500]) <= 64 * 1024, extra

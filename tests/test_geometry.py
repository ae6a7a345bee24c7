import tracemalloc

import numpy as np
import pytest

from frontshift.exprlang import Const
from frontshift.geometry import (ForceField, Manifold,
                                 NonPositiveDefiniteError, ZeroVelocityError,
                                 _koszul, at_point, check_positive_definite,
                                 extended_gradients)
from oracles import adjugate_inverse, spray
from test_rhs_reference import CHARTS, drag, sphere

EUCLID = Manifold(2, [["1", "0"], ["0", "1"]])
POLAR = Manifold(2, [["1", "0"], ["0", "x1^2"]])
SPHERE = Manifold(2, [["1", "0"], ["0", "sin(x1)^2"]])


def _metric_checked(man, x):
    """(g, g^-1) at one point, positive-definiteness checked."""
    g = at_point(man.metric, x)
    check_positive_definite(x, g)
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


def _frame_at(man, x, v):
    """Manifold.frame at one point, given as a batch of one on the last
    axis, under the metric there; the batch axis is stripped from each
    result."""
    g = man.metric(np.array([x], dtype=float))
    return tuple(a[..., 0] for a in man.frame(
        np.array(v, dtype=float)[:, None], np.moveaxis(g, 0, -1)))


def _frame_first(man, vs, g):
    """Manifold.frame of batch-first velocities and metric, each result
    with its batch axis moved first."""
    return tuple(np.moveaxis(a, -1, 0)
                 for a in man.frame(vs.T, np.moveaxis(g, 0, -1)))


def test_frame_euclidean():
    speed, unit, _, proj = _frame_at(EUCLID, [0.0, 0.0], [0.0, 2.0])
    assert speed == 2.0
    assert np.array_equal(unit, [0.0, 1.0])
    assert np.array_equal(proj, [[1.0, 0.0], [0.0, 0.0]])


def test_frame_curved_hand_values():
    man = Manifold(2, [["1", "0"], ["0", "4"]])
    speed, unit, unit_cov, proj = _frame_at(man, [2.0, 0.0], [0.0, 1.0])
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
        speed, unit, _, p = _frame_first(man, vs, g)
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
    speed, unit, unit_cov, proj = _frame_first(SKEW, vs, g)
    assert np.abs(np.einsum('bri,bij->brj', proj, proj) - proj).max() < 1e-12
    assert np.abs(np.einsum('bri,bi->br', proj, vs)).max() < 1e-11
    assert np.abs(np.einsum('bij,bi,bj->b', g, unit, unit) - 1.0).max() < 1e-12


def test_frame_zero_velocity_error():
    with pytest.raises(ZeroVelocityError):
        _frame_at(EUCLID, [0.0, 0.0], [0.0, 0.0])


def _gradients_at(man, force, x, v):
    """extended_gradients at one point, (spatial[i, k], velocity[i, k]):
    the batch axis, last, stripped."""
    return tuple(a[..., 0] for a in extended_gradients(
        man, force, np.array([x], dtype=float), np.array([v], dtype=float)))


def test_gradients_position_force():
    force = ForceField(EUCLID, ["-x1", "-x2"])
    spatial, velocity = _gradients_at(EUCLID, force, [0.3, 0.4], [1.0, 2.0])
    assert np.allclose(spatial, -np.eye(2), atol=0)
    assert np.abs(velocity).max() == 0.0


def test_gradients_velocity_force():
    force = ForceField(EUCLID, ["0.5*v1", "0.5*v2"])
    spatial, velocity = _gradients_at(EUCLID, force, [0.3, 0.4], [1.0, 2.0])
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


# the RHS charts, a non-diagonal 2-D chart, and round S^4 and a dense
# 4-D chart
JET_CHARTS = dict(
    CHARTS,
    skew2=([["1 + x2^2", "0.1*x1*x2"], ["0.1*x1*x2", "2 + x1^2"]],
           ["-0.2*v1*sqrt(v1^2 + v2^2) + 0.1*x2", "sin(x1)*v2 - x1"],
           [(-1.0, 1.0)] * 2),
    S4=(sphere(4), drag(sphere(4)), [(0.6, 2.5)] * 3 + [(0.0, 6.0)]),
    # every metric entry position dependent, every ddg slot in play
    dense4=([["3 + x1^2", "0.2*x1*x2", "0.1*sin(x3)", "0.1*x2*x4"],
             ["0.2*x1*x2", "3 + cos(x2)", "0.15*cos(x1 + x3)",
              "0.1*x1*x4^2"],
             ["0.1*sin(x3)", "0.15*cos(x1 + x3)", "3 + x3*x4",
              "0.2*x2*x3"],
             ["0.1*x2*x4", "0.1*x1*x4^2", "0.2*x2*x3", "3 + sin(x1*x4)"]],
            ["-0.1*v1*sqrt(v1^2 + v2^2 + v3^2 + v4^2) + 0.1*x2*v3",
             "sin(x1)*v2 - 0.1*x3*v4^2", "-x3 + 0.05*v1*v2*cos(x4)",
             "0.2*x1*v4 - v2*v3"],
            [(-0.8, 0.8)] * 4))


def _chart_points(chart, nb=40):
    metric, force_src, box = JET_CHARTS[chart]
    n = len(metric)
    man = Manifold(n, metric)
    rng = np.random.default_rng([29, n, len(chart)])
    lo, hi = np.array(box).T
    xs = lo + (hi - lo) * rng.random((nb, n))
    return man, ForceField(man, force_src), xs, rng.normal(size=(nb, n))


def _ginv_of_both_jets(force, xs, vs):
    """g from the first-order jet, g^-1 from the variation call, and g^-1
    from the first-order jet, the batch axis moved to the front."""
    last = force.first_order_jet(xs.T.copy(), vs.T.copy())
    return tuple(np.moveaxis(a, -1, 0) for a in
                 (last["g"], force.variation_jet(xs.T, vs.T)["ginv"],
                  last["ginv"]))


def _record_linalg_calls(monkeypatch) -> list:
    """The names of the ``np.linalg`` functions called from now on, each
    still doing its work."""
    calls = []
    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, lambda *a, _name=name,
                                _fn=fn, **k: (calls.append(_name),
                                              _fn(*a, **k))[1])
    return calls


@pytest.mark.parametrize("chart", sorted(JET_CHARTS))
def test_inverse_matches_lapack(chart, monkeypatch):
    # g^-1 is generated in every dimension: no jet calls into np.linalg
    man, force, xs, vs = _chart_points(chart)
    n = man.dimension
    g = man.metric(xs)
    ref = np.linalg.inv(g)
    linalg_calls = _record_linalg_calls(monkeypatch)
    g_jet, ginv, last = _ginv_of_both_jets(force, xs, vs)
    force.flow_jet(xs.T, vs.T)
    assert linalg_calls == []
    assert np.array_equal(g_jet, g)
    # each entry of the batch-last field is one contiguous row
    assert ginv.shape == g.shape and ginv.strides[0] == 8
    assert last.tobytes() == ginv.tobytes()
    scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(ginv - ref) <= 1e-13 * scale)
    assert np.abs(g @ ginv - np.eye(n)).max() <= 1e-13


def test_inverse_of_an_ill_conditioned_chart_matches_lapack():
    # dense4 with rows and columns scaled by s, so the diagonal of g runs
    # from about 3e4 down to 3e-4 (condition number 1e8 at these points):
    # the cofactor entries stay within rounding of LAPACK's, measured
    # in the balanced frame s_i s_j g^-1[i, j]
    metric, force_src, box = JET_CHARTS["dense4"]
    s = [1e2, 1e1, 1e-1, 1e-2]
    man = Manifold(4, [[f"{s[i] * s[j]:g}*({metric[i][j]})"
                        for j in range(4)] for i in range(4)])
    force = ForceField(man, force_src)
    rng = np.random.default_rng(41)
    lo, hi = np.array(box).T
    xs = lo + (hi - lo) * rng.random((200, 4))
    g = man.metric(xs)
    assert np.linalg.cond(g).min() > 5e7
    ref = np.linalg.inv(g)
    ginv = np.moveaxis(force.first_order_jet(
        xs.T.copy(), rng.normal(size=(4, 200)))["ginv"], -1, 0)
    balance = np.outer(s, s)
    scale = np.abs(ref * balance).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(ginv - ref) * balance <= 1e-12 * scale)


# E^3 adds a constant chart, whose g^-1 folds to constants
INVERSE_CHARTS = dict(
    {name: JET_CHARTS[name][:2]
     for name in ("S2", "S3", "skew2", "skew3", "S4", "dense4")},
    E3=([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        ["-x1", "-x2", "-x3"]))


@pytest.mark.parametrize("nb", [1, 5, 144, 1024])
@pytest.mark.parametrize("chart", sorted(INVERSE_CHARTS))
def test_generated_inverse_is_the_adjugate_byte_for_byte(chart, nb):
    # the adjugate's products in its order, so the same bytes, signed
    # zeros included (S^2's off-diagonal entries are -0.0); at points
    # where no varying entry of the metric vanishes
    metric, force_src = INVERSE_CHARTS[chart]
    n = len(metric)
    man = Manifold(n, metric)
    force = ForceField(man, force_src)
    rng = np.random.default_rng([37, nb, n])
    xs = rng.uniform(0.6, 0.9, size=(nb, n))
    g, ginv, last = _ginv_of_both_jets(force, xs, rng.normal(size=(nb, n)))
    want = adjugate_inverse(np.ascontiguousarray(g))
    assert ginv.tobytes() == want.tobytes()
    assert last.tobytes() == want.tobytes()
    if chart == "S2":
        assert np.signbit(ginv[:, 0, 1]).all()


def test_inverse_hand_values():
    # constant metrics: every entry of g^-1 folds to a constant
    for metric, want in (
            ([["2", "1"], ["1", "3"]], [[0.6, -0.2], [-0.2, 0.4]]),
            ([["4", "0"], ["0", "0.5"]], [[0.25, -0.0], [-0.0, 2.0]]),
            ([["2", "1", "0"], ["1", "2", "1"], ["0", "1", "2"]],
             np.array([[3.0, -2.0, 1.0], [-2.0, 4.0, -2.0],
                       [1.0, -2.0, 3.0]]) / 4.0),
            ([["2", "1", "0", "0"], ["1", "2", "1", "0"],
              ["0", "1", "2", "1"], ["0", "0", "1", "2"]],
             np.array([[4.0, -3.0, 2.0, -1.0], [-3.0, 6.0, -4.0, 2.0],
                       [2.0, -4.0, 6.0, -3.0],
                       [-1.0, 2.0, -3.0, 4.0]]) / 5.0)):
        man = Manifold(len(metric), metric)
        assert all(isinstance(entry, Const) for entry in man._ginv_asts)
        assert np.allclose([entry.value for entry in man._ginv_asts],
                           np.ravel(want), rtol=0, atol=1e-15)
        force = ForceField(man, ["0"] * len(metric))
        xs = np.zeros((2, len(metric)))
        ginv = np.moveaxis(force.variation_jet(xs.T, xs.T)["ginv"], -1, 0)
        assert np.allclose(ginv, want, rtol=0, atol=1e-15)
        assert np.array_equal(np.signbit(ginv), np.signbit([want] * 2))


def owner(a):
    """The array whose memory a views (a itself when it owns it)."""
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("chart", sorted(JET_CHARTS))
def test_jet_is_the_per_quantity_methods(chart):
    man, force, xs, vs = _chart_points(chart)
    # batch-last points in, contiguous batch-last tensors out
    last = force.first_order_jet(xs.T.copy(), vs.T.copy())
    assert all(a.flags.c_contiguous for a in last.values())
    dfdx, dfdv = force.jacobians(xs, vs)
    want = dict(g=man.metric(xs), f=force.components(xs, vs), dfdx=dfdx,
                dfdv=dfdv)
    for name, b in want.items():
        a = np.moveaxis(last[name], -1, 0)
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name
    # every tensor of the variation call is a view of the rows of the one
    # (K, B) array the call fills, or of the array passed to it
    jet = force.variation_jet(xs.T, vs.T)
    record = force.variation_record
    assert list(jet) == list(record.names)
    assert len({id(owner(a)) for a in jet.values()}) == 1
    assert owner(jet["ginv"]).shape == (record.size, len(xs))
    out = np.empty((record.size, len(xs) + 2))
    rows = force.variation_jet(xs.T, vs.T, out=out[:, 1:-1])
    assert all(owner(a) is out for a in rows.values())
    assert all(np.array_equal(rows[name], jet[name]) for name in record.names)
    # the flow call writes the acceleration, entry first, (n, B), into the
    # rows given, as a flow stage passes the rows of its stage rates
    out = np.empty((2 * man.dimension, len(xs)))
    rows = force.flow_jet(xs.T, vs.T, out=out[man.dimension:])
    assert owner(rows) is out and rows.shape == xs.T.shape
    assert np.array_equal(rows, force.flow_jet(xs.T, vs.T))


@pytest.mark.parametrize("chart", sorted(JET_CHARTS))
def test_both_records_hold_one_connection(chart):
    # the variation call shares every field of the first-order jet but g
    # and F: the connection contracted with v and F, and the g^-1 it is
    # read with, are the same expressions in both records, so the same
    # bits; only the variation record holds the Koszul symbol
    _, force, xs, vs = _chart_points(chart)
    first = force.first_order_jet(xs.T.copy(), vs.T.copy())
    jet = force.variation_jet(xs.T, vs.T)
    assert "koszul" not in first and "koszul" in jet
    shared = [name for name in first if name in jet]
    assert shared == [name for name in first if name not in ("g", "f")]
    for name in shared:
        assert np.array_equal(first[name], jet[name]), name
        assert jet[name].flags.c_contiguous, name
    for name in ("gam_v", "gam_f"):
        assert np.abs(first[name]).max() > 0.0, name


def _first_order_spray(force, xs, vs):
    """(F, ``spray``) from the first-order jet's g^-1 and F and the
    variation record's Koszul symbol, batch-first."""
    first = {name: np.moveaxis(a, -1, 0) for name, a in
             force.first_order_jet(xs.T.copy(), vs.T.copy()).items()}
    koszul = np.moveaxis(force.variation_jet(xs.T, vs.T)["koszul"], -1, 0)
    return first["f"], spray(first["ginv"], koszul, vs, first["f"])


def _close(got, want, rel=1e-13):
    """got within rel of want, relative to want's largest entry."""
    assert got.shape == want.shape
    return np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("chart", sorted(JET_CHARTS))
def test_acceleration_is_the_force_minus_the_spray(chart):
    # a = F - gamma(v, v), generated whole in every dimension
    man, force, xs, vs = _chart_points(chart)
    f, along = _first_order_spray(force, xs, vs)
    assert np.abs(along["gvv"]).max() > 0.0
    assert _close(force.flow_jet(xs.T, vs.T).T, f - along["gvv"])


@pytest.mark.parametrize("chart", sorted(JET_CHARTS))
def test_variation_record_holds_the_spray(chart):
    man, force, xs, vs = _chart_points(chart)
    _, want = _first_order_spray(force, xs, vs)
    jet = force.variation_jet(xs.T, vs.T)
    for name in ("low_v", "gam_v", "gam_f", "gvv"):
        assert np.abs(want[name]).max() > 0.0, name
        assert _close(np.moveaxis(jet[name], -1, 0), want[name]), name


def test_flat_chart_connection_entries_are_exact_zeros():
    # E^3: every connection entry folds to the constant 0.0, so a is F bit
    # for bit, and stays so at velocities where 0 * inf would be nan
    metric, force_src = INVERSE_CHARTS["E3"]
    man = Manifold(3, metric)
    force = ForceField(man, force_src)
    rng = np.random.default_rng(41)
    xs, vs = rng.normal(size=(2, 6, 3))
    vs[0] = np.inf
    jet = force.variation_jet(xs.T, vs.T)
    for name in ("koszul", "low_v", "gam_v", "gam_f", "gvv"):
        assert np.array_equal(jet[name], np.zeros_like(jet[name])), name
        assert not np.signbit(jet[name]).any(), name
    assert np.array_equal(force.flow_jet(xs.T, vs.T).T,
                          force.components(xs, vs))


@pytest.mark.parametrize("chart", sorted(JET_CHARTS))
def test_jet_groups_are_the_contracted_partials(chart):
    # the Koszul symbol and S = P + P^T - W - H against their numeric
    # forms from the full first and second partials
    man, force, xs, vs = _chart_points(chart)
    n = man.dimension
    jet = force.variation_jet(xs.T, vs.T)
    koszul, ddg_vv = (np.moveaxis(jet[name], -1, 0)
                      for name in ("koszul", "ddg_vv"))
    want = _koszul(man.metric_partials(xs)).transpose(0, 2, 3, 1)
    assert koszul.shape == (len(xs), n, n, n)
    assert np.abs(koszul - want).max() <= 1e-13 * np.abs(want).max()
    ddg = man.metric_second_partials(xs)
    p = np.einsum('bsmlj,bm,bj->bsl', ddg, vs, vs)
    w = np.einsum('bslmj,bm,bj->bsl', ddg, vs, vs)
    hh = np.einsum('bmjsl,bm,bj->bsl', ddg, vs, vs)
    want = p + p.swapaxes(1, 2) - w - hh
    scale = np.abs(want).max()
    assert scale > 0.0
    assert ddg_vv.shape == (len(xs), n, n)
    assert np.abs(ddg_vv - want).max() <= 1e-13 * scale


def _jacobi(man, force, xs, vs):
    """riemann(record=) with the variation call's record, as the
    integrator feeds it, the batch axis moved to the front."""
    return np.moveaxis(
        man.riemann(xs, record=force.variation_jet(xs.T, vs.T)), -1, 0)


@pytest.mark.parametrize("chart", sorted(JET_CHARTS))
def test_jacobi_operator_is_the_contracted_tensor(chart):
    man, force, xs, vs = _chart_points(chart)
    want = np.einsum('bkmsr,bm,br->bks', man.riemann(xs), vs, vs)
    scale = np.abs(want).max()
    assert scale > 0.0
    got = _jacobi(man, force, xs, vs)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * scale


@pytest.mark.parametrize("chart", sorted(JET_CHARTS))
def test_jacobi_operator_identities(chart):
    man, force, xs, vs = _chart_points(chart)
    jacobi = _jacobi(man, force, xs, vs)
    scale = np.abs(jacobi).max()
    # R(v, v)v = 0
    kv = (jacobi @ vs[:, :, None])[:, :, 0]
    assert np.abs(kv).max() <= 1e-12 * scale * np.abs(vs).max()
    # pair symmetry: g(R(a, v)v, b) = g(R(b, v)v, a)
    low = man.metric(xs) @ jacobi
    assert np.abs(low - low.swapaxes(1, 2)).max() <= 1e-12 * np.abs(low).max()
    # quadratic in v; a power-of-two scale is exact in every product
    assert np.array_equal(_jacobi(man, force, xs, 2.0 * vs), 4.0 * jacobi)
    scaled = _jacobi(man, force, xs, -0.7 * vs)
    assert np.abs(scaled - 0.49 * jacobi).max() <= 1e-12 * scale


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_jacobi_operator_builds_no_rank_four_array():
    # any (B, n, n, n, n) array is as large as ddg itself; in n = 4 it is
    # n times any rank-three one, so neither the variation call's record
    # nor the contracted form's temporaries reach ddg, and the full
    # tensor's do
    man, force, xs, vs = _chart_points("S4", nb=256)
    jet = force.variation_jet(xs.T, vs.T)
    koszul = jet["koszul"]
    ddg = man.metric_second_partials(xs)
    assert max(a.nbytes for a in jet.values()) == koszul.nbytes
    assert owner(koszul).nbytes < ddg.nbytes
    contracted = _peak_bytes(lambda: man.riemann(xs, record=jet))
    ginv_first = np.moveaxis(jet["ginv"], -1, 0)
    full = _peak_bytes(lambda: man.riemann(
        xs, ginv=ginv_first, dg=man.metric_partials(xs), ddg=ddg))
    assert contracted < ddg.nbytes < full


def test_gradients_connection_terms_enter():
    force = ForceField(POLAR, ["-x1", "0"])
    spatial, velocity = _gradients_at(POLAR, force, [2.0, 0.3], [1.0, 1.0])
    # nabla_2 F^2 = Gamma^2_{21} F^1 = (1/x1)(-x1) = -1
    assert spatial[1, 1] == pytest.approx(-1.0, abs=1e-14)
    # nabla_2 F^1 = Gamma^1_{22} F^2 = 0, but plain d F^1/d x^2 = 0 too;
    # nabla_1 F^1 = -1 + Gamma^1_{11} F^1 = -1
    assert spatial[0, 0] == pytest.approx(-1.0, abs=1e-14)
    assert np.abs(velocity).max() == 0.0

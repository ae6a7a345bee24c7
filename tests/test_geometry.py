import tracemalloc

import numpy as np
import pytest

from frontshift.exprlang import Const
from frontshift.geometry import (ForceField, Manifold,
                                 NonPositiveDefiniteError, ZeroVelocityError,
                                 _koszul, at_point, check_positive_definite,
                                 extended_gradients, spray)
from oracles import adjugate_inverse
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


# the RHS charts, a non-diagonal 2-D chart, and round S^4 and a dense
# 4-D chart, where the jets take g^-1 from LAPACK
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
    """g and g^-1 from the stage jet, and g^-1 from the first-order jet
    with its batch axis moved to the front."""
    g, ginv, *_ = force.jet(xs, vs)
    last = force.first_order_jet(xs.T.copy(), vs.T.copy())[1]
    return g, ginv, np.moveaxis(last, -1, 0)


@pytest.mark.parametrize("chart", sorted(JET_CHARTS))
def test_inverse_matches_lapack(chart, monkeypatch):
    man, force, xs, vs = _chart_points(chart)
    n = man.dimension
    g = man.metric(xs)
    ref = np.linalg.inv(g)
    lapack_calls = []
    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: (
        lapack_calls.append(a.shape), real_inv(a))[1])
    g_jet, ginv, last = _ginv_of_both_jets(force, xs, vs)
    assert np.array_equal(g_jet, g)
    assert ginv.shape == g.shape and ginv.strides[1:] == (8 * n, 8)
    assert last.tobytes() == ginv.tobytes()
    if n <= 3:
        scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(ginv - ref) <= 1e-13 * scale)
        assert np.abs(g @ ginv - np.eye(n)).max() <= 1e-13
        assert lapack_calls == []
    else:
        # LAPACK itself, once in each jet
        assert np.array_equal(ginv, ref)
        assert lapack_calls == [g.shape, g.shape]


# E^3 adds a constant chart, whose g^-1 folds to constants
INVERSE_CHARTS = dict(
    {name: JET_CHARTS[name][:2] for name in ("S2", "S3", "skew2", "skew3")},
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
                       [1.0, -2.0, 3.0]]) / 4.0)):
        man = Manifold(len(metric), metric)
        assert all(isinstance(entry, Const) for entry in man._ginv_asts)
        force = ForceField(man, ["0"] * len(metric))
        xs = np.zeros((2, len(metric)))
        _, ginv, *_ = force.jet(xs, xs)
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
    assert all(a.flags.c_contiguous for a in last)
    first = tuple(np.moveaxis(a, -1, 0) for a in last)
    g, _, _, f, dfdx, dfdv = first
    want = (man.metric(xs), force.components(xs, vs),
            *force.jacobians(xs, vs))
    names = ("g", "f", "dfdx", "dfdv")
    for name, a, b in zip(names, (g, f, dfdx, dfdv), want, strict=True):
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name
    # the stage jet is the first-order jet plus S, bit for bit, every
    # tensor a view of one array
    jet = force.jet(xs, vs)
    names = ("g", "ginv", "koszul", "f", "dfdx", "dfdv")
    for name, a, b in zip(names, jet[:6], first, strict=True):
        assert np.array_equal(a, b), name
    assert all(owner(a) is owner(jet[0]) for a in jet)


@pytest.mark.parametrize("chart", sorted(JET_CHARTS))
def test_jet_groups_are_the_contracted_partials(chart):
    # the Koszul symbol and S = P + P^T - W - H against their numeric
    # forms from the full first and second partials
    man, force, xs, vs = _chart_points(chart)
    n = man.dimension
    _, _, koszul, _, _, _, ddg_vv = force.jet(xs, vs)
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
    """riemann(vs=) with every input from the jet, as the RHS feeds it."""
    _, ginv, koszul, f, _, _, ddg_vv = force.jet(xs, vs)
    return man.riemann(xs, ginv=ginv, vs=vs,
                       along=spray(ginv, koszul, vs, f), ddg_vv=ddg_vv)


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
    # n times any rank-three one, so neither the jet's groups nor the
    # contracted form's temporaries reach ddg, and the full tensor's do
    man, force, xs, vs = _chart_points("S4", nb=256)
    jet = force.jet(xs, vs)
    _, ginv, koszul, f, _, _, ddg_vv = jet
    ddg = man.metric_second_partials(xs)
    assert max(a.nbytes for a in jet) == koszul.nbytes
    assert owner(koszul).nbytes < ddg.nbytes
    along = spray(ginv, koszul, vs, f)
    contracted = _peak_bytes(lambda: man.riemann(
        xs, ginv=ginv, vs=vs, along=along, ddg_vv=ddg_vv))
    full = _peak_bytes(lambda: man.riemann(
        xs, ginv=ginv, dg=man.metric_partials(xs), ddg=ddg))
    assert contracted < ddg.nbytes < full


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

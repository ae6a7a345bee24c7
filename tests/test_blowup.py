import numpy as np
import pytest

from frontshift.blowup import (BlowupConfig, BlowupError, HypersurfaceSpec,
                               export_front, front_header, initial_slopes,
                               orthogonality_report, simulate_blowup,
                               simulate_shift, sphere_grid)
from frontshift.dynamics import IntegrationAbort
from frontshift.geometry import ForceField, Manifold
from oracles import g_norm, run_one, sphere_grid_per_direction
from test_geometry import JET_CHARTS
from test_rhs_reference import sphere

EUCLID = Manifold(2, [["1", "0"], ["0", "1"]])
ZERO = ForceField(EUCLID, ["0", "0"])
CONST = ForceField(EUCLID, ["1", "0"])
HARMONIC = ForceField(EUCLID, ["-x1", "-x2"])
DRAG = ForceField(EUCLID, ["-0.3*v1*sqrt(v1^2+v2^2)",
                           "-0.3*v2*sqrt(v1^2+v2^2)"])
TWO_PI = 2.0 * np.pi


def test_sphere_grid_cardinal_directions():
    u, directions, tangents = sphere_grid(EUCLID, [0.0, 0.0], 8)
    cardinal = {0: [1, 0], 2: [0, 1], 4: [-1, 0], 6: [0, -1]}
    for idx, want in cardinal.items():
        assert np.allclose(directions[idx], want, atol=1e-15)
        assert np.allclose(tangents[idx, 0],
                           [-np.sin(u[idx, 0]), np.cos(u[idx, 0])],
                           atol=1e-15)


def test_sphere_grid_scaled_metric_frame():
    man = Manifold(2, [["1", "0"], ["0", "4"]])
    _, directions, _ = sphere_grid(man, [0.0, 0.0], 8)
    assert np.allclose(directions[0], [1.0, 0.0], atol=1e-15)
    assert np.allclose(directions[2], [0.0, 0.5], atol=1e-15)


def test_sphere_grid_g_orthonormality():
    for metric, p0, resolution in (
            ([["1", "0"], ["0", "4"]], [0.0, 0.0], 16),
            ([["1", "0"], ["0", "x1^2"]], [2.0, 0.3], 16),
            (sphere(4), [1.3, 1.2, 1.4, 0.3], 8),
            (JET_CHARTS["dense4"][0], [0.3, -0.4, 0.5, 0.2], 8)):
        man = Manifold(len(p0), metric)
        g0 = man.metric(np.asarray(p0, dtype=float)[None, :])[0]
        _, directions, tangents = sphere_grid(man, p0, resolution)
        assert len(directions) == resolution ** (len(p0) - 1)
        for direction, tangent in zip(directions, tangents):
            assert direction @ g0 @ direction == pytest.approx(
                1.0, abs=1e-12)
            assert np.all(np.abs(tangent @ g0 @ direction) < 1e-12)


def test_sphere_grid_three_dims():
    man = Manifold(3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    u, directions, tangents = sphere_grid(man, [0.0, 0.0, 0.0], 8)
    assert u.shape == (64, 2)
    assert directions.shape == (64, 3)
    assert tangents.shape == (64, 2, 3)
    delta = np.pi / 32.0
    for theta, direction, tangent in zip(u[:, 0], directions, tangents):
        assert delta - 1e-12 <= theta <= np.pi - delta + 1e-12
        assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
        for a in range(2):
            assert abs(direction @ tangent[a]) < 1e-10


GRID_CHARTS = {
    "euclid2": (EUCLID, [0.0, 0.0]),
    "scaled2": (Manifold(2, [["1", "0"], ["0", "4"]]), [0.0, 0.0]),
    "sphere2": (Manifold(2, [["1", "0"], ["0", "sin(x1)^2"]]), [1.2, 0.4]),
    "skew2": (Manifold(2, [["2", "0.5"], ["0.5", "1 + x1^2"]]), [0.7, -0.3]),
    "euclid3": (Manifold(3, [["1", "0", "0"], ["0", "1", "0"],
                             ["0", "0", "1"]]), [0.0, 0.0, 0.0]),
    "sphere3": (Manifold(3, [["1", "0", "0"], ["0", "sin(x1)^2", "0"],
                             ["0", "0", "sin(x1)^2*sin(x2)^2"]]),
                [1.3, 1.2, 0.3]),
    "skew3": (Manifold(3, [["2", "0.3", "0"], ["0.3", "1 + x1^2", "0.2"],
                           ["0", "0.2", "1.5"]]), [0.4, -0.2, 0.1]),
    "euclid4": (Manifold(4, [["1" if i == j else "0" for j in range(4)]
                             for i in range(4)]), [0.0] * 4),
    "sphere4": (Manifold(4, sphere(4)), [1.3, 1.2, 1.4, 0.3]),
    "dense4": (Manifold(4, JET_CHARTS["dense4"][0]), [0.3, -0.4, 0.5, 0.2]),
}


@pytest.mark.parametrize("chart", GRID_CHARTS)
def test_sphere_grid_is_the_per_direction_loop(chart):
    # the whole-array grid is the one-direction-at-a-time construction,
    # bit for bit, on charts and grid sizes that no bundled config runs;
    # 32 only for n <= 3: at n = 4 it is 32 768 directions of the loop
    man, p0 = GRID_CHARTS[chart]
    n = man.dimension
    for resolution in (8, 13, 32) if n <= 3 else (8, 13):
        got = sphere_grid(man, p0, resolution)
        want = sphere_grid_per_direction(man, p0, resolution)
        nb = resolution ** (n - 1)
        assert [a.shape for a in got] == [(nb, n - 1), (nb, n), (nb, n - 1, n)]
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)


def test_sphere_grid_rejects_low_resolution():
    with pytest.raises(BlowupError):
        sphere_grid(EUCLID, [0.0, 0.0], 4)


def _free_blowup(resolution=16, t_end=1.0, nu=1.0):
    cfg = BlowupConfig(p0=[0.0, 0.0], nu=nu, resolution=resolution)
    return simulate_blowup(EUCLID, ZERO, cfg, t_end, 1e-3)


def test_free_blowup_circle_front():
    record = _free_blowup()
    assert record.times[500] == 0.5
    radii = np.linalg.norm(record.batch.x[500], axis=1)
    assert np.abs(radii - 0.5).max() < 1e-12
    assert np.abs(record.phi).max() < 1e-12


def test_free_blowup_orthogonal():
    report = orthogonality_report(_free_blowup())
    assert report.max_psi < 1e-10
    assert not report.inconclusive
    # the t=0 nodes are undefined (tau vanishes there) and are counted
    assert report.undefined_count == 16


def test_blowup_regularity():
    record = _free_blowup(nu=1.5)
    speeds = g_norm(EUCLID.metric(record.batch.x[0]), record.batch.v[0])
    assert np.allclose(speeds, 1.5, atol=1e-12)
    assert record.u.shape[0] == 16


def test_blowup_rejects_nonpositive_nu():
    with pytest.raises(BlowupError):
        _free_blowup(nu="sin(u1)")
    with pytest.raises(BlowupError):
        _free_blowup(nu=-1.0)


@pytest.mark.parametrize("nu", ["1/(u1 - 0)", "sqrt(u1 - 1)", "1 + sqrt(u1)"])
def test_blowup_rejects_non_finite_nu(nu):
    # inf or nan launch speeds, or an infinite u-gradient (the last one, at
    # u1 = 0), are config errors, not integration aborts
    with pytest.raises(BlowupError, match="finite"):
        _free_blowup(resolution=8, t_end=0.01, nu=nu)


@pytest.mark.parametrize("nu", ["1/(u1 - 0)", "sqrt(u1 - 1)", "1 + sqrt(u1)"])
def test_shift_rejects_non_finite_nu(nu):
    spec = HypersurfaceSpec(surface=["sin(u1)", "cos(u1)"],
                            box=[[0.0, TWO_PI]], resolution=8, nu=nu)
    with pytest.raises(BlowupError, match="finite"):
        simulate_shift(EUCLID, ZERO, spec, 0.01, 1e-3)


@pytest.mark.parametrize("surface, nu", [
    (["u1", "0"], "1 + sqrt(u1)"),      # nu is nan at u1 - 1e-6 < 0
    (["u1", "sqrt(u1)"], 1.0),          # so is the surface
])
def test_shift_rejects_launch_data_undefined_off_the_grid(surface, nu):
    # nu and the surface are finite on the grid, which starts at 1e-7,
    # but the launch rates' central difference evaluates them at u -+ 1e-6
    spec = HypersurfaceSpec(surface=surface, box=[[1e-7, 1.0]],
                            resolution=8, nu=nu)
    with pytest.raises(BlowupError, match="finite"):
        simulate_shift(EUCLID, ZERO, spec, 0.01, 1e-3)


def test_shift_rejects_a_surface_undefined_on_the_grid():
    spec = HypersurfaceSpec(surface=["u1", "sqrt(u1)"], box=[[-1.0, 1.0]],
                            resolution=8, nu=1.0)
    with pytest.raises(BlowupError, match=r"finite on the surface grid;"):
        simulate_shift(EUCLID, ZERO, spec, 0.01, 1e-3)


def test_variable_nu_slope_matches_closed_form():
    record = _free_blowup(t_end=0.1, nu="1 + 0.5*sin(u1)")
    slopes = initial_slopes(record)[:, 0]
    u = record.u[:, 0]
    expected = (1.0 + 0.5 * np.sin(u)) * (0.5 * np.cos(u))
    assert np.abs(slopes - expected).max() < 1e-6


def test_variable_nu_slopes_three_dims():
    # both sphere parameters feed the launch-speed gradient
    eu3 = Manifold(3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    zero3 = ForceField(eu3, ["0", "0", "0"])
    cfg = BlowupConfig(p0=[0.0, 0.0, 0.0], nu="1 + 0.1*sin(u1)*cos(u2)",
                       resolution=8)
    record = simulate_blowup(eu3, zero3, cfg, 0.01, 1e-3)
    slopes = initial_slopes(record)
    u1, u2 = record.u[:, 0], record.u[:, 1]
    nu = 1.0 + 0.1 * np.sin(u1) * np.cos(u2)
    expected = np.stack([nu * 0.1 * np.cos(u1) * np.cos(u2),
                         nu * (-0.1) * np.sin(u1) * np.sin(u2)], axis=1)
    assert np.abs(slopes - expected).max() < 1e-6


def test_constant_nu_slope_vanishes():
    record = _free_blowup(t_end=0.1)
    assert np.abs(initial_slopes(record)).max() < 1e-10


def test_constant_force_front_tilts():
    cfg = BlowupConfig(p0=[0.0, 0.0], nu=1.0, resolution=64)
    report = orthogonality_report(
        simulate_blowup(EUCLID, CONST, cfg, 1.0, 1e-3))
    assert report.max_psi >= 1e-2


def test_drag_blowup_stays_orthogonal():
    cfg = BlowupConfig(p0=[0.0, 0.0], nu=1.0, resolution=16)
    report = orthogonality_report(
        simulate_blowup(EUCLID, DRAG, cfg, 1.0, 1e-3))
    assert report.max_psi <= 1e-6


def test_weakly_normal_fields_keep_phi_flat():
    # residual-clean fields must keep the deviation series at noise level
    linear = ForceField(EUCLID, ["0.5*v1", "0.5*v2"])
    for force in (ZERO, linear, DRAG):
        cfg = BlowupConfig(p0=[0.0, 0.0], nu=1.0, resolution=16)
        record = simulate_blowup(EUCLID, force, cfg, 1.0, 1e-3)
        assert np.abs(record.phi).max() <= 1e-6  # 1e-6 * nu0^2 * t_end


def test_variation_initialization_consistency():
    # integrated tau at small t matches its initial covariant rate times t
    record = _free_blowup(t_end=0.05)
    _, _, tangents = sphere_grid(EUCLID, [0.0, 0.0], 16)
    for i in (1, 10, 50):
        t = record.times[i]
        for b in (0, 5, 11):
            expected = tangents[b, 0] * t
            assert np.abs(record.batch.tau[i, b, 0] - expected).max() < 1e-10


def _launch_remainders(record):
    """Remainders of the launch expansions x0 + v0 t, v0 and tau0 + rho0 t
    at t = h, 2h, 4h: (x, v, tau), each with the node axis first."""
    b, nodes = record.batch, [1, 2, 4]
    t = b.times[nodes, None, None]
    x = np.linalg.norm(b.x[nodes] - b.x[0] - b.v[0] * t, axis=-1)
    v = np.linalg.norm(b.v[nodes] - b.v[0], axis=-1)
    tau = np.linalg.norm(b.tau[nodes] - b.tau[0] - b.rho[0] * t[..., None],
                         axis=-1)
    return x, v, tau


def test_taylor_check_exact_for_free_flow():
    for remainder in _launch_remainders(_free_blowup(t_end=0.05)):
        assert remainder.max() < 1e-14


def test_taylor_check_orders_harmonic():
    # quadratic remainder for the position, linear for the velocity
    cfg = BlowupConfig(p0=[1.0, 0.0], nu=1.0, resolution=8)
    x, v, _ = _launch_remainders(
        simulate_blowup(EUCLID, HARMONIC, cfg, 0.05, 1e-3))
    assert np.allclose(x[1] / x[0], 4.0, rtol=0.05)
    assert np.allclose(v[1] / v[0], 2.0, rtol=0.05)


def test_blowup_single_direction_bitwise_agreement():
    record = _free_blowup(t_end=0.2)
    _, directions, tangents = sphere_grid(EUCLID, [0.0, 0.0], 16)
    k = 3
    single = run_one(EUCLID, ZERO, [0.0, 0.0], directions[k], 0.2, 1e-3,
                     tau=np.zeros((1, 2)), rho=tangents[k])
    assert np.array_equal(single.x, record.batch.x[:, k])
    assert np.array_equal(single.v, record.batch.v[:, k])
    assert np.array_equal(single.tau, record.batch.tau[:, k])


def test_export_front_shape_and_tokens():
    record = _free_blowup(t_end=0.1)
    header, table = export_front(record, output_every=10)
    assert header == ["t", "dir_index", "u1", "x1", "x2", "v1", "v2",
                      "tau1_1", "tau1_2", "phi_1", "psi_1"]
    assert header == front_header(2)
    assert len(table) == 11 * 16
    np.testing.assert_array_equal(table.times, record.times[::10])
    assert table.times[0] == 0.0
    np.testing.assert_array_equal(table.lead[:, 0], np.arange(16))
    np.testing.assert_array_equal(table.lead[:, 1:], record.u)
    assert [part.shape for part in table.body] == [
        (11, 16, 2), (11, 16, 2), (11, 16, 2), (11, 16, 1), (11, 16, 1)]
    assert np.isnan(table.body[-1][0]).all()  # psi undefined at t=0


def test_export_front_three_dim_header():
    assert front_header(3) == [
        "t", "dir_index", "u1", "u2", "x1", "x2", "x3", "v1", "v2", "v3",
        "tau1_1", "tau1_2", "tau1_3", "tau2_1", "tau2_2", "tau2_3",
        "phi_1", "phi_2", "psi_1", "psi_2"]


def test_shift_circle_concentric():
    spec = HypersurfaceSpec(surface=["sin(u1)", "cos(u1)"],
                            box=[[0.0, TWO_PI]], resolution=32, nu=1.0)
    record = simulate_shift(EUCLID, ZERO, spec, 1.0, 1e-3)
    front = record.batch.x[-1]  # t = 1.0
    assert np.abs(np.linalg.norm(front, axis=1) - 2.0).max() < 1e-12
    assert orthogonality_report(record).max_psi < 1e-10


def test_shift_orient_flip_moves_inward():
    spec = HypersurfaceSpec(surface=["sin(u1)", "cos(u1)"],
                            box=[[0.0, TWO_PI]], resolution=32, nu=1.0,
                            orient_flip=True)
    record = simulate_shift(EUCLID, ZERO, spec, 0.5, 1e-3)
    front = record.batch.x[-1]  # t = 0.5
    assert np.abs(np.linalg.norm(front, axis=1) - 0.5).max() < 1e-12


def test_shift_variable_nu_tilts_immediately():
    spec = HypersurfaceSpec(surface=["sin(u1)", "cos(u1)"],
                            box=[[0.0, TWO_PI]], resolution=32,
                            nu="1 + 0.5*sin(u1)")
    record = simulate_shift(EUCLID, ZERO, spec, 0.2, 1e-3)
    assert np.abs(record.phi[0]).max() < 1e-12
    slopes = initial_slopes(record)[:, 0]
    u = record.u[:, 0]
    # launch speed gradient tilts the front at rate nu * d(nu)/du
    expected = (1.0 + 0.5 * np.sin(u)) * (0.5 * np.cos(u))
    assert np.abs(slopes - expected).max() < 1e-6


def test_shift_line_under_drag_stays_orthogonal():
    spec = HypersurfaceSpec(surface=["u1", "0"], box=[[-1.0, 1.0]],
                            resolution=16, nu=1.0)
    record = simulate_shift(EUCLID, DRAG, spec, 1.0, 1e-3)
    assert orthogonality_report(record).max_psi <= 1e-5


def test_shift_rejects_degenerate_map():
    spec = HypersurfaceSpec(surface=["0", "0"], box=[[-1.0, 1.0]],
                            resolution=8, nu=1.0)
    with pytest.raises(BlowupError):
        simulate_shift(EUCLID, ZERO, spec, 0.1, 1e-3)


def test_three_dim_blowup_spherical_front():
    eu3 = Manifold(3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    zero3 = ForceField(eu3, ["0", "0", "0"])
    cfg = BlowupConfig(p0=[0.0, 0.0, 0.0], nu=1.0, resolution=8)
    record = simulate_blowup(eu3, zero3, cfg, 0.5, 1e-3)
    front = record.batch.x[-1]  # t = 0.5
    assert np.abs(np.linalg.norm(front, axis=1) - 0.5).max() < 1e-12
    assert orthogonality_report(record).max_psi < 1e-10


def test_three_dim_shift_of_sphere():
    eu3 = Manifold(3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    zero3 = ForceField(eu3, ["0", "0", "0"])
    spec = HypersurfaceSpec(
        surface=["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"],
        box=[[0.3, np.pi - 0.3], [0.0, TWO_PI]], resolution=8, nu=1.0)
    record = simulate_shift(eu3, zero3, spec, 0.5, 1e-3)
    front = record.batch.x[-1]  # t = 0.5
    assert np.abs(np.linalg.norm(front, axis=1) - 1.5).max() < 1e-12
    assert orthogonality_report(record).max_psi < 1e-10


def test_curved_chart_blowups_stay_orthogonal():
    # geodesic circles around a point are orthogonal to the radial
    # geodesics on any manifold; exercises curvature in the variation flow
    sphere = Manifold(2, [["1", "0"], ["0", "sin(x1)^2"]])
    free_s = ForceField(sphere, ["0", "0"])
    cfg = BlowupConfig(p0=[np.pi / 2, 0.0], nu=1.0, resolution=16)
    assert orthogonality_report(
        simulate_blowup(sphere, free_s, cfg, 1.0, 1e-3)).max_psi < 1e-10

    polar = Manifold(2, [["1", "0"], ["0", "x1^2"]])
    free_p = ForceField(polar, ["0", "0"])
    cfg = BlowupConfig(p0=[2.0, 0.3], nu=1.0, resolution=16)
    assert orthogonality_report(
        simulate_blowup(polar, free_p, cfg, 0.5, 1e-3)).max_psi < 1e-10


def test_polar_chart_circle_shift():
    polar = Manifold(2, [["1", "0"], ["0", "x1^2"]])
    free_p = ForceField(polar, ["0", "0"])
    spec = HypersurfaceSpec(surface=["2", "u1"], box=[[0.0, TWO_PI]],
                            resolution=16, nu=1.0, orient_flip=True)
    record = simulate_shift(polar, free_p, spec, 0.5, 1e-3)
    front = record.batch.x[-1]  # t = 0.5
    assert np.abs(front[:, 0] - 2.5).max() < 1e-12
    assert orthogonality_report(record).max_psi < 1e-10


def test_blowup_abort_carries_front_record():
    runaway = ForceField(EUCLID, ["x1^3", "0"])
    cfg = BlowupConfig(p0=[2.0, 0.0], nu=5.0, resolution=8)
    with pytest.raises(IntegrationAbort) as info:
        simulate_blowup(EUCLID, runaway, cfg, 1.0, 1e-3)
    partial = info.value.record
    assert partial.batch.node_count >= 1
    header, table = export_front(partial, output_every=100)
    assert header == front_header(2)
    assert len(table) >= 8

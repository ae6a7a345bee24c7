import numpy as np
import pytest

from frontshift.blowup import (BlowupConfig, BlowupError, HypersurfaceSpec,
                               export_front, front_at, front_header,
                               initial_slopes, orthogonality_report,
                               simulate_blowup, simulate_shift, sphere_grid,
                               taylor_check)
from frontshift.dynamics import (FlowState, IntegrationAbort, VariationState,
                                 integrate)
from frontshift.geometry import ForceField, Manifold, TangentPoint

EUCLID = Manifold(2, [["1", "0"], ["0", "1"]])
ZERO = ForceField(EUCLID, ["0", "0"])
CONST = ForceField(EUCLID, ["1", "0"])
HARMONIC = ForceField(EUCLID, ["-x1", "-x2"])
DRAG = ForceField(EUCLID, ["-0.3*v1*sqrt(v1^2+v2^2)",
                           "-0.3*v2*sqrt(v1^2+v2^2)"])
TWO_PI = 2.0 * np.pi


def test_sphere_grid_cardinal_directions():
    grid = sphere_grid(EUCLID, [0.0, 0.0], 8)
    cardinal = {0: [1, 0], 2: [0, 1], 4: [-1, 0], 6: [0, -1]}
    for idx, want in cardinal.items():
        assert np.allclose(grid[idx].direction, want, atol=1e-15)
        u = grid[idx].u[0]
        assert np.allclose(grid[idx].tangents[0],
                           [-np.sin(u), np.cos(u)], atol=1e-15)


def test_sphere_grid_scaled_metric_frame():
    man = Manifold(2, [["1", "0"], ["0", "4"]])
    grid = sphere_grid(man, [0.0, 0.0], 8)
    assert np.allclose(grid[0].direction, [1.0, 0.0], atol=1e-15)
    assert np.allclose(grid[2].direction, [0.0, 0.5], atol=1e-15)


def test_sphere_grid_g_orthonormality():
    for metric, p0 in (([["1", "0"], ["0", "4"]], [0.0, 0.0]),
                       ([["1", "0"], ["0", "x1^2"]], [2.0, 0.3])):
        man = Manifold(2, metric)
        g0 = man.metric(np.asarray(p0, dtype=float)[None, :])[0]
        for s in sphere_grid(man, p0, 16):
            assert s.direction @ g0 @ s.direction == pytest.approx(
                1.0, abs=1e-12)
            assert abs(s.direction @ g0 @ s.tangents[0]) < 1e-12


def test_sphere_grid_three_dims():
    man = Manifold(3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    grid = sphere_grid(man, [0.0, 0.0, 0.0], 8)
    assert len(grid) == 64
    delta = np.pi / 32.0
    for s in grid:
        assert delta - 1e-12 <= s.u[0] <= np.pi - delta + 1e-12
        assert np.linalg.norm(s.direction) == pytest.approx(1.0, abs=1e-12)
        for a in range(2):
            assert abs(s.direction @ s.tangents[a]) < 1e-10


def test_sphere_grid_rejects_low_resolution():
    with pytest.raises(BlowupError):
        sphere_grid(EUCLID, [0.0, 0.0], 4)


def _free_blowup(resolution=16, t_end=1.0, nu=1.0):
    cfg = BlowupConfig(p0=[0.0, 0.0], nu=nu, resolution=resolution,
                       t_end=t_end, step=1e-3)
    return simulate_blowup(EUCLID, ZERO, cfg)


def test_free_blowup_circle_front():
    record = _free_blowup()
    sample = front_at(record, 0.5)
    radii = np.linalg.norm(sample.x, axis=1)
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
    speeds = record.speed[0]
    assert np.allclose(speeds, 1.5, atol=1e-12)
    assert record.u.shape[0] == 16


def test_blowup_rejects_nonpositive_nu():
    with pytest.raises(BlowupError):
        _free_blowup(nu="sin(u1)")
    with pytest.raises(BlowupError):
        _free_blowup(nu=-1.0)


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
                       resolution=8, t_end=0.01, step=1e-3)
    record = simulate_blowup(eu3, zero3, cfg)
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
    cfg = BlowupConfig(p0=[0.0, 0.0], nu=1.0, resolution=64,
                       t_end=1.0, step=1e-3)
    report = orthogonality_report(simulate_blowup(EUCLID, CONST, cfg))
    assert report.max_psi >= 1e-2


def test_drag_blowup_stays_orthogonal():
    cfg = BlowupConfig(p0=[0.0, 0.0], nu=1.0, resolution=16,
                       t_end=1.0, step=1e-3)
    report = orthogonality_report(simulate_blowup(EUCLID, DRAG, cfg))
    assert report.max_psi <= 1e-6


def test_weakly_normal_fields_keep_phi_flat():
    # residual-clean fields must keep the deviation series at noise level
    linear = ForceField(EUCLID, ["0.5*v1", "0.5*v2"])
    for force in (ZERO, linear, DRAG):
        cfg = BlowupConfig(p0=[0.0, 0.0], nu=1.0, resolution=16,
                           t_end=1.0, step=1e-3)
        record = simulate_blowup(EUCLID, force, cfg)
        assert np.abs(record.phi).max() <= 1e-6  # 1e-6 * nu0^2 * t_end


def test_variation_initialization_consistency():
    # integrated tau at small t matches its initial covariant rate times t
    record = _free_blowup(t_end=0.05)
    grid = sphere_grid(EUCLID, [0.0, 0.0], 16)
    for i in (1, 10, 50):
        t = record.times[i]
        for b in (0, 5, 11):
            expected = grid[b].tangents[0] * t
            assert np.abs(record.batch.tau[i, b, 0] - expected).max() < 1e-10


def test_taylor_check_exact_for_free_flow():
    tr = taylor_check(_free_blowup(t_end=0.05))
    assert np.abs(tr.x_remainder).max() < 1e-14
    assert np.abs(tr.v_remainder).max() < 1e-14
    assert np.abs(tr.tau_remainder).max() < 1e-14
    assert np.isnan(tr.x_ratios).all()


def test_taylor_check_orders_harmonic():
    cfg = BlowupConfig(p0=[1.0, 0.0], nu=1.0, resolution=8,
                       t_end=0.05, step=1e-3)
    tr = taylor_check(simulate_blowup(EUCLID, HARMONIC, cfg))
    assert np.allclose(tr.x_ratios[:, 0], 4.0, rtol=0.05)
    assert np.allclose(tr.v_ratios[:, 0], 2.0, rtol=0.05)


def test_blowup_single_direction_bitwise_agreement():
    record = _free_blowup(t_end=0.2)
    grid = sphere_grid(EUCLID, [0.0, 0.0], 16)
    k = 3
    init = FlowState(TangentPoint([0.0, 0.0], grid[k].direction),
                     [VariationState(np.zeros(2), grid[k].tangents[0])])
    single = integrate(EUCLID, ZERO, init, 0.2, 1e-3)
    assert np.array_equal(single.x, record.batch.x[:, k])
    assert np.array_equal(single.v, record.batch.v[:, k])
    assert np.array_equal(single.tau, record.batch.tau[:, k])


def test_front_at_off_grid_errors():
    record = _free_blowup(t_end=0.1)
    with pytest.raises(BlowupError):
        front_at(record, 0.05050001)
    with pytest.raises(BlowupError):
        front_at(record, 7.5)


def test_export_front_shape_and_tokens():
    record = _free_blowup(t_end=0.1)
    header, rows = export_front(record, output_every=10)
    assert header == ["t", "dir_index", "u1", "x1", "x2", "v1", "v2",
                      "tau1_1", "tau1_2", "phi_1", "psi_1"]
    assert header == front_header(2)
    assert len(rows) == 11 * 16
    first = rows[0]
    assert first[0] == 0.0 and first[1] == 0
    assert np.isnan(first[-1])  # psi undefined at t=0


def test_export_front_three_dim_header():
    assert front_header(3) == [
        "t", "dir_index", "u1", "u2", "x1", "x2", "x3", "v1", "v2", "v3",
        "tau1_1", "tau1_2", "tau1_3", "tau2_1", "tau2_2", "tau2_3",
        "phi_1", "phi_2", "psi_1", "psi_2"]


def test_shift_circle_concentric():
    spec = HypersurfaceSpec(chart_map=["sin(u1)", "cos(u1)"],
                            box=[[0.0, TWO_PI]], resolution=32, nu=1.0)
    record = simulate_shift(EUCLID, ZERO, spec, 1.0, 1e-3)
    sample = front_at(record, 1.0)
    assert np.abs(np.linalg.norm(sample.x, axis=1) - 2.0).max() < 1e-12
    assert orthogonality_report(record).max_psi < 1e-10


def test_shift_orient_flip_moves_inward():
    spec = HypersurfaceSpec(chart_map=["sin(u1)", "cos(u1)"],
                            box=[[0.0, TWO_PI]], resolution=32, nu=1.0,
                            orient_flip=True)
    record = simulate_shift(EUCLID, ZERO, spec, 0.5, 1e-3)
    sample = front_at(record, 0.5)
    assert np.abs(np.linalg.norm(sample.x, axis=1) - 0.5).max() < 1e-12


def test_shift_variable_nu_tilts_immediately():
    spec = HypersurfaceSpec(chart_map=["sin(u1)", "cos(u1)"],
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
    spec = HypersurfaceSpec(chart_map=["u1", "0"], box=[[-1.0, 1.0]],
                            resolution=16, nu=1.0)
    record = simulate_shift(EUCLID, DRAG, spec, 1.0, 1e-3)
    assert orthogonality_report(record).max_psi <= 1e-5


def test_shift_rejects_degenerate_map():
    spec = HypersurfaceSpec(chart_map=["0", "0"], box=[[-1.0, 1.0]],
                            resolution=8, nu=1.0)
    with pytest.raises(BlowupError):
        simulate_shift(EUCLID, ZERO, spec, 0.1, 1e-3)


def test_three_dim_blowup_spherical_front():
    eu3 = Manifold(3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    zero3 = ForceField(eu3, ["0", "0", "0"])
    cfg = BlowupConfig(p0=[0.0, 0.0, 0.0], nu=1.0, resolution=8,
                       t_end=0.5, step=1e-3)
    record = simulate_blowup(eu3, zero3, cfg)
    sample = front_at(record, 0.5)
    assert np.abs(np.linalg.norm(sample.x, axis=1) - 0.5).max() < 1e-12
    assert orthogonality_report(record).max_psi < 1e-10


def test_three_dim_shift_of_sphere():
    eu3 = Manifold(3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    zero3 = ForceField(eu3, ["0", "0", "0"])
    spec = HypersurfaceSpec(
        chart_map=["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"],
        box=[[0.3, np.pi - 0.3], [0.0, TWO_PI]], resolution=8, nu=1.0)
    record = simulate_shift(eu3, zero3, spec, 0.5, 1e-3)
    sample = front_at(record, 0.5)
    assert np.abs(np.linalg.norm(sample.x, axis=1) - 1.5).max() < 1e-12
    assert orthogonality_report(record).max_psi < 1e-10


def test_curved_chart_blowups_stay_orthogonal():
    # geodesic circles around a point are orthogonal to the radial
    # geodesics on any manifold; exercises curvature in the variation flow
    sphere = Manifold(2, [["1", "0"], ["0", "sin(x1)^2"]])
    free_s = ForceField(sphere, ["0", "0"])
    cfg = BlowupConfig(p0=[np.pi / 2, 0.0], nu=1.0, resolution=16,
                       t_end=1.0, step=1e-3)
    assert orthogonality_report(
        simulate_blowup(sphere, free_s, cfg)).max_psi < 1e-10

    polar = Manifold(2, [["1", "0"], ["0", "x1^2"]])
    free_p = ForceField(polar, ["0", "0"])
    cfg = BlowupConfig(p0=[2.0, 0.3], nu=1.0, resolution=16,
                       t_end=0.5, step=1e-3)
    assert orthogonality_report(
        simulate_blowup(polar, free_p, cfg)).max_psi < 1e-10


def test_polar_chart_circle_shift():
    polar = Manifold(2, [["1", "0"], ["0", "x1^2"]])
    free_p = ForceField(polar, ["0", "0"])
    spec = HypersurfaceSpec(chart_map=["2", "u1"], box=[[0.0, TWO_PI]],
                            resolution=16, nu=1.0, orient_flip=True)
    record = simulate_shift(polar, free_p, spec, 0.5, 1e-3)
    sample = front_at(record, 0.5)
    assert np.abs(sample.x[:, 0] - 2.5).max() < 1e-12
    assert orthogonality_report(record).max_psi < 1e-10


def test_blowup_abort_carries_front_record():
    runaway = ForceField(EUCLID, ["x1^3", "0"])
    cfg = BlowupConfig(p0=[2.0, 0.0], nu=5.0, resolution=8,
                       t_end=1.0, step=1e-3)
    with pytest.raises(IntegrationAbort) as info:
        simulate_blowup(EUCLID, runaway, cfg)
    partial = info.value.record
    assert partial.kind == "blowup"
    assert partial.batch.node_count >= 1
    header, rows = export_front(partial, output_every=100)
    assert header == front_header(2)
    assert len(rows) >= 8

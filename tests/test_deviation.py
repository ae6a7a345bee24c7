import json
from pathlib import Path

import numpy as np
import pytest

from frontshift import cli
from frontshift.blowup import (BlowupConfig, BlowupError, simulate_blowup,
                               sphere_grid)
from frontshift.deviation import (DeviationError, alpha_beta, deviation_rank,
                                  phi_derivatives)
from frontshift.config import load_config
from frontshift.dynamics import integrate_batch
from frontshift.geometry import ForceField, Manifold, at_point, force_tensors
from oracles import initial_instant, run_one, single_record

EUCLID = Manifold(2, [["1", "0"], ["0", "1"]])
ZERO = ForceField(EUCLID, ["0", "0"])
HARMONIC = ForceField(EUCLID, ["-x1", "-x2"])
DRAG = ForceField(EUCLID, ["-0.3*v1*sqrt(v1^2+v2^2)",
                           "-0.3*v2*sqrt(v1^2+v2^2)"])
CONST = ForceField(EUCLID, ["1", "0"])


def _phis(man, force, x, v, tau, rho):
    """(phi, phi_dot, phi_ddot) of one variation tau with covariant rate
    rho at the tangent-bundle point (x, v)."""
    phis = at_point(phi_derivatives, force, x, v, [tau], [rho])
    return tuple(float(p[0]) for p in phis)


def _alpha_beta(force, x, v):
    """alpha_beta at one point: force_tensors takes the batch axis last."""
    return at_point(lambda xs, vs: tuple(w.T for w in alpha_beta(
        force_tensors(force, xs.T, vs.T))), x, v)


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
        phi, phi_dot, phi_ddot = phi_derivatives(force, rec.x, rec.v,
                                                 rec.tau, rec.rho)
        num_dot = (phi[2:] - phi[:-2]) / (2 * h)
        num_ddot = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / h ** 2
        scale_dot = np.maximum(1.0, np.abs(phi_dot[1:-1]))
        scale_ddot = np.maximum(1.0, np.abs(phi_ddot[1:-1]))
        assert (np.abs(phi_dot[1:-1] - num_dot) / scale_dot).max() < 1e-6
        assert (np.abs(phi_ddot[1:-1] - num_ddot)
                / scale_ddot).max() < 1e-4


def _one_direction(u):
    """(u, direction, tangents) of the 64-direction grid's nearest
    direction to the sphere parameter u."""
    grid_u, directions, tangents = sphere_grid(EUCLID, [0.0, 0.0], 64)
    k = int(np.argmin(np.abs(grid_u[:, 0] - u)))
    return grid_u[k, 0], directions[k], tangents[k]


def test_initial_limits_universal_zeroes():
    # phi(0) and its first derivative vanish from the initial data alone,
    # even for a force that is not weakly normal
    _, direction, tangents = _one_direction(0.8)
    phi, phi_dot, _, _ = initial_instant(EUCLID, CONST, [0.0, 0.0], 1.0,
                                         direction, tangents)
    assert np.abs(phi).max() == 0.0
    assert np.abs(phi_dot).max() < 1e-15


def test_initial_limits_constant_force_contraction():
    for u_target in (0.0, 0.8, 2.3, 4.0):
        u, direction, tangents = _one_direction(u_target)
        phi_ddot = initial_instant(EUCLID, CONST, [0.0, 0.0], 1.0,
                                   direction, tangents)[2]
        assert phi_ddot[0] == pytest.approx(-2.0 * np.sin(u), abs=1e-12)


def test_initial_limits_velocity_aligned_force_vanishes():
    force = ForceField(EUCLID, ["0.5*v1", "0.5*v2"])
    _, direction, tangents = _one_direction(1.1)
    phi_ddot = initial_instant(EUCLID, force, [0.0, 0.0], 1.0, direction,
                               tangents)[2]
    assert np.abs(phi_ddot).max() < 1e-14


def test_initial_limits_third_derivative_weakly_normal():
    _, direction, tangents = _one_direction(0.8)
    for force in (ZERO, DRAG):
        phi_dddot = initial_instant(EUCLID, force, [0.0, 0.0], 1.0,
                                    direction, tangents)[3]
        assert np.abs(phi_dddot).max() < 1e-9


def test_initial_limits_third_derivative_catches_modulated_drag():
    # F = c(x) v keeps the second-derivative limit at zero in every
    # direction; the defect first appears in the third derivative
    modulated = ForceField(EUCLID, ["x2*v1", "x2*v2"])
    worst_dd = 0.0
    worst_ddd = 0.0
    for u_target in (0.0, 0.8, 1.6, 2.3, 4.0):
        _, direction, tangents = _one_direction(u_target)
        _, _, phi_ddot, phi_dddot = initial_instant(
            EUCLID, modulated, [0.0, 0.5], 1.0, direction, tangents)
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


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
S3_DRAG = CONFIGS / "sphere3-drag.json"
DEAD_ROW = 2    # launched with tau0 = rho0 = 0: phi stays 0, inconclusive
TINY_ROW = 4    # variations of size 1e-17: phi below 1e-14, inconclusive


def _s3_drag_batch(rows=7):
    """rows S^3 drag trajectories with five variations each, one of them
    (DEAD_ROW) without any and one (TINY_ROW) with tiny ones."""
    cfg = load_config(S3_DRAG)
    man, force = cfg.build()
    rng = np.random.default_rng(16)
    box = np.asarray(cfg.sampler.x_box, dtype=float)
    xs = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((rows, 3))
    vs = rng.normal(scale=0.5, size=(rows, 3))
    tau0, rho0 = rng.normal(size=(2, rows, 5, 3))
    tau0[DEAD_ROW] = rho0[DEAD_ROW] = 0.0
    tau0[TINY_ROW] *= 1e-17
    rho0[TINY_ROW] *= 1e-17
    batch = integrate_batch(man, force, xs, vs, tau0, rho0, 0.5, 5e-3)
    return man, force, batch


def test_batched_rank_and_series_are_the_per_row_calls():
    man, force, batch = _s3_drag_batch()
    window = (0.1, 0.5)
    result = deviation_rank(man, batch, window)
    series = phi_derivatives(force, batch.x, batch.v, batch.tau, batch.rho)
    assert result.singular_values.shape == (7, 5)
    assert result.ratio.shape == result.inconclusive.shape == (7,)
    for i in range(7):
        rec = single_record(batch, i)
        row = deviation_rank(man, rec, window)
        assert np.array_equal(result.singular_values[i], row.singular_values)
        assert np.array_equal(result.ratio[i], row.ratio, equal_nan=True)
        assert result.inconclusive[i] == row.inconclusive
        for got, want in zip(series, phi_derivatives(
                force, rec.x, rec.v, rec.tau, rec.rho)):
            assert np.array_equal(got[:, i], want)
    dead = [DEAD_ROW, TINY_ROW]
    assert result.inconclusive.tolist() == [i in dead for i in range(7)]
    assert np.isnan(result.ratio[dead]).all()
    assert not result.singular_values[dead].any()
    assert not series[0][:, DEAD_ROW].any()
    assert 0.0 < np.abs(series[0][:, TINY_ROW]).max() < 1e-14
    # the drag is weakly normal: every live row is rank two
    assert result.ratio[~result.inconclusive].max() <= 1e-6


def test_rank_report_writes_null_for_an_inconclusive_row(
        tmp_path, monkeypatch, capsys):
    def without_dead_row_variations(man, force, xs, vs, tau0, rho0, *rest):
        tau0[DEAD_ROW] = rho0[DEAD_ROW] = 0.0
        return integrate_batch(man, force, xs, vs, tau0, rho0, *rest)

    monkeypatch.setattr(cli, "integrate_batch", without_dead_row_variations)
    code = cli.main(["rank", "--config", str(S3_DRAG),
                     "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == cli.EXIT_INCONCLUSIVE
    doc = json.loads((tmp_path / "rank_report.json").read_text())
    rows = doc["trajectories"]
    assert doc["any_inconclusive"] is True
    assert rows[DEAD_ROW]["sigma3_over_sigma1"] is None
    assert rows[DEAD_ROW]["inconclusive"] is True
    assert rows[DEAD_ROW]["singular_values"] == [0.0] * 5
    live = [r["sigma3_over_sigma1"] for r in rows if not r["inconclusive"]]
    assert len(live) == 4
    assert doc["max_sigma3_over_sigma1"] == max(live)

"""Acceptance criteria, one test per criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.
"""

import json

import numpy as np
import pytest

from frontshift.blowup import (BlowupConfig, front_at, initial_slopes,
                               orthogonality_report, simulate_blowup)
from frontshift.cli import main as cli_main
from frontshift.deviation import deviation_rank, phi_derivatives
from frontshift.dynamics import (FlowState, integrate, integrate_batch,
                                 single_record)
from frontshift.geometry import TangentPoint, at_point
from frontshift.normality import classify
from frontshift.selfcheck import (deviation_formulas, metric_compatibility,
                                  projector_identities, rewrite_equivalence,
                                  variation_errors)
from frontshift.systems import BUNDLED, DICHOTOMY

SAMPLER_BOX = [[-1.0, 1.0], [-1.0, 1.0]]

# generic blow-up centers; the harmonic field is launched away from its
# fixed point, where its blow-up would be normal by symmetry
BLOWUP_CENTERS = {
    "euclid-free": [0.0, 0.0],
    "euclid-linear": [0.0, 0.0],
    "euclid-drag": [0.0, 0.0],
    "euclid-const": [0.0, 0.0],
    "euclid-harmonic": [1.0, 0.3],
}

EXPECTED_VERDICTS = ("complete-normal", "complete-normal", "weak-normal",
                     "neither", "neither")


def _ok(line):
    print(f"\n{line}: pass")


def test_criterion_1_dichotomy():
    """Blow-up normality holds exactly for the residual-clean fields."""
    for name, expected in zip(DICHOTOMY, EXPECTED_VERDICTS):
        man, force = BUNDLED[name].build()
        rep = classify(man, force, SAMPLER_BOX, 0.5, 2.0, 1000,
                       seed=0, tol=1e-8)
        assert rep.verdict == expected, (name, rep.verdict, expected)
        cfg = BlowupConfig(p0=BLOWUP_CENTERS[name], nu=1.0, resolution=64,
                           t_end=1.0, step=1e-3)
        orth = orthogonality_report(simulate_blowup(man, force, cfg))
        if expected in ("complete-normal", "weak-normal"):
            assert orth.max_psi <= 1e-5, (name, orth.max_psi)
        else:
            assert orth.max_psi >= 1e-2, (name, orth.max_psi)
    _ok("criterion 1 (classification and blow-up dichotomy)")


def test_criterion_2_constant_speed_necessity():
    """A varying launch speed tilts fronts at exactly nu * d(nu)/du."""
    man, force = BUNDLED["euclid-free"].build()
    cfg = BlowupConfig(p0=[0.0, 0.0], nu="1 + 0.5*sin(u1)", resolution=16,
                       t_end=0.01, step=1e-3)
    record = simulate_blowup(man, force, cfg)
    slopes = initial_slopes(record)[:, 0]
    u = record.u[:, 0]
    expected = (1.0 + 0.5 * np.sin(u)) * (0.5 * np.cos(u))
    assert u.shape[0] == 16
    assert np.abs(slopes - expected).max() <= 1e-6
    cfg_const = BlowupConfig(p0=[0.0, 0.0], nu=1.0, resolution=16,
                             t_end=0.01, step=1e-3)
    const_slopes = initial_slopes(simulate_blowup(man, force, cfg_const))
    assert np.abs(const_slopes).max() <= 1e-10
    _ok("criterion 2 (constant launch speed necessity)")


def test_criterion_3_formula_fidelity():
    """Closed-form deviation derivatives match differencing."""
    suite = deviation_formulas(trajectories=10)
    assert suite.passed, [c for c in suite.cases if not c.passed]
    t = np.pi / 4
    man, force = BUNDLED["euclid-harmonic"].build()
    _, _, phi_ddot = at_point(
        phi_derivatives, man, force, [np.cos(t), np.sin(t)],
        [-np.sin(t), np.cos(t)], [[0.0, np.sin(t)]], [[0.0, np.cos(t)]])
    assert phi_ddot[0] == pytest.approx(-2.0, abs=1e-8)
    _ok("criterion 3 (deviation formula fidelity)")


def test_criterion_4_variation_oracle():
    """Integrated variations track twin-trajectory differences at
    quadratic order; this pins the curvature index convention."""
    for name in ("euclid-harmonic", "sphere-free"):
        man, force = BUNDLED[name].build()
        x0 = (np.array([1.0, 0.0]) if name == "euclid-harmonic"
              else np.array([np.pi / 2, 0.0]))
        v0 = (np.array([0.0, 1.0]) if name == "euclid-harmonic"
              else np.array([0.3, 1.0]))
        e3 = variation_errors(man, force, x0, v0, 1e-3)
        e4 = variation_errors(man, force, x0, v0, 1e-4)
        assert e3 <= 1e-5, (name, e3)
        ratio = e3 / e4
        assert 50.0 <= ratio <= 200.0, (name, ratio)
    _ok("criterion 4 (variation equation vs finite differences)")


def test_criterion_5_identity_suite():
    """Projector gradients, metric compatibility, residual rewrite."""
    proj = projector_identities(count=100)
    assert proj.passed, [c for c in proj.cases if not c.passed]
    compat = metric_compatibility(count=100)
    assert compat.passed, [c for c in compat.cases if not c.passed]
    equiv = rewrite_equivalence(count=1000)
    assert equiv.passed, [c for c in equiv.cases if not c.passed]
    _ok("criterion 5 (exact identity suite)")


def test_criterion_6_rank_two_deviation_space():
    """Weak normality caps the deviation sample matrix at rank two."""
    rng = np.random.default_rng(606)
    for name, spec in BUNDLED.items():
        if spec.weakly_normal is None:
            continue
        man, force = spec.build()
        box = np.asarray(spec.x_box, dtype=float)
        width = box[:, 1] - box[:, 0]
        x0 = (box[:, 0] + width * (0.35 + 0.3 * rng.random(2)))[None, :]
        direction = rng.normal(size=(1, 2))
        g = man.metric(x0)
        speed = np.sqrt(np.einsum('bij,bi,bj->b', g, direction, direction))
        v0 = direction / speed[:, None]
        tau0 = rng.normal(size=(1, 5, 2))
        rho0 = rng.normal(size=(1, 5, 2))
        batch = integrate_batch(man, force, x0, v0, tau0, rho0, 1.0, 1e-3)
        result = deviation_rank(man, single_record(batch, 0), (0.2, 1.0))
        assert not result.inconclusive, name
        if spec.weakly_normal:
            assert result.ratio <= 1e-6, (name, result.ratio)
        elif name == "euclid-harmonic":
            assert result.ratio >= 1e-3, (name, result.ratio)
    _ok("criterion 6 (rank-two deviation space)")


def test_criterion_7_exactness_anchors():
    """Straight-line fronts, fourth-order convergence, speed drift."""
    man, force = BUNDLED["euclid-free"].build()
    cfg = BlowupConfig(p0=[0.0, 0.0], nu=1.0, resolution=64,
                       t_end=0.5, step=1e-3)
    sample = front_at(simulate_blowup(man, force, cfg), 0.5)
    assert np.abs(np.linalg.norm(sample.x, axis=1) - 0.5).max() <= 1e-12

    man_h, force_h = BUNDLED["euclid-harmonic"].build()
    init = FlowState(TangentPoint([1.0, 0.0], [0.0, 1.0]))
    errs = []
    for h in (2e-3, 1e-3):
        rec = integrate(man_h, force_h, init, 2.0, h)
        exact = np.stack([np.cos(rec.times), np.sin(rec.times)], axis=1)
        errs.append(np.abs(rec.x - exact).max())
    ratio = errs[0] / errs[1]
    assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2, ratio

    man_s, force_s = BUNDLED["sphere-free"].build()
    rec = integrate(man_s, force_s,
                    FlowState(TangentPoint([np.pi / 2, 0.0], [0.3, 1.0])),
                    10.0, 1e-3)
    g = man_s.metric(rec.x)
    speeds = np.sqrt(np.einsum('bij,bi,bj->b', g, rec.v, rec.v))
    assert np.abs(speeds - speeds[0]).max() <= 1e-8
    _ok("criterion 7 (exactness anchors)")


def test_criterion_8_determinism(tmp_path, capsys):
    """Identical config and seed give byte-identical outputs."""
    scenario = {
        "dimension": 2,
        "metric": [["1", "0"], ["0", "1"]],
        "force": ["-0.3*v1*sqrt(v1^2+v2^2)", "-0.3*v2*sqrt(v1^2+v2^2)"],
        "integrator": {"step": 0.001, "t_end": 0.2, "output_every": 20},
        "sampler": {"x_box": SAMPLER_BOX, "v_min": 0.5, "v_max": 2.0,
                    "count": 200, "seed": 3},
        "blowup": {"p0": [0, 0], "nu": 1.0, "resolution": 16},
        "shift": {"surface": ["sin(u1)", "cos(u1)"],
                  "box": [[0.0, 6.283185307179586]], "nu": 1.0,
                  "resolution": 16},
        "rank": {"variations": 5, "window": [0.05, 0.2],
                 "trajectories": 3},
        "tolerance": 1e-8,
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(scenario))
    produced = {
        "check": ["residual_report.json"],
        "blowup": ["blowup_front.csv", "blowup_orthogonality.json"],
        "shift": ["shift_front.csv", "shift_orthogonality.json"],
        "rank": ["rank_report.json"],
    }
    for command, files in produced.items():
        dirs = [tmp_path / f"{command}_a", tmp_path / f"{command}_b"]
        for d in dirs:
            code = cli_main([command, "--config", str(cfg_path),
                             "--out-dir", str(d)])
            capsys.readouterr()
            assert code == 0, command
        for name in files:
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes(), (command, name)
    _ok("criterion 8 (byte-identical reruns)")

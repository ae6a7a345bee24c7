import numpy as np
import pytest

from frontshift.geometry import ForceField, Manifold, at_point
from frontshift.normality import (NormalityError, additional_batch, bundle,
                                  classify, raw_batch, sample_tangent_points,
                                  weak_batch)
from frontshift.systems import BUNDLED

EUCLID = Manifold(2, [["1", "0"], ["0", "1"]])
ZERO = ForceField(EUCLID, ["0", "0"])
CONST = ForceField(EUCLID, ["1", "0"])
LINEAR = ForceField(EUCLID, ["0.5*v1", "0.5*v2"])
DRAG = ForceField(EUCLID, ["-0.3*v1*sqrt(v1^2+v2^2)",
                           "-0.3*v2*sqrt(v1^2+v2^2)"])
HARMONIC = ForceField(EUCLID, ["-x1", "-x2"])
BOX = [[-1.0, 1.0], [-1.0, 1.0]]


def _random_points(rng, count, lo=-1.0, hi=1.0):
    """count points as (xs, vs) batches, velocities at least 0.1 long."""
    xs, vs = [], []
    for _ in range(count):
        xs.append(rng.uniform(lo, hi, size=2))
        v = rng.normal(size=2)
        while np.linalg.norm(v) < 0.1:
            v = rng.normal(size=2)
        vs.append(v)
    return np.array(xs), np.array(vs)


def _weak(man, force, xs, vs):
    return weak_batch(bundle(man, force, xs, vs))


def _raw(man, force, xs, vs):
    return raw_batch(bundle(man, force, xs, vs))


def _additional(man, force, xs, vs):
    a1, a2, _ = additional_batch(bundle(man, force, xs, vs))
    return a1, a2


def test_weak_residual_zero_force_exact():
    r1, r2 = at_point(_weak, EUCLID, ZERO, [0.3, -0.2], [0.4, 1.0])
    assert np.abs(r1).max() == 0.0
    assert np.abs(r2).max() == 0.0


def test_weak_residual_constant_force_hand_value():
    r1, r2 = at_point(_weak, EUCLID, CONST, [0.5, 0.5], [0.0, 1.0])
    assert np.allclose(r1, [2.0, 0.0], atol=1e-15)
    assert np.abs(r2).max() < 1e-15


def test_weak_residual_velocity_aligned_vanishes():
    rng = np.random.default_rng(2)
    r1, r2 = _weak(EUCLID, LINEAR, *_random_points(rng, 100))
    assert np.abs(r1).max() < 1e-12
    assert np.abs(r2).max() < 1e-12


def test_raw_first_residual_examples():
    x, v = [0.5, 0.5], [0.0, 1.0]
    assert np.allclose(at_point(_raw, EUCLID, CONST, x, v)[0], [2.0, 0.0],
                       atol=1e-15)
    assert np.abs(at_point(_raw, EUCLID, ZERO, x, v)[0]).max() == 0.0


def test_raw_second_residual_velocity_aligned():
    rng = np.random.default_rng(3)
    _, raw2 = _raw(EUCLID, LINEAR, *_random_points(rng, 50))
    assert np.abs(raw2).max() < 1e-12


def test_second_equation_catches_position_modulated_drag():
    # F = c(x) v satisfies the first equation for ANY coefficient (alpha
    # stays parallel to v), so only the second equation can reject it
    modulated = ForceField(EUCLID, ["x2*v1", "x2*v2"])
    rng = np.random.default_rng(21)
    r1, r2 = _weak(EUCLID, modulated, *_random_points(rng, 50))
    assert np.abs(r1).max() < 1e-12
    assert np.abs(r2).max() > 1e-2
    rep = classify(EUCLID, modulated, BOX, 0.5, 2.0, 300, seed=0, tol=1e-8)
    assert rep.verdict == "neither"


def test_cosmetic_rewrite_equivalence():
    # the combined system is the raw pair divided by the speed
    rng = np.random.default_rng(5)
    for name in ("euclid-const", "euclid-harmonic", "polar-drag",
                 "sphere-free"):
        spec = BUNDLED[name]
        man, force = spec.build()
        box = np.asarray(spec.x_box)
        xs, vs = [], []
        for _ in range(1000):
            x = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(2)
            v = rng.normal(size=2)
            if np.linalg.norm(v) < 0.1:
                continue
            xs.append(x)
            vs.append(v)
        assert len(xs) > 900
        b = bundle(man, force, np.array(xs), np.array(vs))
        s = b['speed'][:, None]
        r1, r2 = weak_batch(b)
        raw1, raw2 = raw_batch(b)
        assert np.abs(raw1 - s * r1).max() < 1e-12
        assert np.abs(raw2 - s * r2).max() < 1e-12


def test_projection_annihilation():
    rng = np.random.default_rng(7)
    for force in (CONST, HARMONIC, DRAG):
        xs, vs = _random_points(rng, 50)
        g = EUCLID.metric(xs)
        unit = vs / np.sqrt(np.einsum('bij,bi,bj->b', g, vs, vs))[:, None]
        r1, r2 = _weak(EUCLID, force, xs, vs)
        assert np.abs(np.einsum('bi,bi->b', r1, unit)).max() < 1e-12
        assert np.abs(np.einsum('bi,bi->b', r2, unit)).max() < 1e-12
        a1, a2 = _additional(EUCLID, force, xs, vs)
        assert np.abs(np.einsum('bij,bj->bi', a1, unit)).max() < 1e-12
        assert np.abs(np.einsum('bi,bij->bj', unit, a1)).max() < 1e-12
        assert np.abs(np.einsum('bij,bj->bi', a2, unit)).max() < 1e-12
        unit_cov = np.einsum('bij,bj->bi', g, unit)
        assert np.abs(np.einsum('bi,bij->bj', unit_cov, a2)).max() < 1e-12


def test_additional_residual_trivial_in_two_dims():
    # rank-one projector: both families vanish for every field
    rng = np.random.default_rng(9)
    for force in (ZERO, CONST, LINEAR, DRAG, HARMONIC):
        a1, a2 = _additional(EUCLID, force, *_random_points(rng, 20))
        assert np.abs(a1).max() < 1e-13
        assert np.abs(a2).max() < 1e-13


EUCLID3 = Manifold(3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def test_additional_residual_three_dims():
    rng = np.random.default_rng(11)
    aligned = ForceField(EUCLID3, ["0.5*v1", "0.5*v2", "0.5*v3"])
    shear = ForceField(EUCLID3, ["v2", "0", "0"])
    xs, vs = [], []
    for _ in range(50):
        xs.append(rng.uniform(-1, 1, size=3))
        vs.append(rng.normal(size=3) + 0.1)
    xs, vs = np.array(xs), np.array(vs)
    a1, a2 = _additional(EUCLID3, aligned, xs, vs)
    assert np.abs(a1).max() < 1e-12
    assert np.abs(a2).max() < 1e-12
    _, a2s = _additional(EUCLID3, shear, xs, vs)
    assert np.abs(a2s).max() > 1e-3


def test_classify_dichotomy_verdicts():
    expected = {
        "euclid-free": "complete-normal",
        "euclid-linear": "complete-normal",
        "euclid-drag": "weak-normal",
        "euclid-const": "neither",
        "euclid-harmonic": "neither",
    }
    for name, verdict in expected.items():
        man, force = BUNDLED[name].build()
        rep = classify(man, force, BOX, 0.5, 2.0, 400, seed=0, tol=1e-8)
        assert rep.verdict == verdict, (name, rep.verdict)


def test_classify_zero_complete_at_tight_tolerance():
    rep = classify(EUCLID, ZERO, BOX, 0.5, 2.0, 1000, seed=0, tol=1e-10)
    assert rep.verdict == "complete-normal"
    assert rep.max_weak == 0.0


def test_classify_drag_weak_at_tight_tolerance():
    rep = classify(EUCLID, DRAG, BOX, 0.5, 2.0, 500, seed=0, tol=1e-10)
    assert rep.verdict == "weak-normal"


def test_classify_constant_force_magnitude():
    rep = classify(EUCLID, CONST, BOX, 0.5, 2.0, 500, seed=0, tol=1e-10)
    assert rep.verdict == "neither"
    # worst case: velocity orthogonal to the force at the slowest shell
    assert rep.max_weak == pytest.approx(2.0 / 0.5, rel=1e-2)


def test_classify_inconclusive_guard_band():
    # a residual between tol and 100 tol must not flap to a verdict
    faint = ForceField(EUCLID, ["0.00000002", "0"])
    rep = classify(EUCLID, faint, BOX, 0.5, 2.0, 200, seed=0, tol=1e-8)
    assert 1e-8 < rep.max_weak < 1e-6
    assert rep.verdict == "inconclusive"


def test_classify_no_homogeneity():
    doubled = ForceField(EUCLID, ["2", "0"])
    rep1 = classify(EUCLID, CONST, BOX, 0.5, 2.0, 200, seed=0, tol=1e-8)
    rep2 = classify(EUCLID, doubled, BOX, 0.5, 2.0, 200, seed=0, tol=1e-8)
    assert rep2.max_weak != rep1.max_weak


def test_classify_empty_sample_set():
    with pytest.raises(NormalityError):
        classify(EUCLID, ZERO, BOX, 0.5, 2.0, 0)


def test_sampler_deterministic_and_in_range():
    xs1, vs1 = sample_tangent_points(EUCLID, BOX, 0.5, 2.0, 100, seed=4)
    xs2, vs2 = sample_tangent_points(EUCLID, BOX, 0.5, 2.0, 100, seed=4)
    assert np.array_equal(xs1, xs2) and np.array_equal(vs1, vs2)
    xs3, _ = sample_tangent_points(EUCLID, BOX, 0.5, 2.0, 100, seed=5)
    assert not np.array_equal(xs1, xs3)
    speeds = np.linalg.norm(vs1, axis=1)
    assert speeds.min() >= 0.5 - 1e-12
    assert speeds.max() <= 2.0 + 1e-12
    assert xs1.min() >= -1.0 and xs1.max() <= 1.0


def test_sampler_seed_range():
    # indices past the int64 range would wrap to non-positive Halton
    # indices and put every sample at the box corner
    top = 2 ** 63 - 101
    xs, _ = sample_tangent_points(EUCLID, BOX, 0.5, 2.0, 100, seed=top)
    assert xs.min() < 0.0 < xs.max()
    for seed in (-1, top + 1):
        with pytest.raises(NormalityError):
            sample_tangent_points(EUCLID, BOX, 0.5, 2.0, 100, seed=seed)


def test_sampler_curved_metric_speeds():
    spec = BUNDLED["sphere-free"]
    man, _ = spec.build()
    xs, vs = sample_tangent_points(man, spec.x_box, 0.5, 2.0, 64, seed=0)
    g = man.metric(xs)
    speeds = np.sqrt(np.einsum('bij,bi,bj->b', g, vs, vs))
    assert speeds.min() >= 0.5 - 1e-12
    assert speeds.max() <= 2.0 + 1e-12

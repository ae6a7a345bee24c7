import tracemalloc
import warnings

import numpy as np
import pytest

from frontshift import normality
from frontshift.geometry import ForceField, Manifold, at_point, g_norm
from frontshift.normality import (_PRIMES, NormalityError, additional_batch,
                                  bundle, classify, halton, raw_batch,
                                  sample_tangent_points, weak_batch)
from frontshift.systems import BUNDLED
from oracles import sample_tangent_points_batch_first
from test_geometry import JET_CHARTS
from test_rhs_reference import CHARTS

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


def _bundle(man, force, xs, vs):
    """The residual bundle of batch-first points: the families take the
    batch axis last."""
    return bundle(man, force, np.asarray(xs).T, np.asarray(vs).T)


def _first(arrays):
    """Batch-last family values with their batch axis moved first."""
    return tuple(np.moveaxis(a, -1, 0) for a in arrays)


def _weak(man, force, xs, vs):
    return _first(weak_batch(_bundle(man, force, xs, vs)))


def _raw(man, force, xs, vs):
    return _first(raw_batch(_bundle(man, force, xs, vs)))


def _additional(man, force, xs, vs):
    a1, a2, _ = additional_batch(_bundle(man, force, xs, vs))
    return _first((a1, a2))


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
        b = _bundle(man, force, xs, vs)
        s = b['speed']
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


@pytest.mark.parametrize("chart", ["S2", "S3"])
def test_classify_evaluates_the_metric_once(monkeypatch, chart):
    # the sampler's g-speeds make the one metric call, batch-last over
    # every sample; the residual blocks take g from the first-order jet
    metric_src, force_src, box = CHARTS[chart]
    man = Manifold(len(metric_src), metric_src)
    force = ForceField(man, force_src)
    calls = []
    g_norm_last = Manifold.g_norm_last

    def counted(self, xs, ws):
        calls.append(xs.shape[-1])
        return g_norm_last(self, xs, ws)
    monkeypatch.setattr(Manifold, "g_norm_last", counted)
    classify(man, force, box, 0.5, 2.0, 300)
    assert calls == [300]


def test_sampler_seed_range():
    # indices past the int64 range would wrap to non-positive Halton
    # indices and put every sample at the box corner
    top = 2 ** 63 - 101
    xs, _ = sample_tangent_points(EUCLID, BOX, 0.5, 2.0, 100, seed=top)
    assert xs.min() < 0.0 < xs.max()
    for seed in (-1, top + 1):
        with pytest.raises(NormalityError):
            sample_tangent_points(EUCLID, BOX, 0.5, 2.0, 100, seed=seed)


def _halton_reference(index, base):
    """The radical inverse digit by digit until every index is spent."""
    out = np.zeros(index.shape, dtype=float)
    frac = 1.0
    idx = index.astype(np.int64).copy()
    while np.any(idx > 0):
        frac /= base
        out += frac * (idx % base)
        idx //= base
    return out


@pytest.mark.parametrize("first", [1, 2 ** 63 - 2000])
def test_halton_is_the_digit_loop_bit_for_bit(first):
    # seed 0, and the last indices the sampler's seed range allows
    count = 2000
    idx = np.arange(count, dtype=np.int64) + first
    assert idx[-1] == (2 ** 63 - 1 if first > 1 else count)
    for base in _PRIMES:
        assert np.array_equal(halton(idx, base), _halton_reference(idx, base))
    # a zero index among others, and no index at all
    assert np.array_equal(halton(np.array([0, 5, 0]), 3),
                          _halton_reference(np.array([0, 5, 0]), 3))
    assert halton(np.zeros(0, dtype=np.int64), 2).shape == (0,)


def _sampler_chart(chart):
    """(manifold, box) of S^2, S^3, S^4, E^3 or the dense 4-D chart."""
    if chart == "E3":
        flat = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
        return Manifold(3, flat), [[-1.0, 1.0]] * 3
    metric_src, _, box = JET_CHARTS[chart]
    return Manifold(len(metric_src), metric_src), box


@pytest.mark.parametrize("chart", ["S2", "S3", "S4", "E3", "dense4"])
def test_sampler_is_the_batch_first_sampler_bit_for_bit(chart):
    man, box = _sampler_chart(chart)
    n = man.dimension
    for count in (1, 7, 2049, 20_000):
        for seed in (0, 977):
            xs, vs = sample_tangent_points(man, box, 0.5, 2.0, count, seed)
            ref_xs, ref_vs = sample_tangent_points_batch_first(
                man, box, 0.5, 2.0, count, seed)
            assert np.array_equal(xs, ref_xs) and np.array_equal(vs, ref_vs)
            # (count, n) views of batch-last rows
            assert xs.shape == vs.shape == (count, n)
            assert xs.T.flags.c_contiguous and vs.T.flags.c_contiguous
            assert np.array_equal(man.g_norm_last(xs.T, vs.T),
                                  g_norm(man.metric(ref_xs), ref_vs))


def test_sampler_forms_no_metric_per_sample():
    # 50 000 samples in 3-D.  The sampler must hold its two outputs
    # (2.4 MB) and the metric's six unique-entry rows (2.4 MB); beyond
    # those it peaked at 2.0 MB batch-last, and at 6.4 MB batch-first,
    # where the gathered (count, 3, 3) metric alone takes 3.6 MB.
    man, box = _sampler_chart("S3")
    count, n = 50_000, 3
    sample_tangent_points(man, box, 0.5, 2.0, 1)   # compile outside the trace
    tracemalloc.start()
    try:
        xs, vs = sample_tangent_points(man, box, 0.5, 2.0, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = xs.nbytes + vs.nbytes + count * n * (n + 1) // 2 * 8
    assert peak - held < count * n * n * 8


def test_sampler_curved_metric_speeds():
    spec = BUNDLED["sphere-free"]
    man, _ = spec.build()
    xs, vs = sample_tangent_points(man, spec.x_box, 0.5, 2.0, 64, seed=0)
    g = man.metric(xs)
    speeds = np.sqrt(np.einsum('bij,bi,bj->b', g, vs, vs))
    assert speeds.min() >= 0.5 - 1e-12
    assert speeds.max() <= 2.0 + 1e-12


def _four_dim_cases():
    flat = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    # round S^4: diag(1, sin^2 x1, sin^2 x1 sin^2 x2, ...)
    round_ = [[("*".join(f"sin(x{k + 1})^2" for k in range(i)) or "1")
               if i == j else "0" for j in range(4)] for i in range(4)]
    euclid, sphere = Manifold(4, flat), Manifold(4, round_)
    flat_box = [[-1.0, 1.0]] * 4
    round_box = [[0.6, 2.5]] * 3 + [[0.0, 6.0]]

    def drag(man, metric):
        speed = " + ".join(f"{metric[k][k]}*v{k + 1}^2" for k in range(4))
        return ForceField(man, [f"-0.3*sqrt({speed})*v{k + 1}"
                                for k in range(4)])

    return {
        "E4 zero": (euclid, ForceField(euclid, ["0"] * 4), flat_box),
        "E4 harmonic": (euclid, ForceField(
            euclid, [f"-2*x{k + 1}" for k in range(4)]), flat_box),
        "E4 constant": (euclid, ForceField(euclid, ["1", "0", "0", "0"]),
                        flat_box),
        "E4 drag": (euclid, drag(euclid, flat), flat_box),
        "S4 drag": (sphere, drag(sphere, round_), round_box),
    }


@pytest.mark.parametrize("case, verdict", [
    ("E4 zero", "complete-normal"),
    ("E4 harmonic", "neither"),
    ("E4 constant", "neither"),
    ("E4 drag", "complete-normal"),
    ("S4 drag", "complete-normal"),
])
def test_classify_four_dimensions(case, verdict):
    man, force, box = _four_dim_cases()[case]
    rep = classify(man, force, box, 0.5, 2.0, 4000, seed=3)
    assert rep.verdict == verdict
    assert not rep.additional_trivial
    if case.endswith("drag"):
        assert rep.max_weak <= 1e-14


def _blocked_cases():
    cases = {}
    for chart in ("S2", "S3"):
        metric_src, force_src, box = CHARTS[chart]
        man = Manifold(len(metric_src), metric_src)
        cases[f"{chart} drag"] = (man, ForceField(man, force_src), box)
    euclid3 = Manifold(3, [["1" if i == j else "0" for j in range(3)]
                           for i in range(3)])
    cases["E3 harmonic"] = (euclid3, ForceField(
        euclid3, ["-1.3*x1", "-1.3*x2", "-1.3*x3"]), [[-1.0, 1.0]] * 3)
    cases["S4 drag"] = _four_dim_cases()["S4 drag"]
    return cases


@pytest.mark.parametrize("count, block", [(50, 7), (4500, None)])
@pytest.mark.parametrize("case", ["S2 drag", "S3 drag", "E3 harmonic",
                                  "S4 drag"])
def test_blocked_classify_is_the_single_block_bit_for_bit(monkeypatch, case,
                                                          count, block):
    # block None keeps the module's own size: blocks of 2048, 2048, 404
    man, force, box = _blocked_cases()[case]

    def run(size):
        if size is not None:
            monkeypatch.setattr(normality, "_SAMPLE_BLOCK", size)
        return classify(man, force, box, 0.5, 2.0, count, seed=11)
    blocked = run(block)
    assert normality.sample_blocks(count) > 2
    single = run(count)
    for name in single._fields:
        a, b = getattr(single, name), getattr(blocked, name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), name
        else:
            assert a == b, name


def test_classify_memory_is_bounded_by_the_block():
    # 20 000 samples in 3-D: every residual tensor at once peaks at 22 MiB;
    # one block at a time leaves the sampler's arrays and the norms
    metric_src, force_src, box = CHARTS["S3"]
    man = Manifold(3, metric_src)
    force = ForceField(man, force_src)
    classify(man, force, box, 0.5, 2.0, 10)       # compile outside the trace
    tracemalloc.start()
    try:
        classify(man, force, box, 0.5, 2.0, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_classify_rejects_undefined_residuals():
    # nan for x1 < 0.5, and the x1-derivative infinite at x1 = 0.5
    force = ForceField(EUCLID, [
        "-0.3*sqrt(v1^2 + v2^2)*v1",
        "-0.3*sqrt(v1^2 + v2^2)*v2 + 1e-30*sqrt(x1 - 0.5)*v2"])
    box = [[0.0, 1.0], [0.0, 1.0]]
    xs, vs = sample_tangent_points(EUCLID, box, 0.5, 2.0, 300, seed=0)
    undefined = xs[:, 0] <= 0.5
    first = int(np.argmax(undefined))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NormalityError) as exc:
            classify(EUCLID, force, box, 0.5, 2.0, 300, seed=0)
    assert str(exc.value) == (
        f"residuals undefined at {int(undefined.sum())} of 300 samples, "
        f"first at x={[float(c) for c in xs[first]]}, "
        f"v={[float(c) for c in vs[first]]}")


def test_classify_rejects_an_overflowing_strong_residual():
    # a steep rotation field on a tiny box: the weak and additional norms
    # stay finite, but the n = 2 strong one squares 1e154 and overflows
    force = ForceField(EUCLID, ["1e154*x2", "-1e154*x1"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NormalityError, match="undefined at 50 of 50 "):
            classify(EUCLID, force, [[-1e-80, 1e-80]] * 2, 0.5, 2.0, 50)

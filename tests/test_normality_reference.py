"""The classifier path pinned to the einsum formulation it replaced.

The reference below keeps the einsum forms of the velocity frame, the
lowered force tensors, the weak, raw and additional residual families,
the three residual norms, alpha/beta and the deviation derivatives, as
the production code had them before they became batched matrix
products and then batch-last broadcast products.  The references stay
batch-first; the production arrays, batch-last, are compared with their
batch axis moved first.  The spatial gradient is an einsum over the
full connection of the oracle ``Manifold.christoffel``, with F and its
Jacobians from the oracles ``components`` and ``jacobians``, so the
reference shares no step with the production path, which takes them
from the first-order jet.  The last test runs ``classify`` itself
against norms built from these references alone.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from frontshift import deviation, normality
from frontshift.config import load_config, parse_config
from frontshift.geometry import ForceField, Manifold, force_tensors
from test_rhs_reference import CHARTS, drag, sphere

REL = 1e-12


def ref_frame(g, vs):
    speed = np.sqrt(np.einsum('bij,bi,bj->b', g, vs, vs))
    unit = vs / speed[:, None]
    unit_cov = np.einsum('bij,bj->bi', g, unit)
    n = vs.shape[1]
    proj = np.broadcast_to(np.eye(n), g.shape).copy()
    proj -= np.einsum('br,bi->bri', unit, unit_cov)
    return speed, unit, unit_cov, proj


def ref_bundle(man, force, xs, vs):
    g = man.metric(xs)
    ginv = np.linalg.inv(g)
    gamma = man.christoffel(xs, ginv=ginv)
    f_vals = force.components(xs, vs)
    dfdx, velocity = force.jacobians(xs, vs)
    spatial = (dfdx - np.einsum('bjis,bs,bjk->bik', gamma, vs, velocity)
               + np.einsum('bkis,bs->bik', gamma, f_vals))
    b = dict(g=g, ginv=ginv, v=vs, f=f_vals,
             f_cov=np.einsum('bij,bj->bi', g, f_vals),
             spa=spatial, vel=velocity,
             spa_cov=np.einsum('bik,bkj->bij', spatial, g),
             vel_cov=np.einsum('bik,bkj->bij', velocity, g))
    b['speed'], b['unit'], b['unit_cov'], b['proj'] = ref_frame(g, vs)
    return b


def ref_alpha_beta(b):
    vs, spa_cov, vel_cov = b['v'], b['spa_cov'], b['vel_cov']
    alpha = 2.0 * b['f_cov'] + np.einsum('brs,bs->br', vel_cov, vs)
    beta = (np.einsum('bs,bsr->br', vs, spa_cov)
            + np.einsum('bs,brs->br', vs, spa_cov)
            + np.einsum('bs,bsr->br', b['f'], vel_cov))
    return alpha, beta


def ref_phi_derivatives(b, tau, rho):
    alpha, beta = ref_alpha_beta(b)
    v_cov = np.einsum('bij,bj->bi', b['g'], b['v'])
    phi_vals = np.einsum('bi,bji->bj', v_cov, tau)
    dot_vals = (np.einsum('bi,bji->bj', b['f_cov'], tau)
                + np.einsum('bi,bji->bj', v_cov, rho))
    ddot_vals = (np.einsum('br,bjr->bj', alpha, rho)
                 + np.einsum('br,bjr->bj', beta, tau))
    return phi_vals, dot_vals, ddot_vals


def ref_weak(b):
    s = b['speed']
    grad_scalar = (np.einsum('bji,bj->bi', b['proj'], b['f_cov']) / s[:, None]
                   + np.einsum('bj,bij->bi', b['unit'], b['vel_cov']))
    first = np.einsum('bi,bik->bk',
                      b['f_cov'] / s[:, None] + grad_scalar, b['proj'])
    sym = b['spa_cov'] + np.einsum('bij->bji', b['spa_cov'])
    ff = np.einsum('bi,bj->bij', b['f_cov'], b['f_cov'])
    term1 = np.einsum('bij,bj->bi', sym - 2.0 * ff / (s ** 2)[:, None, None],
                      b['unit'])
    term2 = np.einsum('bj,bji->bi', b['f'], b['vel_cov']) / s[:, None]
    nn_grad = np.einsum('br,bj,bjr->b', b['unit'], b['unit'], b['vel_cov'])
    term3 = -b['f_cov'] * (nn_grad / s)[:, None]
    second = np.einsum('bi,bik->bk', term1 + term2 + term3, b['proj'])
    return first, second


def ref_raw(b):
    alpha, beta = ref_alpha_beta(b)
    first = np.einsum('br,brk->bk', alpha, b['proj'])
    nf = np.einsum('bs,bs->b', b['unit'], b['f_cov'])
    nn_grad = np.einsum('bs,bq,bsq->b', b['unit'], b['unit'], b['vel_cov'])
    inner_cov = (beta
                 - 2.0 * b['f_cov'] * (nf / b['speed'])[:, None]
                 - b['f_cov'] * nn_grad[:, None])
    second = np.einsum('br,brk->bk', inner_cov, b['proj'])
    return first, second


def ref_additional(b):
    n = b['proj'].shape[-1]
    s = b['speed']
    n_grad = np.einsum('bm,bmj->bj', b['unit'], b['vel_cov'])
    x_mat = (np.einsum('bi,bj->bij', b['f_cov'], n_grad) / s[:, None, None]
             - b['spa_cov'])
    s1 = x_mat - np.einsum('bij->bji', x_mat)
    a1 = np.einsum('bie,bjs,bij->bes', b['proj'], b['proj'], s1)
    lhs = np.einsum('bei,bji,bjs->bes', b['proj'], b['vel'], b['proj'])
    trace = np.einsum('bjm,bji,bmi->b', b['proj'], b['vel'], b['proj'])
    a2 = lhs - (trace / (n - 1))[:, None, None] * b['proj']
    return a1, a2, s1


def ref_norm_cov(ginv, cov):
    return np.sqrt(np.einsum('bij,bi,bj->b', ginv, cov, cov))


def ref_norm_twolow(ginv, t):
    return np.sqrt(np.einsum('bia,bjc,bij,bac->b', ginv, ginv, t, t))


def ref_norm_uplow(g, ginv, t):
    return np.sqrt(np.einsum('bea,bsc,bes,bac->b', g, ginv, t, t))


def _tilted(force, n):
    # a term mixing positions and velocities, so that no residual family
    # vanishes and a relative pin has something to hold on to
    return [f"{f} + 0.2*x{(k + 1) % n + 1}*v{k + 1} - 0.1*v{(k + 2) % n + 1}^2"
            for k, f in enumerate(force)]


S4 = sphere(4)
SYSTEMS = {
    "S2": (CHARTS["S2"][0], _tilted(CHARTS["S2"][1], 2), CHARTS["S2"][2]),
    "S3": (CHARTS["S3"][0], _tilted(CHARTS["S3"][1], 3), CHARTS["S3"][2]),
    "skew3": CHARTS["skew3"],
    "S4": (S4, _tilted(drag(S4), 4), [(0.8, 2.3)] * 3 + [(0.0, 6.0)]),
}


def _first(a):
    """A batch-last production array with its batch axis moved first, the
    layout of the references."""
    return np.moveaxis(a, -1, 0)


def _last(a):
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _close(name, got, ref, scale=None):
    assert got.shape == ref.shape, name
    if scale is None:
        scale = np.abs(ref).max()
    assert scale > 0.0, name
    assert np.abs(got - ref).max() <= REL * scale, name


@pytest.fixture(params=sorted(SYSTEMS))
def system(request):
    metric, force_src, box = SYSTEMS[request.param]
    n = len(metric)
    man = Manifold(n, metric)
    force = ForceField(man, force_src)
    rng = np.random.default_rng([23, n, len(request.param)])
    nb = 32
    lo, hi = np.array(box).T
    xs = lo + (hi - lo) * rng.random((nb, n))
    assert np.linalg.eigvalsh(man.metric(xs)).min() > 0.1
    vs = rng.normal(size=(nb, n))
    return man, force, xs, vs, rng


def test_frame_and_lowered_tensors_match_reference(system):
    man, force, xs, vs, _ = system
    got = force_tensors(force, xs.T, vs.T)
    ref = ref_bundle(man, force, xs, vs)
    for key in ('g', 'ginv', 'v', 'f', 'f_cov', 'vel', 'spa_cov', 'vel_cov'):
        _close(key, _first(got[key]), ref[key])
    frame = man.frame(vs.T, got['g'])
    for name, a, r in zip(("speed", "unit", "unit_cov", "proj"), frame,
                          ref_frame(ref['g'], vs)):
        _close(name, _first(a), r)


def test_residual_families_match_reference(system):
    man, force, xs, vs, _ = system
    got = normality.bundle(man, force, xs.T, vs.T)
    ref = ref_bundle(man, force, xs, vs)
    for name, a, r in zip(("weak first", "weak second", "raw first",
                           "raw second"),
                          normality.weak_batch(got) + normality.raw_batch(got),
                          ref_weak(ref) + ref_raw(ref)):
        _close(name, _first(a), r)
    a1, a2, s1 = (_first(a) for a in normality.additional_batch(got))
    r1, r2, rs1 = ref_additional(ref)
    _close("s1", s1, rs1)
    if man.dimension == 2:
        # the projector has rank one, so both projected families are
        # rounding noise; pin them on the scale of what they project
        _close("a1", a1, r1, scale=np.abs(rs1).max())
        _close("a2", a2, r2, scale=np.abs(ref['vel']).max())
    else:
        _close("a1", a1, r1)
        _close("a2", a2, r2)


def test_norms_match_reference(system):
    man, _, xs, _, rng = system
    nb, n = xs.shape
    g = man.metric(xs)
    ginv = np.linalg.inv(g)
    cov = rng.normal(size=(nb, n))
    t = rng.normal(size=(nb, n, n))
    gl, ginvl, tl = _last(g), _last(ginv), _last(t)
    _close("norm_cov", normality._norm_cov(ginvl, cov.T),
           ref_norm_cov(ginv, cov))
    _close("norm_twolow", normality._norm_twolow(ginvl, tl),
           ref_norm_twolow(ginv, t))
    _close("norm_uplow", normality._norm_uplow(gl, ginvl, tl),
           ref_norm_uplow(g, ginv, t))
    # an operand that is a transposed view, as the strong norm passes it
    _close("norm_uplow of a view", normality._norm_uplow(
        gl, ginvl, tl.swapaxes(0, 1)), ref_norm_uplow(g, ginv,
                                                      t.swapaxes(1, 2)))


def test_deviation_formulas_match_reference(system):
    man, force, xs, vs, rng = system
    nb, n = xs.shape
    tau = rng.normal(size=(nb, n - 1, n))
    rho = rng.normal(size=(nb, n - 1, n))
    got_b = force_tensors(force, xs.T, vs.T)
    ref_b = ref_bundle(man, force, xs, vs)
    for name, a, r in zip(("alpha", "beta"), deviation.alpha_beta(got_b),
                          ref_alpha_beta(ref_b)):
        _close(name, _first(a), r)
    got = deviation.phi_derivatives(force, xs, vs, tau, rho)
    for name, a, r in zip(("phi", "phi_dot", "phi_ddot"), got,
                          ref_phi_derivatives(ref_b, tau, rho)):
        _close(name, a, r)


def test_strong_norm_is_the_index_notation_norm():
    # n = 2: the isotropy defect S^k_i = dF^k/dv^i - (tr / n) delta^k_i
    # has |S|^2 = g_kl g^ij S^k_i S^l_j.  Drag on the curved S^2 chart
    # has s1 = 0, so the strong norm is |S| alone, and S is not
    # symmetric in the metric, so reading its indices the other way
    # round gives another number.
    metric, force_src, box = CHARTS["S2"]
    man = Manifold(2, metric)
    force = ForceField(man, force_src)
    xs, vs = normality.sample_tangent_points(man, box, 0.5, 2.0, 64, seed=3)
    _, _, strong = normality._block_norms(man, force, xs.T, vs.T)
    b = ref_bundle(man, force, xs, vs)
    defect = b['vel'] - 0.5 * np.einsum('bii->b', b['vel'])[:, None,
                                                             None] * np.eye(2)
    want = np.sqrt(np.einsum('bkl,bij,bik,bjl->b', b['g'], b['ginv'],
                             defect, defect))
    _close("strong", strong, want)
    swapped = np.sqrt(np.einsum('bkl,bij,bki,blj->b', b['g'], b['ginv'],
                                defect, defect))
    assert np.abs(swapped - want).max() > 1e-3 * want.max()


def ref_norms(man, force, xs, vs):
    """Per-sample weak, additional and (n = 2, else None) strong residual
    norms of batch-first samples, every step from the references."""
    b = ref_bundle(man, force, xs, vs)
    g, ginv = b['g'], b['ginv']
    first, second = ref_weak(b)
    a1, a2, s1 = ref_additional(b)
    weak = np.maximum(ref_norm_cov(ginv, first), ref_norm_cov(ginv, second))
    add = np.maximum(ref_norm_twolow(ginv, a1), ref_norm_uplow(g, ginv, a2))
    n = man.dimension
    if n != 2:
        return weak, add, None
    defect = b['vel'] - (np.einsum('bii->b', b['vel']) / n)[:, None,
                                                            None] * np.eye(n)
    strong = np.maximum(ref_norm_twolow(ginv, s1),
                        ref_norm_uplow(g, ginv, defect.swapaxes(1, 2)))
    return weak, add, strong


SCENARIOS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "scenarios.py")
CONFIGS = sorted((Path(__file__).resolve().parent.parent
                  / "configs").glob("*.json"))


def _verdict_configs():
    """The check scenarios of the benchmark's verdicts workload (S^2 drag,
    S^3 drag and E^3 harmonic, 20 000 samples each) at one seed."""
    spec = importlib.util.spec_from_file_location("verdict_scenarios",
                                                  SCENARIOS)
    scenarios = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = scenarios
    spec.loader.exec_module(scenarios)
    return {op.name: parse_config(doc)
            for op, doc in scenarios.build("verdicts", 7)
            if op.command == "check"}


VERDICT_CONFIGS = _verdict_configs()
CASES = sorted(VERDICT_CONFIGS) + [path.stem for path in CONFIGS]


@pytest.mark.parametrize("case", CASES)
def test_classify_agrees_with_the_reference_formulas(case):
    # the verdict of every bundled config and of the benchmark's check
    # scenarios is the one the reference formulas give on the same
    # samples; where a residual is well above rounding (a field that is
    # not normal), its maximum and mean agree with them too
    cfg = (VERDICT_CONFIGS[case] if case in VERDICT_CONFIGS
           else load_config(CONFIGS[[p.stem for p in CONFIGS].index(case)]))
    man, force = cfg.build()
    s = cfg.sampler
    rep = normality.classify(man, force, s.x_box, s.v_min, s.v_max, s.count,
                             seed=s.seed, tol=cfg.tolerance)
    weak, add, strong = ref_norms(man, force, rep.xs, rep.vs)
    upgrade = add if strong is None else strong
    assert rep.verdict == normality._verdict(
        weak.max(), upgrade.max(), cfg.tolerance)
    pairs = [("weak", (rep.max_weak, rep.mean_weak), weak),
             ("additional", (rep.max_additional, rep.mean_additional), add)]
    if strong is not None:
        pairs.append(("strong", (rep.max_strong_additional,), strong))
    for name, got, ref in pairs:
        want = (ref.max(), ref.mean())[:len(got)]
        if ref.max() > 1e-6:
            for a, r in zip(got, want):
                assert abs(a - r) <= REL * r, name
        else:
            assert max(got) <= 1e-10, name

"""The shift of a circle in E^2 outward, against its closed form.

A circle of radius R shifted along its outward unit normals at launch
speed 1 stays a family of concentric circles: under the drag F = -c|v|v
every normal line is traversed at arc length s(t) = ln(1 + c t)/c (s = t
for the free field), so x = (R + s) e(u), v = s' e(u), tau = (R + s)
e'(u) and its covariant rate rho = s' e'(u), with e(u) = (cos u, sin u).

Two charts of the same plane, each pinning another part of the launch:
- Cartesian: the normal turns with u, so the launch rate rho0 = d(nu
  n)/du comes from ``simulate_shift``'s central difference at u +- 1e-6
  times the box width, and the connection term is zero.  That difference
  errs by about 4e-11 here (ROADMAP item 6(a)), so tau and rho are held
  to 1e-10, and x and v, which the difference does not reach, to 1e-12.
- log-polar, x = (ln r, angle), g = exp(2 x1) diag(1, 1): the circle is
  x = (ln R, u), its g-unit normal (1/R, 0) differs from the Euclidean
  one and does not turn, so the difference is exactly zero and rho0 is
  the connection term gamma(K, v0) = (0, 1/R) alone.  Along the front x
  = (ln(R + s), u), v = (s'/(R + s), 0), tau = (0, 1) and rho = (0,
  s'/(R + s)).  RK4 errs by about 1e-13 at the step used, so all four
  are held to 1e-12.
The orientation rule (tangents, normal) positively oriented gives the
inward normal on this parametrization, so ``orient_flip`` turns it
outward; the inward front would reach its focal point at s = R.
"""

import numpy as np
import pytest

from frontshift.blowup import HypersurfaceSpec, simulate_shift
from frontshift.geometry import ForceField, Manifold

R, T_END, H = 0.7, 1.0, 1e-3
CHARTS = {
    "cartesian": ([["1", "0"], ["0", "1"]], "sqrt(v1^2 + v2^2)",
                  [f"{R}*cos(u1)", f"{R}*sin(u1)"]),
    "log-polar": ([["exp(2*x1)", "0"], ["0", "exp(2*x1)"]],
                  "exp(x1)*sqrt(v1^2 + v2^2)", [f"ln({R})", "u1"]),
}
# (x and v, tau and rho) tolerances
TOL = {"cartesian": (1e-12, 1e-10), "log-polar": (1e-12, 1e-12)}
DRAG = {"free": 0.0, "drag": 0.3}


def _shift(chart, c):
    metric, speed, surface = CHARTS[chart]
    man = Manifold(2, metric)
    force = ForceField(man, [f"-{c}*{speed}*v{k}" for k in (1, 2)]
                       if c else ["0", "0"])
    spec = HypersurfaceSpec(surface, [[0.0, 2.0 * np.pi]], 1.0, 16, True)
    return simulate_shift(man, force, spec, T_END, H)


def _closed_form(chart, c, times, u):
    """x, v, tau and rho of the outward circles at the record's nodes."""
    t, u = times[:, None], u[None, :, 0]
    s = (np.log1p(c * t) / c if c else t) + 0.0 * u
    rate = 1.0 / (1.0 + c * t) + 0.0 * u
    zero = 0.0 * s
    if chart == "cartesian":
        e = np.stack([np.cos(u) + zero, np.sin(u) + zero], axis=-1)
        de = np.stack([-e[..., 1], e[..., 0]], axis=-1)
        return dict(x=(R + s)[..., None] * e, v=rate[..., None] * e,
                    tau=((R + s)[..., None] * de)[:, :, None],
                    rho=(rate[..., None] * de)[:, :, None])
    return dict(x=np.stack([np.log(R + s), u + zero], axis=-1),
                v=np.stack([rate / (R + s), zero], axis=-1),
                tau=np.stack([zero, zero + 1.0], axis=-1)[:, :, None],
                rho=np.stack([zero, rate / (R + s)], axis=-1)[:, :, None])


@pytest.mark.parametrize("force", DRAG)
@pytest.mark.parametrize("chart", CHARTS)
def test_outward_circle_shift_is_the_concentric_circles(chart, force):
    c = DRAG[force]
    record = _shift(chart, c)
    batch = record.batch
    want = _closed_form(chart, c, record.times, record.u)
    flow_tol, variation_tol = TOL[chart]
    for name, tol in (("x", flow_tol), ("v", flow_tol),
                      ("tau", variation_tol), ("rho", variation_tol)):
        got = getattr(batch, name)
        assert got.shape == want[name].shape
        assert np.abs(got - want[name]).max() <= tol, name
    # the fronts are orthogonal to the normal lines: psi within the
    # launch's error, and defined at every node (|tau| >= R)
    assert np.isfinite(record.psi).all()
    assert np.abs(record.psi).max() <= variation_tol


"""Blow-up fronts on the round S^2 against their closed form.

On the unit sphere every trajectory of the drag F = -c|v|v is a great
circle traversed at arc length s(t) = ln(1 + c nu t)/c (s = nu t for the
free field).  Through the embedding E: S^2 -> R^3 the front blown up
from p0 along the g-unit direction n(u) is x = cos s P + sin s e(u),
with P = E(p0) and e(u) = dE(p0) n(u).  Its variation field is
tau = sin s k and its covariant rate rho = s' cos s k, where k =
dE(p0) K(u) is the embedded tangent of the direction sphere: k is
orthogonal to P and e, so it stays tangent along the whole circle.  None
of this uses the code's index conventions (do Carmo, *Riemannian
Geometry*, ch. 5, Jacobi fields on spaces of constant curvature).

RK4's error falls 16-fold per halving of the step on this curved chart;
the tests ask for at least 12-fold.  A flipped curvature sign leaves x
and v alone but moves tau and rho by far more than that error, which the
front's psi alone does not show on this case.
"""

import functools

import numpy as np
import pytest

from frontshift.blowup import sphere_grid
from frontshift.dynamics import integrate_batch
from frontshift.geometry import ForceField, Manifold

SPHERE = Manifold(2, [["1", "0"], ["0", "sin(x1)^2"]])
SPEED = "sqrt(v1^2 + sin(x1)^2*v2^2)"
# name: (drag coefficient c, force)
FORCES = {
    "drag": (0.3, ForceField(SPHERE, [f"-0.3*{SPEED}*v1",
                                      f"-0.3*{SPEED}*v2"])),
    "free": (0.0, ForceField(SPHERE, ["0", "0"])),
}
P0, NU, RESOLUTION, T_END = (1.1, 0.4), 1.0, 16, 1.0
STEPS = (0.02, 0.01, 0.005)


def embed(x: np.ndarray) -> np.ndarray:
    """E(x1, x2) = (sin x1 cos x2, sin x1 sin x2, cos x1), over leading
    axes."""
    return np.stack([np.sin(x[..., 0]) * np.cos(x[..., 1]),
                     np.sin(x[..., 0]) * np.sin(x[..., 1]),
                     np.cos(x[..., 0])], axis=-1)


def d_embed(x: np.ndarray) -> np.ndarray:
    """dE[..., a, k] = d E_a / d x^k."""
    s1, c1 = np.sin(x[..., 0]), np.cos(x[..., 0])
    s2, c2 = np.sin(x[..., 1]), np.cos(x[..., 1])
    return np.stack([np.stack([c1 * c2, -s1 * s2], axis=-1),
                     np.stack([c1 * s2, s1 * c2], axis=-1),
                     np.stack([-s1, np.zeros_like(s1)], axis=-1)], axis=-2)


@functools.cache
def errors(case: str, h: float, riemann_sign: float = 1.0) -> dict:
    """Largest distance in R^3, over every node and direction, of E(x),
    dE v, dE tau and dE rho from their closed forms."""
    c, force = FORCES[case]
    u, dirs, tangents = sphere_grid(SPHERE, P0, RESOLUTION)
    nb = len(u)
    batch = integrate_batch(SPHERE, force, np.tile(P0, (nb, 1)), NU * dirs,
                            np.zeros((nb, 1, 2)), NU * tangents, T_END, h,
                            riemann_sign=riemann_sign)
    t = batch.times[:, None, None]
    s = np.log1p(c * NU * t) / c if c else NU * t
    rate = NU / (1.0 + c * NU * t)
    p0 = np.asarray(P0)
    big_p, frame0 = embed(p0), d_embed(p0)
    e = dirs @ frame0.T
    k = tangents[:, 0] @ frame0.T
    want = {"x": np.cos(s) * big_p + np.sin(s) * e,
            "v": rate * (np.cos(s) * e - np.sin(s) * big_p),
            "tau": np.sin(s) * k,
            "rho": rate * np.cos(s) * k}
    frame = d_embed(batch.x)
    got = {"x": embed(batch.x),
           "v": (frame @ batch.v[..., None])[..., 0],
           "tau": (frame @ batch.tau[:, :, 0, :, None])[..., 0],
           "rho": (frame @ batch.rho[:, :, 0, :, None])[..., 0]}
    return {name: float(np.abs(got[name] - want[name]).max())
            for name in want}


@pytest.mark.parametrize("case", sorted(FORCES))
def test_front_converges_to_the_great_circles_at_rk4_order(case):
    coarse = errors(case, STEPS[0])
    assert max(coarse.values()) < 1e-5
    for big, small in zip(STEPS, STEPS[1:]):
        for name, err in errors(case, small).items():
            assert errors(case, big)[name] >= 12.0 * err, (name, big, small)


@pytest.mark.parametrize("case", sorted(FORCES))
def test_flipped_curvature_sign_misses_the_variations(case):
    right = errors(case, STEPS[1])
    flipped = errors(case, STEPS[1], riemann_sign=-1.0)
    # the flow does not read the curvature; its variations do
    assert flipped["x"] == right["x"] and flipped["v"] == right["v"]
    assert flipped["tau"] >= 1e-3 and flipped["rho"] >= 1e-3

"""Blow-up fronts on the round S^n, n = 2, 3, 4, against their closed form.

On the unit sphere every trajectory of the drag F = -c|v|v is a great
circle traversed at arc length s(t) = ln(1 + c nu t)/c (s = nu t for the
free field).  Through the embedding E: S^n -> R^(n+1), E(x) = (cos x1,
sin x1 cos x2, ..., sin x1 ... sin x(n-1) cos xn, sin x1 ... sin xn), the
front blown up from p0 along the g-unit direction n(u) is x = cos s P +
sin s e(u), with P = E(p0) and e(u) = dE(p0) n(u).  Its variation fields
are tau_a = sin s k_a and their covariant rates rho_a = s' cos s k_a,
where k_a = dE(p0) K_a(u) is the embedded a-th tangent of the direction
sphere: k_a is orthogonal to the plane of P and e, so it stays constant
in R^(n+1) and tangent along the whole circle.  None of this uses the
code's index conventions (do Carmo, *Riemannian Geometry*, ch. 5, Jacobi
fields on spaces of constant curvature); dE comes by complex step.

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
from test_rhs_reference import drag, sphere

# n: (p0, resolution); on S^3 and S^4 the polar coordinates stay inside
# [0.26, 2.53]
SPHERES = {2: ((1.1, 0.4), 16),
           3: ((1.3, 1.2, 0.3), 8),
           4: ((1.3, 1.2, 1.4, 0.3), 8)}
DRAG = {"drag": 0.3, "free": 0.0}
CASES = [(case, n) for n in SPHERES for case in DRAG]
# the S^2 cases are named by their force alone
IDS = [case if n == 2 else f"{case}-S{n}" for case, n in CASES]
NU, T_END = 1.0, 1.0
STEPS = (0.02, 0.01, 0.005)
COMPLEX_STEP = 1e-30


@functools.cache
def chart(case: str, n: int):
    c, man = DRAG[case], Manifold(n, sphere(n))
    force = drag(sphere(n), c) if c else ["0"] * n
    return c, man, ForceField(man, force)


def embed(x: np.ndarray) -> np.ndarray:
    """E(x) over leading axes, real or complex."""
    sines = np.cumprod(np.sin(x), axis=-1)
    return np.concatenate([np.cos(x[..., :1]),
                           sines[..., :-1] * np.cos(x[..., 1:]),
                           sines[..., -1:]], axis=-1)


def d_embed(x: np.ndarray) -> np.ndarray:
    """dE[..., a, k] = d E_a / d x^k, by complex step."""
    n = x.shape[-1]
    return np.stack([embed(x + 1j * COMPLEX_STEP * np.eye(n)[k]).imag
                     / COMPLEX_STEP for k in range(n)], axis=-1)


@functools.cache
def errors(case: str, n: int, h: float, riemann_sign: float = 1.0) -> dict:
    """Largest distance in R^(n+1), over every node, direction and
    variation, of E(x), dE v, dE tau and dE rho from their closed forms."""
    c, man, force = chart(case, n)
    p0, resolution = SPHERES[n]
    u, dirs, tangents = sphere_grid(man, p0, resolution)
    nb = len(u)
    batch = integrate_batch(man, force, np.tile(p0, (nb, 1)), NU * dirs,
                            np.zeros((nb, n - 1, n)), NU * tangents, T_END,
                            h, riemann_sign=riemann_sign)
    t = batch.times[:, None, None]
    s = np.log1p(c * NU * t) / c if c else NU * t
    rate = NU / (1.0 + c * NU * t)
    p0 = np.asarray(p0)
    big_p, frame0 = embed(p0), d_embed(p0)
    e = dirs @ frame0.T
    k = tangents @ frame0.T
    want = {"x": np.cos(s) * big_p + np.sin(s) * e,
            "v": rate * (np.cos(s) * e - np.sin(s) * big_p),
            "tau": np.sin(s)[..., None] * k,
            "rho": (rate * np.cos(s))[..., None] * k}
    frame = d_embed(batch.x)
    got = {"x": embed(batch.x),
           "v": (frame @ batch.v[..., None])[..., 0],
           "tau": batch.tau @ np.swapaxes(frame, -1, -2),
           "rho": batch.rho @ np.swapaxes(frame, -1, -2)}
    return {name: float(np.abs(got[name] - want[name]).max())
            for name in want}


@pytest.mark.parametrize("case, n", CASES, ids=IDS)
def test_front_converges_to_the_great_circles_at_rk4_order(case, n):
    coarse = errors(case, n, STEPS[0])
    assert max(coarse.values()) < 1e-5
    for big, small in zip(STEPS, STEPS[1:]):
        for name, err in errors(case, n, small).items():
            assert errors(case, n, big)[name] >= 12.0 * err, (name, big,
                                                               small)


@pytest.mark.parametrize("case, n", CASES, ids=IDS)
def test_flipped_curvature_sign_misses_the_variations(case, n):
    right = errors(case, n, STEPS[1])
    flipped = errors(case, n, STEPS[1], riemann_sign=-1.0)
    # the flow does not read the curvature; its variations do
    assert flipped["x"] == right["x"] and flipped["v"] == right["v"]
    assert flipped["tau"] >= 1e-3 and flipped["rho"] >= 1e-3

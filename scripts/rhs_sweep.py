"""Time each live piece of the variation right-hand side, per call.

    python3 scripts/rhs_sweep.py

Imports the package of this checkout (its ``src/``) and needs numpy
only.  On the S^2 and S^3 drag charts and the non-diagonal ``skew3``
chart it times, at each batch size B, the pieces one RK4 stage of the
variation equation (n - 1 variations per row) evaluates: the generated
jet (``ForceField.jet``), ``inverse``, ``spray``, the Jacobi operator
``Manifold.riemann(vs=)``, ``extended_gradients`` and the whole
``dynamics._rhs``, at B = 1, 64, 144 and 1024.  Each figure is the
least over 7 repeats of the mean of 20 back-to-back calls, in
microseconds per call.  The inputs of each piece are formed once,
outside the timing, and every callable is compiled before it is timed.
Run it with OPENBLAS_NUM_THREADS=1 so that the batched products use one
thread.  The tests take their reference charts from ``CHARTS``.
"""

from __future__ import annotations

import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from frontshift.dynamics import _rhs  # noqa: E402
from frontshift.geometry import (ForceField, Manifold,  # noqa: E402
                                 extended_gradients, inverse, spray)


def sphere(n: int) -> list:
    """The round metric of S^n in its polar chart."""
    metric = [["0"] * n for _ in range(n)]
    metric[0][0] = "1"
    for k in range(1, n):
        metric[k][k] = "*".join(f"sin(x{j + 1})^2" for j in range(k))
    return metric


def drag(metric: list, c: float = 0.3) -> list:
    """Quadratic drag -c |v|_g v on a diagonal metric."""
    n = len(metric)
    speed = " + ".join(f"{metric[k][k]}*v{k + 1}^2" for k in range(n))
    return [f"-{c}*sqrt({speed})*v{k + 1}" for k in range(n)]


# Off-diagonal, position-dependent, positive definite on the box below;
# its force mixes positions and velocities in every component.
SKEW_METRIC = [
    ["2 + x2^2", "0.3*x1*x3", "0.2*sin(x2)"],
    ["0.3*x1*x3", "2 + cos(x1)", "0.1*x2*x3"],
    ["0.2*sin(x2)", "0.1*x2*x3", "2.5 + x1^2*x3"],
]
SKEW_FORCE = ["-0.2*v1*sqrt(v1^2 + v2^2 + v3^2) + 0.1*x2*v3",
              "sin(x1)*v2 - 0.1*x3*v1^2",
              "-x3 + 0.05*v1*v2*cos(x2)"]

# name: (metric, force, position box)
CHARTS = {
    "S2": (sphere(2), drag(sphere(2)), [(0.6, 2.5), (0.0, 6.0)]),
    "S3": (sphere(3), drag(sphere(3)),
           [(0.6, 2.5), (0.6, 2.5), (0.0, 6.0)]),
    "skew3": (SKEW_METRIC, SKEW_FORCE, [(-0.8, 0.8)] * 3),
}
PIECES = ("jet", "inverse", "spray", "riemann", "gradients", "rhs")
BATCHES = (1, 64, 144, 1024)
REPEATS = 7
CALLS = 20


def pieces(man: Manifold, force: ForceField, box, nb: int,
           seed: int = 0) -> dict:
    """Zero-argument callables, one per piece, at nb random rows."""
    n = man.dimension
    rng = np.random.default_rng(seed)
    lo, hi = np.array(box, dtype=float).T
    x = lo + (hi - lo) * rng.random((nb, n))
    v = rng.normal(size=(nb, n))
    tau, rho = rng.normal(size=(2, nb, n - 1, n))
    g, koszul, f, dfdx, dfdv, ddg_vv = force.jet(x, v)
    ginv = inverse(g)
    along = spray(ginv, koszul, v, f)
    return {
        "jet": lambda: force.jet(x, v),
        "inverse": lambda: inverse(g),
        "spray": lambda: spray(ginv, koszul, v, f),
        "riemann": lambda: man.riemann(x, ginv=ginv, vs=v, along=along,
                                       ddg_vv=ddg_vv),
        "gradients": lambda: extended_gradients(
            man, force, x, v, jac=(dfdx, dfdv), along=along),
        "rhs": lambda: _rhs(man, force, x, v, tau, rho, 1.0),
    }


def sweep(batches, repeats: int, calls: int):
    """Rows (chart, B, {piece: microseconds per call})."""
    for name, (metric, force_src, box) in CHARTS.items():
        man = Manifold(len(metric), metric)
        force = ForceField(man, force_src)
        for nb in batches:
            times = {}
            for piece, fn in pieces(man, force, box, nb).items():
                fn()
                best = min(timeit.repeat(fn, number=calls, repeat=repeats))
                times[piece] = 1e6 * best / calls
            yield name, nb, times


def main() -> int:
    print(f"{'chart':<6} {'B':>5} "
          + " ".join(f"{p:>10}" for p in PIECES) + "   (us per call)")
    for name, nb, times in sweep(BATCHES, REPEATS, CALLS):
        print(f"{name:<6} {nb:>5} "
              + " ".join(f"{times[p]:>10.1f}" for p in PIECES), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

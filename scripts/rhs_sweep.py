"""Time each live piece of the variation right-hand side and of a
residual block of ``check``, per call.

    python3 scripts/rhs_sweep.py

Imports the package of this checkout (its ``src/``) and needs numpy
only.  It prints two tables, both on the S^2 and S^3 drag charts and
the non-diagonal ``skew3`` chart.

The first times, at each batch size B, the pieces one RK4 stage of the
variation equation (n - 1 variations per row) evaluates: the generated
jet (``ForceField.jet``, g^-1 included), ``spray``, the Jacobi operator
``Manifold.riemann(vs=)``, ``extended_gradients`` and the whole
``dynamics._rhs``, at B = 1, 5 (the batch of ``rank``), 64, 144 and
1024.  These run batch-first.

The second times the pieces of one residual block of
``normality.classify`` at its block size, B = 2048 sampled points: the
batch-last ``force_tensors``, the velocity frame (``Manifold.frame``),
the weak and the additional families, the residual norms (with the
n = 2 strong norms) and the whole block.

Each figure is the least over 7 repeats of the mean of 20 back-to-back
calls, in microseconds per call.  The inputs of each piece are formed
once, outside the timing, and every callable is compiled before it is
timed.  Run it with OPENBLAS_NUM_THREADS=1 so that the batched products
use one thread.  The tests take their reference charts from ``CHARTS``.
"""

from __future__ import annotations

import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from frontshift import normality  # noqa: E402
from frontshift.dynamics import _rhs  # noqa: E402
from frontshift.geometry import (ForceField, Manifold,  # noqa: E402
                                 extended_gradients, force_tensors, spray)


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
PIECES = ("jet", "spray", "riemann", "gradients", "rhs")
BATCHES = (1, 5, 64, 144, 1024)
BLOCK_PIECES = ("tensors", "frame", "weak", "additional", "norms", "block")
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
    _, ginv, koszul, f, dfdx, dfdv, ddg_vv = force.jet(x, v)
    along = spray(ginv, koszul, v, f)
    return {
        "jet": lambda: force.jet(x, v),
        "spray": lambda: spray(ginv, koszul, v, f),
        "riemann": lambda: man.riemann(x, ginv=ginv, vs=v, along=along,
                                       ddg_vv=ddg_vv),
        "gradients": lambda: extended_gradients(
            man, force, x, v, jac=(dfdx, dfdv), along=along),
        "rhs": lambda: _rhs(man, force, x, v, tau, rho, 1.0),
    }


def block_pieces(man: Manifold, force: ForceField, box, nb: int,
                 seed: int = 0) -> dict:
    """Zero-argument callables, one per piece of a residual block, at nb
    points of ``classify``'s sampler, laid out batch-last as it lays
    them out."""
    xs, vs = normality.sample_tangent_points(man, box, 0.5, 2.0, nb, seed)
    x, v = xs.T.copy(), vs.T.copy()
    b = normality.bundle(man, force, x, v)
    weak = normality.weak_batch(b)
    additional = normality.additional_batch(b)
    return {
        "tensors": lambda: force_tensors(force, x, v),
        "frame": lambda: man.frame(x, v, g=b['g']),
        "weak": lambda: normality.weak_batch(b),
        "additional": lambda: normality.additional_batch(b),
        "norms": lambda: normality._residual_norms(b, weak, additional),
        "block": lambda: normality._block_norms(man, force, x, v),
    }


def _timed(table: dict, repeats: int, calls: int) -> dict:
    """{piece: microseconds per call} of a table of callables."""
    times = {}
    for piece, fn in table.items():
        fn()
        best = min(timeit.repeat(fn, number=calls, repeat=repeats))
        times[piece] = 1e6 * best / calls
    return times


def sweep(batches, repeats: int, calls: int):
    """Rows (chart, B, {piece: microseconds per call}) of the stage."""
    for name, (metric, force_src, box) in CHARTS.items():
        man = Manifold(len(metric), metric)
        force = ForceField(man, force_src)
        for nb in batches:
            yield name, nb, _timed(pieces(man, force, box, nb), repeats,
                                   calls)


def block_sweep(nb: int, repeats: int, calls: int):
    """Rows (chart, B, {piece: microseconds per call}) of a residual
    block of nb samples."""
    for name, (metric, force_src, box) in CHARTS.items():
        man = Manifold(len(metric), metric)
        force = ForceField(man, force_src)
        yield name, nb, _timed(block_pieces(man, force, box, nb), repeats,
                               calls)


def _print_table(names, rows) -> None:
    print(f"{'chart':<6} {'B':>5} "
          + " ".join(f"{p:>10}" for p in names) + "   (us per call)")
    for name, nb, times in rows:
        print(f"{name:<6} {nb:>5} "
              + " ".join(f"{times[p]:>10.1f}" for p in names), flush=True)


def main() -> int:
    print("RK4 stage of the variation equation (batch-first)")
    _print_table(PIECES, sweep(BATCHES, REPEATS, CALLS))
    print()
    print("residual block of check (batch-last)")
    _print_table(BLOCK_PIECES, block_sweep(normality._SAMPLE_BLOCK, REPEATS,
                                           CALLS))
    return 0


if __name__ == "__main__":
    sys.exit(main())

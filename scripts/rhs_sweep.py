"""Time each live piece of the RK4 integration of the variation
equation and of a residual block of ``check``, per call.

    python3 scripts/rhs_sweep.py

Imports the package of this checkout (its ``src/``) and needs numpy
only.  It prints three tables, each on the S^2 and S^3 drag charts and
the non-diagonal ``skew3`` chart.

The first times, at each batch size B, what one RK4 step of
``integrate_batch`` runs, with n - 1 variations per row: the flow's
generated call (``ForceField.flow_jet``, the acceleration, which is all
a stage of the flow evaluates, on the entry-first rows of the stage
points, with the integration's registers), one step of the flow (four
stages), a block of the flow without variations (``BLOCK_POINTS //
(4 B)`` steps, at least one) and
one step of the variations (four stages of one batched product each,
the rows [tau_j, rho_j] times the stage points' rate matrices), at B =
1, 5 (the batch of ``rank``), 64, 144 and 1024.

The second times the coefficient block at its size, ``BLOCK_POINTS``
stage points, batch-last: the variation call
(``ForceField.variation_jet``, which fills one entry-first (K, P)
record, a contiguous row per entry, with the integration's registers),
the Jacobi operator
``Manifold.riemann(record=)`` and ``extended_gradients(record=)``
(ordered batch-last sums, ``matvec_last`` and ``matmul_last``, over the
record's views), and the whole coefficient step of a block, which adds
the stores of three blocks of the batch-first rate matrices the
variations' stages read, through one transposed view.

The third times the pieces of one residual block of
``normality.classify`` at its block size, B = 2048 sampled points: the
batch-last ``force_tensors`` (the first-order call, into the output
and registers ``classify`` owns, and its gradients through
``extended_gradients``), the velocity frame (``Manifold.frame``),
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

from frontshift import dynamics, normality  # noqa: E402
from frontshift.geometry import (ForceField, Manifold,  # noqa: E402
                                 extended_gradients, force_tensors)


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
PIECES = ("flow_jet", "flow_step", "flow_block", "variation_step")
BATCHES = (1, 5, 64, 144, 1024)
COEFFICIENT_PIECES = ("variation_jet", "riemann", "gradients",
                      "coefficients")
BLOCK_PIECES = ("tensors", "frame", "weak", "additional", "norms", "block")
REPEATS = 7
CALLS = 20
STEP = 1e-3


def _stages(man: Manifold, force: ForceField, box, nb: int, seed: int,
            steps: int = 1, nvar: int | None = None):
    """The integrator's stages over the given steps of nb random rows,
    with nvar variations (n - 1 by default), the first step run once so
    that its stage points, records and coefficients are in place; and the
    history they write into."""
    n = man.dimension
    nvar = n - 1 if nvar is None else nvar
    rng = np.random.default_rng(seed)
    lo, hi = np.array(box, dtype=float).T
    history = np.empty((steps + 1, nb, 2 * n + 2 * nvar * n))
    history[0, :, :n] = lo + (hi - lo) * rng.random((nb, n))
    history[0, :, n:] = rng.normal(size=(nb, n + 2 * nvar * n))
    stages = dynamics._Stages(man, force, history[0], nvar,
                              4 * nb * steps, 1.0)
    stages.flow(history, 0, 1, STEP)
    return stages, history


def pieces(man: Manifold, force: ForceField, box, nb: int,
           seed: int = 0) -> dict:
    """Zero-argument callables, one per piece of a step, at nb random
    rows."""
    n = man.dimension
    stages, history = _stages(man, force, box, nb, seed)
    xs, vs = stages.points[:n, :nb], stages.points[n:, :nb]
    rates = stages.k[0, n:]
    block = max(1, dynamics.BLOCK_POINTS // (4 * nb))
    flow_only, flow_history = _stages(man, force, box, nb, seed, block, 0)
    vy0 = stages.vy.copy()

    # each step and block from the same start, so that no run drifts off
    # the box or overflows
    def flow_step():
        stages.y[...] = history[0, :, :2 * n].T
        stages.flow(history, 0, 1, STEP)

    def flow_block():
        flow_only.y[...] = flow_history[0].T
        flow_only.flow(flow_history, 0, block, STEP)

    def variation_step():
        stages.vy[...] = vy0
        stages.variations(history, 0, 0, STEP)
    return {
        "flow_jet": lambda: force.flow_jet(xs, vs, out=rates,
                                           registers=stages.flow_registers),
        "flow_step": flow_step,
        "flow_block": flow_block,
        "variation_step": variation_step,
    }


def coefficient_pieces(man: Manifold, force: ForceField, box,
                       seed: int = 0) -> dict:
    """Zero-argument callables, one per piece of the coefficient step, at
    ``BLOCK_POINTS`` stage points of random rows."""
    n = man.dimension
    size = dynamics.BLOCK_POINTS
    stages, _ = _stages(man, force, box, size // 4, seed)
    xs, vs = stages.points[:n], stages.points[n:]
    jet = force.variation_jet(xs, vs, out=stages.jets,
                              registers=stages.registers)
    return {
        "variation_jet": lambda: force.variation_jet(
            xs, vs, out=stages.jets, registers=stages.registers),
        "riemann": lambda: man.riemann(xs.T, record=jet),
        "gradients": lambda: extended_gradients(man, force, xs.T, vs.T,
                                                record=jet),
        "coefficients": lambda: stages.coefficients(0, size),
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
    # the output and registers classify owns for its blocks
    out = np.empty((force.first_order_record.size, nb))
    jet = dict(out=out, registers=force.registers("first_order", out))
    return {
        "tensors": lambda: force_tensors(force, x, v, **jet),
        "frame": lambda: man.frame(v, b['g']),
        "weak": lambda: normality.weak_batch(b),
        "additional": lambda: normality.additional_batch(b),
        "norms": lambda: normality._residual_norms(b, weak, additional),
        "block": lambda: normality._block_norms(man, force, x, v, **jet),
    }


def _timed(table: dict, repeats: int, calls: int) -> dict:
    """{piece: microseconds per call} of a table of callables."""
    times = {}
    for piece, fn in table.items():
        fn()
        best = min(timeit.repeat(fn, number=calls, repeat=repeats))
        times[piece] = 1e6 * best / calls
    return times


def _charts():
    for name, (metric, force_src, box) in CHARTS.items():
        man = Manifold(len(metric), metric)
        yield name, man, ForceField(man, force_src), box


def sweep(batches, repeats: int, calls: int):
    """Rows (chart, B, {piece: microseconds per call}) of the steps."""
    for name, man, force, box in _charts():
        for nb in batches:
            yield name, nb, _timed(pieces(man, force, box, nb), repeats,
                                   calls)


def coefficient_sweep(repeats: int, calls: int):
    """Rows (chart, points, {piece: microseconds per call}) of the
    coefficient step."""
    for name, man, force, box in _charts():
        yield name, dynamics.BLOCK_POINTS, _timed(
            coefficient_pieces(man, force, box), repeats, calls)


def block_sweep(nb: int, repeats: int, calls: int):
    """Rows (chart, B, {piece: microseconds per call}) of a residual
    block of nb samples."""
    for name, man, force, box in _charts():
        yield name, nb, _timed(block_pieces(man, force, box, nb), repeats,
                               calls)


def _print_table(names, rows) -> None:
    widths = [max(10, len(p)) for p in names]
    print(f"{'chart':<6} {'B':>5} "
          + " ".join(f"{p:>{w}}" for p, w in zip(names, widths))
          + "   (us per call)")
    for name, nb, times in rows:
        print(f"{name:<6} {nb:>5} "
              + " ".join(f"{times[p]:>{w}.1f}"
                         for p, w in zip(names, widths)), flush=True)


def main() -> int:
    print("RK4 step of the variation equation (flow entry-first, one "
          "product per variation stage)")
    _print_table(PIECES, sweep(BATCHES, REPEATS, CALLS))
    print()
    print("rate matrices of a block of stage points (batch-last, stored "
          "batch-first)")
    _print_table(COEFFICIENT_PIECES, coefficient_sweep(REPEATS, CALLS))
    print()
    print("residual block of check (batch-last)")
    _print_table(BLOCK_PIECES, block_sweep(normality._SAMPLE_BLOCK, REPEATS,
                                           CALLS))
    return 0


if __name__ == "__main__":
    sys.exit(main())

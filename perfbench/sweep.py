"""Kernel sweep: cost per row of the variation right-hand side's pieces.

For the S^2 and S^3 drag systems of the workloads, at seed-drawn points,
times christoffel, christoffel_partials, riemann, extended_gradients and
one RK4 step (a short integrate_batch divided by its step count) at batch
sizes 1, 64 and 1024.  Each cell is the median call time over enough
calls to fill MIN_CELL_S, divided by the batch size.

    python3 perfbench/sweep.py --seed N --out SWEEP.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

import scenarios

FNS = ("christoffel", "christoffel_partials", "riemann",
       "extended_gradients", "rk4_step")
DIMS = (2, 3)
BATCHES = (1, 64, 1024)
RK4_STEPS = 4
MIN_CALLS, MIN_CELL_S = 3, 0.1


def metric_names() -> list:
    return [f"sweep.{fn}.n{n}.b{b}.us_per_row"
            for fn in FNS for n in DIMS for b in BATCHES]


def _call_time(call) -> float:
    call()                                   # warm caches and allocator
    times = []
    while len(times) < MIN_CALLS or sum(times) < MIN_CELL_S:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# frontshift is imported inside the functions: run.py imports this module
# for metric_names only, without the package on its path.

def _system(n: int, rng):
    from frontshift.geometry import ForceField, Manifold
    metric = scenarios.sphere_metric(n)
    man = Manifold(n, metric)
    c = round(float(rng.uniform(0.2, 0.5)), 6)
    return man, ForceField(man, scenarios.drag_force(metric, c))


def _points(man, rng, b: int):
    n = man.dimension
    xs = np.empty((b, n))
    xs[:, :n - 1] = rng.uniform(1.3, 1.85, size=(b, n - 1))
    xs[:, n - 1] = rng.uniform(0.0, 2.0 * np.pi, size=b)
    d = rng.normal(size=(b, n))
    g = man.metric(xs)
    vs = d / np.sqrt(np.einsum('bij,bi,bj->b', g, d, d))[:, None]
    rho0 = rng.normal(size=(b, n - 1, n))
    return xs, vs, np.zeros_like(rho0), rho0


def run(seed: int) -> dict:
    from frontshift.geometry import extended_gradients
    from frontshift.dynamics import integrate_batch
    rng = np.random.default_rng([seed, 99])
    out = {}
    for n in DIMS:
        man, force = _system(n, rng)
        for b in BATCHES:
            xs, vs, tau0, rho0 = _points(man, rng, b)
            h = scenarios.BLOWUP3D_STEP
            calls = {
                "christoffel": lambda: man.christoffel(xs),
                "christoffel_partials": lambda: man.christoffel_partials(xs),
                "riemann": lambda: man.riemann(xs),
                "extended_gradients":
                    lambda: extended_gradients(man, force, xs, vs),
                "rk4_step": lambda: integrate_batch(
                    man, force, xs, vs, tau0, rho0, RK4_STEPS * h, h),
            }
            for fn in FNS:
                per_call = _call_time(calls[fn])
                steps = RK4_STEPS if fn == "rk4_step" else 1
                out[f"sweep.{fn}.n{n}.b{b}.us_per_row"] = (
                    per_call / steps / b * 1e6)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    Path(args.out).write_text(json.dumps(run(args.seed)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Seeded scenario files and the expectations the correctness gate checks.

A workload is a fixed list of CLI operations.  The seed draws drag and
spring coefficients, launch points, launch speeds, sampler boxes and the
sampler seed; it never changes the list of operations or the amount of
work in one (directions, steps, samples, trajectories).

All charts with drag are curved (the round S^2 and S^3 charts), so the
curvature term of the variation equation is nonzero and a broken
curvature convention shows in the twin-trajectory oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

# Run size per workload; the seed never changes these.
BLOWUP3D_RESOLUTION = 12       # 12 x 12 = 144 directions on S^2 of T_pS^3
BLOWUP3D_STEP, BLOWUP3D_T_END, BLOWUP3D_EVERY = 5e-3, 0.5, 10
FRONTS2D_RESOLUTION = 128      # 128 directions on S^1 of T_pS^2
FRONTS2D_STEP, FRONTS2D_T_END, FRONTS2D_EVERY = 5e-3, 1.0, 1
CHECK_SAMPLES = 20_000
RANK_STEP, RANK_T_END, RANK_WINDOW = 5e-3, 0.5, (0.1, 0.5)
RANK_TRAJECTORIES, RANK_VARIATIONS = 5, 5
ORACLE_DIRECTIONS = 2          # twin-trajectory oracle launches per front
ORACLE_DU = 1e-3
V_MIN, V_MAX = 0.5, 2.0        # sampler g-speeds
RANK_MARGIN = 0.3              # rank trajectories' least distance to a pole

# Thresholds of the paper's dichotomy, as in the acceptance criteria.
PSI_NORMAL_MAX = 1e-5
RANK_WEAK_MAX = 1e-6
RANK_NEITHER_MIN = 1e-3
ORACLE_MAX = 1e-5

WORKLOADS = ("blowup3d", "fronts2d", "verdicts")


@dataclass
class Op:
    """One CLI call and what its outputs must show."""

    name: str                  # also its output directory's name
    command: str               # blowup, check or rank
    config: str = ""           # scenario file, set when it is written
    dimension: int = 2
    # blowup: front size and the oracle's launch points and velocities
    directions: int = 0
    output_nodes: int = 0
    oracle: list = field(default_factory=list)   # [[x0, v0], ...]
    # check / rank
    verdict: str = ""
    rank_class: str = ""       # "weak" or "neither"


def sphere_metric(n: int) -> list:
    """Round S^n chart diag(1, sin^2 x1, sin^2 x1 sin^2 x2, ...)."""
    metric = [["0"] * n for _ in range(n)]
    metric[0][0] = "1"
    for k in range(1, n):
        metric[k][k] = "*".join(f"sin(x{j + 1})^2" for j in range(k))
    return metric


def drag_force(metric: list, c: float) -> list:
    """F = -c |v|_g v, the drag that keeps blow-up fronts normal."""
    n = len(metric)
    terms = [f"v{k + 1}^2" if metric[k][k] == "1"
             else f"{metric[k][k]}*v{k + 1}^2" for k in range(n)]
    speed = f"sqrt({' + '.join(terms)})"
    return [f"-{c!r}*{speed}*v{k + 1}" for k in range(n)]


def _euclid_metric(n: int) -> list:
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _coef(rng, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 6)


def _sphere_point(rng, n: int) -> list:
    # polar angles in [1.3, 1.85]: under drag (c >= 0.2) a launch at speed
    # <= 1.2 travels at most ln(1.24)/0.2 < 1.1 by t = 1, so trajectories
    # stay more than 0.2 away from the chart's poles at 0 and pi
    pts = [_coef(rng, 1.3, 1.85) for _ in range(n - 1)]
    return pts + [_coef(rng, 0.0, 2.0 * math.pi)]


def _sphere_box(rng, n: int) -> list:
    box = []
    for _ in range(n - 1):
        lo = _coef(rng, 0.6, 0.9)
        box.append([lo, round(lo + _coef(rng, 1.2, 1.6), 6)])
    return box + [[0.0, 6.0]]


def _rank_box(rng, n: int, c: float) -> list:
    """Sampler box whose drag trajectories keep off the chart's poles.

    The round chart is singular where sin x1 ... sin x_{n-1} = 0 (the
    poles of S^2, a great circle of S^3), and a point's distance d to that
    set has sin d equal to the product.  Near it RK4 at RANK_STEP loses
    the accuracy the rank gate needs: sigma3/sigma1 of a weakly normal
    field reached 1.4e-6 on an S^3 trajectory that passed within 0.15 of
    it; in a scan of 1600 trajectories, every one that kept 0.15 away
    stayed below 1e-7.  Under drag a launch at g-speed v travels at most
    ln(1 + c v t)/c by time t, so every launch in the box starts that
    far plus RANK_MARGIN from the singular set.
    """
    travel = math.log1p(c * V_MAX * RANK_T_END) / c
    lo = math.asin(math.sin(travel + RANK_MARGIN) ** (1.0 / (n - 1)))
    box = [[round(lo + _coef(rng, 0.0, 0.05), 6),
            round(math.pi - lo - _coef(rng, 0.0, 0.05), 6)]
           for _ in range(n - 1)]
    return box + [[0.0, 6.0]]


def _scenario(n, metric, force, *, step, t_end, every=10, x_box,
              count=1000, seed=0, blowup=None) -> dict:
    doc = {
        "dimension": n,
        "metric": metric,
        "force": force,
        "integrator": {"step": step, "t_end": t_end, "output_every": every},
        "sampler": {"x_box": x_box, "v_min": V_MIN, "v_max": V_MAX,
                    "count": count, "seed": seed},
        "rank": {"variations": RANK_VARIATIONS,
                 "window": list(RANK_WINDOW),
                 "trajectories": RANK_TRAJECTORIES},
        "tolerance": 1e-8,
    }
    if blowup is not None:
        doc["blowup"] = blowup
    return doc


def _oracle_launches(rng, metric_fn, p0: list, nu: float,
                     count: int) -> list:
    """count g(p0)-unit launch velocities of speed nu, seed-drawn."""
    p = np.asarray(p0, dtype=float)
    g = metric_fn(p)
    out = []
    for _ in range(count):
        d = rng.normal(size=p.shape[0])
        v = nu * d / math.sqrt(float(d @ g @ d))
        out.append([list(map(float, p)), list(map(float, v))])
    return out


def _sphere_metric_at(p: np.ndarray) -> np.ndarray:
    diag = [1.0]
    for k in range(1, p.shape[0]):
        diag.append(diag[-1] * math.sin(p[k - 1]) ** 2)
    return np.diag(diag)


def _front_op(name, rng, n, resolution, step, t_end, every) -> tuple:
    metric = sphere_metric(n)
    c = _coef(rng, 0.2, 0.5)
    nu = _coef(rng, 0.8, 1.2)
    p0 = _sphere_point(rng, n)
    doc = _scenario(n, metric, drag_force(metric, c), step=step,
                    t_end=t_end, every=every, x_box=_sphere_box(rng, n),
                    blowup={"p0": p0, "nu": nu, "resolution": resolution})
    nodes = int(round(t_end / step)) + 1
    op = Op(name, "blowup", dimension=n,
            directions=resolution ** (n - 1),
            output_nodes=len(range(0, nodes, every)),
            oracle=_oracle_launches(rng, _sphere_metric_at, p0, nu,
                                    ORACLE_DIRECTIONS))
    return op, doc


def _verdict_ops(rng, seed: int) -> list:
    s2 = sphere_metric(2)
    s3 = sphere_metric(3)
    e3 = _euclid_metric(3)
    k = _coef(rng, 0.5, 2.0)
    half = _coef(rng, 0.8, 1.5)
    c2, c3 = _coef(rng, 0.2, 0.5), _coef(rng, 0.2, 0.5)
    systems = [
        ("s2drag", 2, s2, drag_force(s2, c2), _rank_box(rng, 2, c2),
         "weak-normal", "weak"),
        ("s3drag", 3, s3, drag_force(s3, c3), _rank_box(rng, 3, c3),
         "complete-normal", "weak"),
        ("e3harmonic", 3, e3, [f"-{k!r}*x{i + 1}" for i in range(3)],
         [[-half, half]] * 3, "neither", "neither"),
    ]
    out = []
    for name, n, metric, force, box, verdict, rank_class in systems:
        doc = _scenario(n, metric, force, step=RANK_STEP, t_end=RANK_T_END,
                        x_box=box, count=CHECK_SAMPLES, seed=seed % 100_000)
        out.append((Op(f"check-{name}", "check", dimension=n,
                       verdict=verdict), doc))
        out.append((Op(f"rank-{name}", "rank", dimension=n,
                       rank_class=rank_class), doc))
    return out


def build(workload: str, seed: int) -> list:
    """(Op, scenario document) pairs of one workload for one seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "blowup3d":
        return [_front_op("blowup3d", rng, 3, BLOWUP3D_RESOLUTION,
                          BLOWUP3D_STEP, BLOWUP3D_T_END, BLOWUP3D_EVERY)]
    if workload == "fronts2d":
        return [_front_op("fronts2d", rng, 2, FRONTS2D_RESOLUTION,
                          FRONTS2D_STEP, FRONTS2D_T_END, FRONTS2D_EVERY)]
    if workload == "verdicts":
        return _verdict_ops(rng, seed)
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")


def write(workload: str, seed: int, scenario_dir: Path) -> list:
    """Write the scenario files; return the ops pointing at them."""
    scenario_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for op, doc in build(workload, seed):
        path = scenario_dir / f"{op.name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        op.config = str(path)
        ops.append(op)
    return ops


def ops_to_json(ops: list) -> str:
    return json.dumps([asdict(op) for op in ops])


def ops_from_json(text: str) -> list:
    return [Op(**item) for item in json.loads(text)]

"""Command-line interface: config-driven runs writing CSV and JSON.

Exit codes: 0 success or definite verdict, 1 configuration error,
2 inconclusive result, 3 runtime abort or failed selftest.  The run
report goes to stdout (it carries the wall-clock duration); the files
written to --out-dir are byte-deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import normality, report
from .blowup import (BlowupError, export_front, initial_slopes,
                     orthogonality_report, simulate_blowup, simulate_shift)
from .config import ConfigError, ScenarioConfig, load_config
from .deviation import DeviationError, deviation_rank
from .dynamics import DynamicsError, IntegrationAbort, integrate_batch
from .geometry import GeometryError
from .normality import NormalityError, classify, sample_tangent_points

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INCONCLUSIVE = 2
EXIT_ABORT = 3


def _emit_run_report(command: str, config_echo: dict, stats: dict,
                     outputs: list, started: float,
                     verdict: str | None = None, batch=None,
                     samples: int | None = None) -> None:
    """Print the run report.  Given the integrated batch (a
    BatchTrajectory, possibly cut short by an abort), stats gains the work
    it did: four RHS evaluations and one row step per row for each step
    completed, and row steps per second of the run's duration.  Given the
    classifier's sample count, it gains the samples, the residual blocks
    they were evaluated in, and samples per second."""
    elapsed = time.perf_counter() - started
    if batch is not None:
        steps = batch.node_count - 1
        row_steps = batch.x.shape[1] * steps
        stats["work"] = {"rhs_evals": 4 * steps, "row_steps": row_steps,
                         "row_steps_per_s": row_steps / elapsed}
    if samples is not None:
        stats["work"] = {"samples": samples,
                         "sample_blocks": normality.sample_blocks(samples),
                         "samples_per_s": samples / elapsed}
    run = {"command": command, "config": config_echo}
    if verdict is not None:
        run["verdict"] = verdict
    run["stats"] = stats
    run["outputs"] = outputs
    run["duration_ms"] = int(round(elapsed * 1000.0))
    print(report.dump_json(run))


def cmd_check(cfg: ScenarioConfig, out_dir: Path, started: float) -> int:
    man, force = cfg.build()
    s = cfg.sampler
    rep = classify(man, force, s.x_box, s.v_min, s.v_max, s.count,
                   seed=s.seed, tol=cfg.tolerance)
    residual_doc = {
        "verdict": rep.verdict,
        "tolerance": rep.tolerance,
        "sample_count": len(rep.xs),
        "max_weak_residual": rep.max_weak,
        "mean_weak_residual": rep.mean_weak,
        "max_additional_residual": rep.max_additional,
        "mean_additional_residual": rep.mean_additional,
        "additional_trivial": rep.additional_trivial,
        "max_strong_additional": rep.max_strong_additional,
        "worst_sample": {
            "x": [float(c) for c in rep.xs[rep.worst_index]],
            "v": [float(c) for c in rep.vs[rep.worst_index]],
        },
    }
    out = report.write_json(out_dir / "residual_report.json", residual_doc)
    stats = dict(residual_doc)
    _emit_run_report("check", cfg.echo(), stats, [out], started,
                     verdict=rep.verdict, samples=len(rep.xs))
    return EXIT_INCONCLUSIVE if rep.verdict == normality.INCONCLUSIVE \
        else EXIT_OK


def _run_front(kind: str, cfg: ScenarioConfig, out_dir: Path,
               started: float, simulate) -> int:
    """Run simulate(), write the front CSV and orthogonality report, and
    emit the run report.  An integration abort keeps the partial front,
    is recorded in the report, and exits 3."""
    abort = None
    try:
        record = simulate()
    except IntegrationAbort as exc:
        abort, record = exc, exc.record
    every = cfg.integrator.output_every
    header, table = export_front(record, output_every=every)
    csv_path = report.write_csv(out_dir / f"{kind}_front.csv", header, table)
    orth = orthogonality_report(record)
    per_time = [{"t": float(orth.times[i]),
                 "max_psi": float(orth.max_psi_per_time[i]),
                 "mean_psi": float(orth.mean_psi_per_time[i])}
                for i in range(0, orth.times.shape[0], every)]
    slopes = initial_slopes(record) if record.batch.node_count >= 3 else None
    doc = {
        "kind": kind,
        "max_psi": orth.max_psi,
        "mean_psi": orth.mean_psi,
        "undefined_count": orth.undefined_count,
        "inconclusive": orth.inconclusive,
        "aborted": abort is not None,
        "per_time": per_time,
        "initial_slopes": {
            "u": [[float(c) for c in row] for row in record.u],
            "values": ([[float(c) for c in row] for row in slopes]
                       if slopes is not None else None),
        },
    }
    if abort is not None:
        doc["abort_node"] = abort.node_index
        doc["abort_directions"] = abort.batch_indices
        doc["abort_quantities"] = abort.quantities
    json_path = report.write_json(out_dir / f"{kind}_orthogonality.json", doc)
    stats = {"max_psi": orth.max_psi, "mean_psi": orth.mean_psi,
             "undefined_count": orth.undefined_count,
             "directions": int(record.u.shape[0]),
             "nodes": int(record.batch.node_count),
             "aborted": abort is not None}
    _emit_run_report(kind, cfg.echo(), stats, [csv_path, json_path], started,
                     batch=record.batch)
    return EXIT_ABORT if abort is not None else EXIT_OK


def cmd_blowup(cfg: ScenarioConfig, out_dir: Path, started: float) -> int:
    if cfg.blowup is None:
        raise ConfigError("blowup", "section required for this command")
    man, force = cfg.build()
    return _run_front("blowup", cfg, out_dir, started,
                      lambda: simulate_blowup(man, force, cfg.blowup,
                                              cfg.integrator.t_end,
                                              cfg.integrator.step))


def cmd_shift(cfg: ScenarioConfig, out_dir: Path, started: float) -> int:
    if cfg.shift is None:
        raise ConfigError("shift", "section required for this command")
    man, force = cfg.build()
    return _run_front("shift", cfg, out_dir, started,
                      lambda: simulate_shift(man, force, cfg.shift,
                                             cfg.integrator.t_end,
                                             cfg.integrator.step))


def cmd_rank(cfg: ScenarioConfig, out_dir: Path, started: float) -> int:
    man, force = cfg.build()
    s = cfg.sampler
    r = cfg.rank
    n = cfg.dimension
    xs, vs = sample_tangent_points(man, s.x_box, s.v_min, s.v_max,
                                   r.trajectories, seed=s.seed)
    rng = np.random.default_rng(s.seed)
    tau0 = rng.normal(size=(r.trajectories, r.variations, n))
    rho0 = rng.normal(size=(r.trajectories, r.variations, n))
    batch = integrate_batch(man, force, xs, vs, tau0, rho0,
                            cfg.integrator.t_end, cfg.integrator.step)
    result = deviation_rank(man, batch, r.window)
    conclusive = result.ratio[~result.inconclusive]
    max_ratio = float(conclusive.max()) if conclusive.size else None
    any_inconclusive = bool(result.inconclusive.any())
    rows = [{"index": i, "x": x, "v": v, "singular_values": sv,
             "sigma3_over_sigma1": None if bad else ratio,
             "inconclusive": bad}
            for i, (x, v, sv, ratio, bad) in enumerate(zip(
                xs.tolist(), vs.tolist(), result.singular_values.tolist(),
                result.ratio.tolist(), result.inconclusive.tolist()))]
    doc = {
        "window": [r.window[0], r.window[1]],
        "variations": r.variations,
        "max_sigma3_over_sigma1": max_ratio,
        "any_inconclusive": any_inconclusive,
        "trajectories": rows,
    }
    out = report.write_json(out_dir / "rank_report.json", doc)
    stats = {"max_sigma3_over_sigma1": max_ratio,
             "any_inconclusive": any_inconclusive,
             "trajectories": r.trajectories,
             "variations": r.variations}
    _emit_run_report("rank", cfg.echo(), stats, [out], started, batch=batch)
    return EXIT_INCONCLUSIVE if any_inconclusive else EXIT_OK


def cmd_selftest(out_dir: Path, flip_riemann_sign: bool,
                 started: float) -> int:
    from . import selfcheck  # with the systems catalogue, only here
    sign = -1.0 if flip_riemann_sign else 1.0
    suites = selfcheck.run_all(riemann_sign=sign)
    doc = {
        "all_passed": all(s.passed for s in suites),
        "suites": [{
            "name": s.name,
            "module": s.module,
            "passed": s.passed,
            "cases": [{"system": c.system, "observed": c.observed,
                       "tolerance": c.tolerance, "passed": c.passed}
                      for c in s.cases],
        } for s in suites],
    }
    out = report.write_json(out_dir / "selftest_report.json", doc)
    stats = {"suites": len(suites),
             "failed": sum(0 if s.passed else 1 for s in suites)}
    _emit_run_report("selftest", {"flip_riemann_sign": flip_riemann_sign},
                     stats, [out], started,
                     verdict="pass" if doc["all_passed"] else "fail")
    return EXIT_OK if doc["all_passed"] else EXIT_ABORT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontshift",
        description="Newtonian flows on Riemannian manifolds: normality "
                    "verdicts, blow-up and shift fronts, deviation rank.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("check", "classify the force field by residual sampling"),
            ("blowup", "blow a point up into fronts and measure tilt"),
            ("shift", "shift a hypersurface and measure tilt"),
            ("rank", "singular values of the deviation sample matrix")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override sampler seed")
    p = sub.add_parser("selftest", help="run the built-in identity suites")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--flip-riemann-sign", action="store_true",
                   help="debug: flip the curvature term to prove the "
                        "variation suite catches it")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "selftest":
            return cmd_selftest(out_dir, args.flip_riemann_sign, started)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = cfg._replace(sampler=cfg.sampler._replace(seed=args.seed))
        handler = {"check": cmd_check, "blowup": cmd_blowup,
                   "shift": cmd_shift, "rank": cmd_rank}[args.command]
        return handler(cfg, out_dir, started)
    except (ConfigError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (GeometryError, BlowupError, NormalityError, DeviationError,
            DynamicsError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationAbort as exc:
        # only check/rank reach here; blowup and shift catch aborts
        # themselves and keep partial outputs
        print(str(exc), file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark repetition in a fresh process.

Imports frontshift from the checkout, runs the workload's CLI calls
through ``frontshift.cli.main`` one after the other, and writes the
timings and exit codes as JSON.  Correctness checks happen elsewhere,
after this process has ended; the twin-trajectory oracle (``--oracle``)
and the span dump (``--spans``) run after the timed window.

    python3 perfbench/worker.py --ops OPS.json --out-root DIR --result R.json
        [--spans SPANS.json] [--oracle] [--flip-curvature]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
import traceback
from pathlib import Path

import numpy as np  # imported before the set-up clock starts

import scenarios
import spans


def flip_curvature() -> None:
    """Deliberately broken program: negate every Riemann tensor."""
    def make(riemann):
        def flipped(self, *args, **kwargs):
            return -riemann(self, *args, **kwargs)
        return flipped
    spans.patch("frontshift.geometry", "Manifold.riemann", make)


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_op(main, argv: list) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return {"exit": main(argv), "error": None}
        except SystemExit as exc:
            return {"exit": exc.code, "error": None}
        except Exception:  # an op failure is counted, not fatal
            return {"exit": None, "error": traceback.format_exc(limit=3)}


def _oracle(op) -> list:
    from frontshift import selfcheck
    from frontshift.config import load_config
    cfg = load_config(op.config)
    man, force = cfg.build()
    return [selfcheck.variation_errors(man, force, np.asarray(x0),
                                       np.asarray(v0), scenarios.ORACLE_DU,
                                       t_end=cfg.integrator.t_end,
                                       h=cfg.integrator.step)
            for x0, v0 in op.oracle]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", required=True)
    parser.add_argument("--out-root", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--flip-curvature", action="store_true")
    args = parser.parse_args()
    ops = scenarios.ops_from_json(Path(args.ops).read_text(encoding="utf-8"))
    out_root = Path(args.out_root)

    start = time.perf_counter()
    import frontshift.cli
    import_s = time.perf_counter() - start
    if args.flip_curvature:
        flip_curvature()
    # set-up time comes from the config spans; --spans traces every layer
    tracer = spans.Tracer()
    tracer.install(None if args.spans else spans.SETUP_SPANS)

    results = []
    cpu0, wall0 = _cpu(), time.perf_counter()
    for op in ops:
        argv = [op.command, "--config", op.config,
                "--out-dir", str(out_root / op.name)]
        results.append(_run_op(frontshift.cli.main, argv))
    wall_s, cpu_s = time.perf_counter() - wall0, _cpu() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer.active = False
    _, total, _ = spans.span_times(tracer.spans)
    setup_s = import_s + sum(total[name] for name in spans.SETUP_SPANS)
    if args.spans:
        tracer.dump(args.spans)
    if args.oracle:
        for op, res in zip(ops, results):
            try:
                res["oracle"] = _oracle(op) if op.oracle else []
            except Exception:  # a broken program may abort the oracle too
                res["error"] = traceback.format_exc(limit=3)
                res["oracle"] = None
    Path(args.result).write_text(json.dumps({
        "wall_s": wall_s, "cpu_s": cpu_s, "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0, "ops": results,
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

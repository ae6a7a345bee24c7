"""Benchmark of the frontshift CLI: seeded workloads, correctness-gated.

    python3 perfbench/run.py --workload {blowup3d,fronts2d,verdicts,all}
        --seed N [--seconds S] [--trace 0|1]

Generates the workload's scenario files from the seed, then runs the
workload again and again for about S seconds, as a closed loop with one
client: each repetition is a fresh process (worker.py) that calls
``frontshift.cli.main`` once per operation.  After each repetition the
gate checks every output; all timing happens inside the worker.  The
machine's speed is measured (calibrate.py) before and after every
repetition, and the repetition's times are scaled to the reference speed.
With ``--trace 0`` it reports the end-to-end metrics (medians over the
repetitions); with ``--trace 1`` it runs the kernel sweep, then
alternates plain and traced repetitions and reports the per-layer
metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import gate
import scenarios
import spans
import sweep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

MIN_REPS = 3              # a median, and twice the same seed for the gate
MIN_TRACED_PAIRS = 2
REP_TIMEOUT_S = 120

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB")]
TIMES = ("wall_s", "cpu_s", "setup_s")    # scaled by the calibration
REP_KEYS = ([name for name, _ in END_TO_END] + ["calibration_s"]
            + ["raw_" + name for name in TIMES])


def per_layer_metrics() -> list:
    """(name, unit) of every metric a --trace 1 run reports."""
    return (spans.SPAN_METRICS + [("trace.overhead_ratio", "ratio")]
            + [(name, "us") for name in sweep.metric_names()])


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _run_script(args: list) -> str:
    try:
        proc = subprocess.run([sys.executable, *args], env=worker_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} ran over {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise BenchError(f"{Path(args[0]).name} exited {proc.returncode}:"
                         f"\n{tail}")
    return proc.stdout


def run_rep(work: Path, index: int, *, traced: bool = False,
            oracle: bool = False, flip_curvature: bool = False) -> dict:
    """One repetition in a fresh process; returns the worker's record."""
    result = work / f"rep{index}.json"
    args = [str(HERE / "worker.py"), "--ops", str(work / "ops.json"),
            "--out-root", str(work / f"rep{index}"), "--result", str(result)]
    span_file = work / f"rep{index}.spans.json"
    if traced:
        args += ["--spans", str(span_file)]
    if oracle:
        args.append("--oracle")
    if flip_curvature:
        args.append("--flip-curvature")
    _run_script(args)
    rep = json.loads(result.read_text(encoding="utf-8"))
    if traced:
        rep["layers"] = spans.summarize(spans.load(span_file))
        span_file.unlink()
    return rep


class Ledger:
    """Gate results over all repetitions of one run."""

    def __init__(self, ops: list):
        self.ops = ops
        self.first_digests = None
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def check(self, work: Path, index: int, rep: dict) -> None:
        out_root = work / f"rep{index}"
        digests = []
        for k, (op, res) in enumerate(zip(self.ops, rep["ops"])):
            fails = gate.check_op(op, out_root / op.name, res)
            digests.append(gate.digest(out_root / op.name))
            if self.first_digests is not None and \
                    digests[-1] != self.first_digests[k]:
                fails.append("outputs differ from repetition 0 "
                             "(same seed, same scenario)")
            self.attempted += 1
            if fails:
                self.failed += 1
                self.messages += [f"rep {index} {op.name}: {m}"
                                  for m in fails]
        if self.first_digests is None:
            self.first_digests = digests
        shutil.rmtree(out_root, ignore_errors=True)


def calibration() -> float:
    """CPU seconds of calibrate.py's fixed work, in a fresh process."""
    return float(_run_script([str(HERE / "calibrate.py")]))


def normalize(rep: dict, before: float, after: float) -> None:
    """Scale the repetition's times to the reference machine speed."""
    rep["calibration_s"] = (before + after) / 2
    scale = calibrate.REFERENCE_S / rep["calibration_s"]
    for name in TIMES:
        rep["raw_" + name] = rep[name]
        rep[name] *= scale


def measure(work: Path, ledger: Ledger, seconds: float,
            traced: bool) -> tuple[list, list]:
    """Repeat until the next repetition would end after `seconds`."""
    plain, with_spans, took = [], [], []
    kinds = (False, True) if traced else (False,)
    start = time.perf_counter()
    cal = calibration()
    index = 0
    while True:
        for use_spans in kinds:
            t0 = time.perf_counter()
            rep = run_rep(work, index, traced=use_spans, oracle=index == 0)
            before, cal = cal, calibration()
            took.append(time.perf_counter() - t0)
            normalize(rep, before, cal)
            ledger.check(work, index, rep)
            (with_spans if use_spans else plain).append(rep)
            index += 1
        elapsed = time.perf_counter() - start
        next_end = elapsed + statistics.median(took) * len(kinds)
        enough = (len(with_spans) >= MIN_TRACED_PAIRS if traced
                  else len(plain) >= MIN_REPS)
        if enough and next_end > seconds:
            return plain, with_spans


def _median(reps: list, key: str) -> float:
    return statistics.median(r[key] for r in reps)


def environment() -> dict:
    """Machine and software the result was measured on."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "commit": commit,
            "src_sha256": digest.hexdigest()}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    work = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    ops = scenarios.write(workload, seed, work / "scenarios")
    (work / "ops.json").write_text(scenarios.ops_to_json(ops),
                                   encoding="utf-8")
    ledger = Ledger(ops)
    metrics = {}
    if trace:
        sweep_file = work / "sweep.json"
        _run_script([str(HERE / "sweep.py"), "--seed", str(seed),
                     "--out", str(sweep_file)])
        swept = json.loads(sweep_file.read_text(encoding="utf-8"))
        plain, traced = measure(work, ledger, seconds, traced=True)
        for name, unit in per_layer_metrics():
            if name == "trace.overhead_ratio":
                value = (_median(traced, "wall_s") / _median(plain, "wall_s")
                         - 1.0)
            elif name in swept:
                value = swept[name]
            else:   # median_low keeps counts whole
                median = (statistics.median_low if unit in ("count", "bytes")
                          else statistics.median)
                value = median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        reps = len(plain) + len(traced)
    else:
        plain, _ = measure(work, ledger, seconds, traced=False)
        for name, unit in END_TO_END:
            metrics[name] = {"value": _median(plain, name), "unit": unit}
        reps = len(plain)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "repetitions": reps, "environment": environment(),
        "correct": ledger.failed == 0, "attempted": ledger.attempted,
        "failed": ledger.failed, "failures": ledger.messages,
        "metrics": metrics,
        "calibration_s": _median(plain, "calibration_s"),
        "raw": {name: _median(plain, "raw_" + name) for name in TIMES},
        "per_repetition": [{k: r[k] for k in REP_KEYS} for r in plain],
    }
    (work / "result.json").write_text(json.dumps(record, indent=1),
                                      encoding="utf-8")
    return record


def report(record: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}: {record['repetitions']} repetitions, "
          f"closed loop, 1 client, fresh process each; values are medians")
    print("environment " + json.dumps(record["environment"]))
    print(f"calibration {record['calibration_s']:.4g} s (reference "
          f"{calibrate.REFERENCE_S} s); unscaled times: " + ", ".join(
              f"{k} {v:.6g} s" for k, v in record["raw"].items()))
    reps = record["per_repetition"]
    for name, m in record["metrics"].items():
        line = f"  {name:<44} {m['value']:>16.6g} {m['unit']}"
        if not record["trace"] and len(reps) > 1:
            q1, _, q3 = statistics.quantiles([r[name] for r in reps], n=4)
            line += f"  (quartiles {q1:.6g} .. {q3:.6g}, n={len(reps)})"
        print(line)
    ratio = record["failed"] / max(record["attempted"], 1)
    print(f"  {'failed_ratio':<44} {ratio:>16.6g} ratio "
          f"({record['failed']} of {record['attempted']} CLI calls)")
    for msg in record["failures"][:20]:
        print(f"  FAILED {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=scenarios.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "frontshift" / "cli.py").is_file():
        print(f"perfbench: no frontshift sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = (scenarios.WORKLOADS if args.workload == "all"
                 else (args.workload,))
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace)
                   for w in workloads]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for record in records:
        report(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records
                   for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

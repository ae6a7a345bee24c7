"""Spans around the public functions of frontshift's modules.

The tracer wraps functions from outside the program: each wrapper is
put in place of the original under every name a frontshift module binds
it to (``frontshift.cli.simulate_blowup``,
``frontshift.dynamics.extended_gradients``, ...) and, for methods, on the
class.  A span records its name, start, end, parent span, the work it was
handed (rows, steps, samples, bytes) and the exception that left it, if
any.  Spans stay in memory and are written out once, at exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "frontshift"


def replace_everywhere(original, wrapper) -> int:
    """Rebind every module-level name in the package bound to original."""
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE
                               or mod_name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                count += 1
    return count


def patch(module_name: str, qualname: str, make_wrapper) -> None:
    """Replace module.qualname (a function or Class.method) by a wrapper."""
    owner = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if path:
        setattr(owner, attr, wrapper)
    elif replace_everywhere(original, wrapper) == 0:
        raise LookupError(f"{module_name}.{qualname} is bound nowhere")


# -- work noted per span (computed from arguments and results) ---------------

def _first_rows(fn, args, kwargs, result):
    """Batch size: leading length of the first array argument."""
    for value in (*args, *kwargs.values()):
        shape = getattr(value, "shape", None)
        if shape:
            return int(shape[0])
    return 0


_signature = functools.cache(inspect.signature)


def _integrate_work(fn, args, kwargs, result):
    a = _signature(fn).bind(*args, **kwargs).arguments
    return [int(len(a["x0"])), int(round(a["t_end"] / a["h"]))]


def _classify_work(fn, args, kwargs, result):
    return int(_signature(fn).bind(*args, **kwargs).arguments["count"])


def _export_work(fn, args, kwargs, result):
    return len(result[1])


def _csv_work(fn, args, kwargs, result):
    return [len(args[2]), os.path.getsize(result)]


# (span name, module, qualname, work noted from (fn, args, kwargs, result))
TARGETS = (
    ("exprlang.parse", "frontshift.exprlang", "parse", None),
    ("exprlang.differentiate", "frontshift.exprlang", "differentiate", None),
    ("exprlang.simplify", "frontshift.exprlang", "simplify", None),
    ("exprlang.compile_fn", "frontshift.exprlang", "compile_fn", None),
    ("config.load_config", "frontshift.config", "load_config", None),
    ("config.build", "frontshift.config", "ScenarioConfig.build", None),
    ("geometry.metric", "frontshift.geometry", "Manifold.metric",
     _first_rows),
    ("geometry.metric_partials", "frontshift.geometry",
     "Manifold.metric_partials", _first_rows),
    ("geometry.metric_second_partials", "frontshift.geometry",
     "Manifold.metric_second_partials", _first_rows),
    ("geometry.christoffel", "frontshift.geometry", "Manifold.christoffel",
     _first_rows),
    ("geometry.christoffel_partials", "frontshift.geometry",
     "Manifold.christoffel_partials", _first_rows),
    ("geometry.riemann", "frontshift.geometry", "Manifold.riemann",
     _first_rows),
    ("geometry.frame", "frontshift.geometry", "Manifold.frame", _first_rows),
    ("geometry.force_components", "frontshift.geometry",
     "ForceField.components", _first_rows),
    ("geometry.force_jacobians", "frontshift.geometry",
     "ForceField.jacobians", _first_rows),
    ("geometry.extended_gradients", "frontshift.geometry",
     "extended_gradients", _first_rows),
    ("dynamics.integrate_batch", "frontshift.dynamics", "integrate_batch",
     _integrate_work),
    ("deviation.deviation_rank", "frontshift.deviation", "deviation_rank",
     None),
    ("normality.sample_tangent_points", "frontshift.normality",
     "sample_tangent_points", None),
    ("normality.classify", "frontshift.normality", "classify",
     _classify_work),
    ("blowup.sphere_grid", "frontshift.blowup", "sphere_grid", None),
    ("blowup.simulate_blowup", "frontshift.blowup", "simulate_blowup", None),
    ("blowup.orthogonality_report", "frontshift.blowup",
     "orthogonality_report", None),
    ("blowup.initial_slopes", "frontshift.blowup", "initial_slopes", None),
    ("blowup.export_front", "frontshift.blowup", "export_front",
     _export_work),
    ("report.write_csv", "frontshift.report", "write_csv", _csv_work),
    ("report.write_json", "frontshift.report", "write_json", None),
    ("cli.main", "frontshift.cli", "main", None),
)
SETUP_SPANS = ("config.load_config", "config.build")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        # [id, parent, name, start, end, work, error]
        self.spans: list = []
        self._stack: list = []
        self.active = True

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [len(spans), stack[-1] if stack else -1, name,
                   0.0, 0.0, None, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = clock()
                rec[6] = type(exc).__name__
                raise
            else:
                rec[4] = clock()
                if work is not None:
                    rec[5] = work(fn, args, kwargs, result)
                return result
            finally:
                stack.pop()
        return traced

    def install(self, names=None) -> None:
        """Wrap the TARGETS (those in `names` only, when given)."""
        for name, module, qualname, work in TARGETS:
            if names is None or name in names:
                patch(module, qualname,
                      lambda fn, name=name, work=work:
                      self.wrap(name, fn, work))

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans}),
                              encoding="utf-8")


def span_times(spans: list) -> tuple[dict, dict, dict]:
    """Per name: call count, time in outermost calls, self time."""
    child_time = defaultdict(float)
    for sid, parent, name, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, total, self_t = defaultdict(int), defaultdict(float), \
        defaultdict(float)
    for sid, parent, name, start, end, _, _ in spans:
        calls[name] += 1
        self_t[name] += (end - start) - child_time[sid]
        p = parent
        while p >= 0 and spans[p][2] != name:
            p = spans[p][1]
        if p < 0:                      # no enclosing span of the same name
            total[name] += end - start
    return calls, total, self_t


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# Per-layer metrics read from spans: (metric name, unit).
SPAN_METRICS = [
    ("exprlang.parse.calls", "count"), ("exprlang.parse.s", "s"),
    ("exprlang.differentiate.calls", "count"),
    ("exprlang.differentiate.s", "s"),
    ("exprlang.simplify.s", "s"),
    ("exprlang.compile_fn.calls", "count"), ("exprlang.compile_fn.s", "s"),
    ("config.load_config.s", "s"), ("config.build.self_s", "s"),
    ("geometry.metric.s", "s"), ("geometry.metric.calls", "count"),
    ("geometry.metric_partials.s", "s"),
    ("geometry.metric_second_partials.s", "s"),
    ("geometry.christoffel.s", "s"),
    ("geometry.christoffel_partials.self_s", "s"),
    ("geometry.riemann.self_s", "s"),
    ("geometry.extended_gradients.self_s", "s"),
    ("geometry.force_components.s", "s"),
    ("geometry.force_jacobians.s", "s"),
    ("geometry.frame.s", "s"),
    ("geometry.rows_per_call", "rows"),
    ("dynamics.integrate_batch.calls", "count"),
    ("dynamics.integrate_batch.s", "s"),
    ("dynamics.integrate_batch.self_s", "s"),
    ("dynamics.rhs_evals", "count"), ("dynamics.row_steps", "count"),
    ("dynamics.row_steps_per_s", "1/s"), ("dynamics.us_per_row_eval", "us"),
    ("dynamics.aborts", "count"),
    ("blowup.simulate_blowup.self_s", "s"), ("blowup.sphere_grid.s", "s"),
    ("blowup.orthogonality_report.s", "s"),
    ("blowup.initial_slopes.s", "s"), ("blowup.export_front.s", "s"),
    ("blowup.export_rows", "count"),
    ("report.write_csv.s", "s"), ("report.write_csv.bytes", "bytes"),
    ("report.write_json.s", "s"), ("report.csv_rows_per_s", "1/s"),
    ("normality.sample_tangent_points.s", "s"),
    ("normality.classify.self_s", "s"),
    ("normality.samples", "count"), ("normality.samples_per_s", "1/s"),
    ("deviation.deviation_rank.calls", "count"),
    ("deviation.deviation_rank.s", "s"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
]


def summarize(spans: list) -> dict:
    """Values of SPAN_METRICS; layers a workload never enters read 0."""
    calls, total, self_t = span_times(spans)
    out = {}
    for name, _ in SPAN_METRICS:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls.get(span, 0)
        elif stat == "s":
            out[name] = total.get(span, 0.0)
        elif stat == "self_s":
            out[name] = self_t.get(span, 0.0)

    geo_rows = geo_calls = 0
    rhs_evals = row_steps = row_evals = aborts = 0
    export_rows = csv_rows = csv_bytes = samples = 0
    for _, _, name, _, _, work, error in spans:
        if name.startswith("geometry."):
            geo_calls += 1
            geo_rows += work or 0
        elif name == "dynamics.integrate_batch":
            rows, steps = work or (0, 0)
            rhs_evals += 4 * steps
            row_steps += rows * steps
            row_evals += 4 * rows * steps
            aborts += error == "IntegrationAbort"
        elif name == "blowup.export_front" and work is not None:
            export_rows += work
        elif name == "report.write_csv" and work is not None:
            csv_rows += work[0]
            csv_bytes += work[1]
        elif name == "normality.classify" and work is not None:
            samples += work
    integrate_s = total.get("dynamics.integrate_batch", 0.0)
    out.update({
        "geometry.rows_per_call": _ratio(geo_rows, geo_calls),
        "dynamics.rhs_evals": rhs_evals,
        "dynamics.row_steps": row_steps,
        "dynamics.row_steps_per_s": _ratio(row_steps, integrate_s),
        "dynamics.us_per_row_eval": _ratio(integrate_s * 1e6, row_evals),
        "dynamics.aborts": aborts,
        "blowup.export_rows": export_rows,
        "report.write_csv.bytes": csv_bytes,
        "report.csv_rows_per_s": _ratio(
            csv_rows, total.get("report.write_csv", 0.0)),
        "normality.samples": samples,
        "normality.samples_per_s": _ratio(
            samples, total.get("normality.classify", 0.0)),
    })
    return out


def load(path) -> list:
    return json.loads(Path(path).read_text(encoding="utf-8"))["spans"]

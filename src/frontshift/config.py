"""Scenario configuration: one JSON document, validated with field paths.

Coordinates are fixed names: x1..xn on the chart, v1..vn for velocity
components, u1..u{n-1} for sphere or surface parameters.  All
expressions are strings in the expression-language grammar.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from . import exprlang
from .exprlang import ExprError
from .geometry import ForceField, GeometryError, Manifold


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class IntegratorConfig:
    step: float = 1e-3
    t_end: float = 1.0
    output_every: int = 10


@dataclass(frozen=True)
class BlowupSection:
    p0: list
    nu: float | str = 1.0
    resolution: int = 64


@dataclass(frozen=True)
class ShiftSection:
    surface: list
    box: list
    nu: float | str = 1.0
    resolution: int = 64
    orient_flip: bool = False


@dataclass(frozen=True)
class SamplerSection:
    x_box: list
    v_min: float = 0.5
    v_max: float = 2.0
    count: int = 500
    seed: int = 0

    def __post_init__(self):
        # checked here rather than in parse_config so that a seed set
        # with dataclasses.replace (the CLI's --seed) is checked too
        if self.seed < 0:
            raise ConfigError("sampler.seed", "must be >= 0")


@dataclass(frozen=True)
class RankSection:
    variations: int = 5
    window: tuple = (0.2, 1.0)
    trajectories: int = 5


@dataclass(frozen=True)
class ScenarioConfig:
    dimension: int
    metric: list
    force: list
    integrator: IntegratorConfig
    sampler: SamplerSection
    rank: RankSection
    tolerance: float = 1e-8
    blowup: BlowupSection | None = None
    shift: ShiftSection | None = None

    def build(self) -> tuple[Manifold, ForceField]:
        man = Manifold(self.dimension, self.metric)
        return man, ForceField(man, self.force)

    def echo(self) -> dict:
        """Plain dict mirror of the resolved config, for exact reruns."""
        out = {key: value for key, value in asdict(self).items()
               if value is not None}
        # a list, as parse_config reads it back; asdict keeps the tuple
        out["rank"]["window"] = list(self.rank.window)
        return out


_KNOWN_KEYS = {"dimension", "metric", "force", "integrator", "sampler",
               "rank", "tolerance", "blowup", "shift"}


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}{key}" if path else key, "missing field")
    return data[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, "expected an integer")
    return value


def _point(value, n: int, path: str) -> list:
    if (not isinstance(value, list) or len(value) != n):
        raise ConfigError(path, f"expected {n} numbers")
    return [_number(c, f"{path}[{k}]") for k, c in enumerate(value)]


def _box(value, n: int, path: str) -> list:
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(path, f"expected {n} [lo, hi] pairs")
    out = []
    for k, pair in enumerate(value):
        lohi = _point(pair, 2, f"{path}[{k}]")
        if not lohi[0] < lohi[1]:
            raise ConfigError(f"{path}[{k}]", "expected lo < hi")
        out.append(lohi)
    return out


def _expression(value, names: list, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, "expected an expression string")
    try:
        exprlang.parse(value, names)
    except ExprError as exc:
        raise ConfigError(path, str(exc)) from None
    return value


def _nu(value, n_params: int, path: str) -> float | str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if value <= 0.0:
            raise ConfigError(path, "constant nu must be positive")
        return float(value)
    return _expression(value, [f"u{k + 1}" for k in range(n_params)], path)


def parse_config(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("<config>", "top level must be a JSON object")
    for key in data:
        if key not in _KNOWN_KEYS:
            raise ConfigError(key, "unknown field")

    n = _integer(_require(data, "dimension", ""), "dimension")
    if not 2 <= n <= 4:
        raise ConfigError("dimension", "must be between 2 and 4")
    xnames = [f"x{k + 1}" for k in range(n)]
    vnames = [f"v{k + 1}" for k in range(n)]
    unames = [f"u{k + 1}" for k in range(n - 1)]

    metric = _require(data, "metric", "")
    if not isinstance(metric, list) or len(metric) != n or any(
            not isinstance(row, list) or len(row) != n for row in metric):
        raise ConfigError("metric", f"expected an {n}x{n} expression array")
    for i, row in enumerate(metric):
        for j, entry in enumerate(row):
            _expression(entry, xnames, f"metric[{i}][{j}]")
    try:
        Manifold(n, metric)
    except GeometryError as exc:
        raise ConfigError("metric", str(exc)) from None

    force = _require(data, "force", "")
    if not isinstance(force, list) or len(force) != n:
        raise ConfigError("force", f"expected {n} component expressions")
    for k, entry in enumerate(force):
        _expression(entry, xnames + vnames, f"force[{k}]")

    integ_data = data.get("integrator", {})
    if not isinstance(integ_data, dict):
        raise ConfigError("integrator", "expected an object")
    step = _number(integ_data.get("step", 1e-3), "integrator.step")
    if step <= 0.0:
        raise ConfigError("integrator.step", "must be positive")
    t_end = _number(integ_data.get("t_end", 1.0), "integrator.t_end")
    nsteps = round(t_end / step)
    if nsteps < 1 or abs(nsteps * step - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ConfigError("integrator.t_end",
                          "must be a positive integer multiple of the step")
    output_every = _integer(integ_data.get("output_every", 10),
                            "integrator.output_every")
    if output_every < 1:
        raise ConfigError("integrator.output_every", "must be >= 1")
    integrator = IntegratorConfig(step, t_end, output_every)

    sampler_data = data.get("sampler", {})
    if not isinstance(sampler_data, dict):
        raise ConfigError("sampler", "expected an object")
    x_box = _box(sampler_data.get("x_box", [[-1.0, 1.0]] * n), n,
                 "sampler.x_box")
    v_min = _number(sampler_data.get("v_min", 0.5), "sampler.v_min")
    v_max = _number(sampler_data.get("v_max", 2.0), "sampler.v_max")
    if v_min <= 0.0:
        raise ConfigError("sampler.v_min", "must be positive")
    if v_max < v_min:
        raise ConfigError("sampler.v_max", "must be >= v_min")
    count = _integer(sampler_data.get("count", 500), "sampler.count")
    if count < 1:
        raise ConfigError("sampler.count", "must be >= 1")
    seed = _integer(sampler_data.get("seed", 0), "sampler.seed")
    sampler = SamplerSection(x_box, v_min, v_max, count, seed)

    rank_data = data.get("rank", {})
    if not isinstance(rank_data, dict):
        raise ConfigError("rank", "expected an object")
    variations = _integer(rank_data.get("variations", 5), "rank.variations")
    if variations < 4:
        raise ConfigError("rank.variations",
                          "at least 4 variation initializations required")
    window = _point(rank_data.get("window", [0.2 * t_end, t_end]), 2,
                    "rank.window")
    if not 0.0 <= window[0] < window[1] <= t_end:
        raise ConfigError("rank.window",
                          "expected 0 <= lo < hi <= integrator.t_end")
    trajectories = _integer(rank_data.get("trajectories", 5),
                            "rank.trajectories")
    if trajectories < 1:
        raise ConfigError("rank.trajectories", "must be >= 1")
    rank = RankSection(variations, (window[0], window[1]), trajectories)

    tolerance = _number(data.get("tolerance", 1e-8), "tolerance")
    if tolerance <= 0.0:
        raise ConfigError("tolerance", "must be positive")

    blowup = None
    if "blowup" in data:
        bdata = data["blowup"]
        if not isinstance(bdata, dict):
            raise ConfigError("blowup", "expected an object")
        p0 = _point(_require(bdata, "p0", "blowup."), n, "blowup.p0")
        nu = _nu(bdata.get("nu", 1.0), n - 1, "blowup.nu")
        resolution = _integer(bdata.get("resolution", 64),
                              "blowup.resolution")
        if resolution < 8:
            raise ConfigError("blowup.resolution", "must be >= 8")
        blowup = BlowupSection(p0, nu, resolution)

    shift = None
    if "shift" in data:
        sdata = data["shift"]
        if not isinstance(sdata, dict):
            raise ConfigError("shift", "expected an object")
        surface = _require(sdata, "surface", "shift.")
        if not isinstance(surface, list) or len(surface) != n:
            raise ConfigError("shift.surface",
                              f"expected {n} map expressions")
        for k, entry in enumerate(surface):
            _expression(entry, unames, f"shift.surface[{k}]")
        box = _box(_require(sdata, "box", "shift."), n - 1, "shift.box")
        nu = _nu(sdata.get("nu", 1.0), n - 1, "shift.nu")
        resolution = _integer(sdata.get("resolution", 64),
                              "shift.resolution")
        if resolution < 2:
            raise ConfigError("shift.resolution", "must be >= 2")
        orient_flip = sdata.get("orient_flip", False)
        if not isinstance(orient_flip, bool):
            raise ConfigError("shift.orient_flip", "expected a boolean")
        shift = ShiftSection(surface, box, nu, resolution, orient_flip)

    return ScenarioConfig(n, metric, force, integrator, sampler, rank,
                          tolerance, blowup, shift)


def load_config(path) -> ScenarioConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON: {exc}") from None
    return parse_config(data)

"""Bundled test systems shared by the selftest, the tests, and the docs.

Five flat-space force fields cover the classification dichotomy, plus
curvilinear charts of the flat plane and the round sphere to exercise
connection and curvature terms.  Probe boxes keep clear of chart
degeneracies (polar axis, sphere poles).
"""

from __future__ import annotations

from typing import NamedTuple

from .geometry import ForceField, Manifold

EUCLID_2D = [["1", "0"], ["0", "1"]]
POLAR_PLANE = [["1", "0"], ["0", "x1^2"]]
SPHERE_ROUND = [["1", "0"], ["0", "sin(x1)^2"]]

_SPEED_POLAR = "sqrt(v1^2 + x1^2*v2^2)"


class SystemSpec(NamedTuple):
    name: str
    dimension: int
    metric: list
    force: list
    x_box: list
    v_min: float = 0.5
    v_max: float = 2.0
    weakly_normal: bool | None = None

    def build(self) -> tuple[Manifold, ForceField]:
        man = Manifold(self.dimension, self.metric)
        return man, ForceField(man, self.force)


BUNDLED: dict[str, SystemSpec] = {spec.name: spec for spec in [
    SystemSpec("euclid-free", 2, EUCLID_2D, ["0", "0"],
               [[-1.0, 1.0], [-1.0, 1.0]], weakly_normal=True),
    SystemSpec("euclid-linear", 2, EUCLID_2D, ["0.5*v1", "0.5*v2"],
               [[-1.0, 1.0], [-1.0, 1.0]], weakly_normal=True),
    SystemSpec("euclid-drag", 2, EUCLID_2D,
               ["-0.3*v1*sqrt(v1^2+v2^2)", "-0.3*v2*sqrt(v1^2+v2^2)"],
               [[-1.0, 1.0], [-1.0, 1.0]], weakly_normal=True),
    SystemSpec("euclid-const", 2, EUCLID_2D, ["1", "0"],
               [[-1.0, 1.0], [-1.0, 1.0]], weakly_normal=False),
    SystemSpec("euclid-harmonic", 2, EUCLID_2D, ["-x1", "-x2"],
               [[-1.0, 1.0], [-1.0, 1.0]], weakly_normal=False),
    SystemSpec("polar-free", 2, POLAR_PLANE, ["0", "0"],
               [[0.5, 3.0], [0.0, 6.0]], weakly_normal=True),
    SystemSpec("polar-drag", 2, POLAR_PLANE,
               [f"-0.3*{_SPEED_POLAR}*v1", f"-0.3*{_SPEED_POLAR}*v2"],
               [[0.5, 3.0], [0.0, 6.0]], weakly_normal=True),
    SystemSpec("sphere-free", 2, SPHERE_ROUND, ["0", "0"],
               [[0.6, 2.5], [0.0, 6.0]], weakly_normal=True),
]}

# The five flat fields of the classification dichotomy, in verdict order.
DICHOTOMY = ("euclid-free", "euclid-linear", "euclid-drag",
             "euclid-const", "euclid-harmonic")


def bundled(name: str) -> SystemSpec:
    try:
        return BUNDLED[name]
    except KeyError:
        raise KeyError(f"no bundled system named {name!r}; "
                       f"available: {sorted(BUNDLED)}") from None

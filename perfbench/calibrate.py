"""Machine speed: a fixed piece of work, timed in a fresh process.

The benchmark's machine is shared, and its speed drifts with the load of
other tenants by up to a third over minutes.  run.py times this work
before and after every repetition and scales the repetition's times by
REFERENCE_S over the mean of the two, so a time reads as seconds at the
machine speed at which the calibration takes REFERENCE_S.  The work
mixes what the program spends its time on: interpreter work (calls,
dicts, float formatting) and small batched numpy arithmetic.  It does not
touch frontshift, so a change to the program cannot move it.

    python3 perfbench/calibrate.py        # prints the CPU seconds it took
"""

from __future__ import annotations

import math
import time

import numpy as np

# Typical CPU seconds of calibrate() on the 2-vCPU Xeon the benchmark was
# sized on; it only sets the scale of the reported times.
REFERENCE_S = 0.3


def _interpreter(rounds: int) -> int:
    table: dict = {}
    text = []
    acc = 0
    for k in range(rounds):
        acc = (acc * 31 + k) % 1_000_003
        table[acc & 1023] = table.get(k & 1023, 0) + 1
        if k % 16 == 0:
            text.append(f"{math.sin(k):.17g}")
    return acc + len(table) + len("".join(text))


def _arrays(rounds: int) -> float:
    x = np.linspace(0.1, 1.0, 144 * 3).reshape(144, 3)
    g = np.ones((144, 3, 3))
    for _ in range(rounds):
        s = np.sin(x)
        g = 0.5 * g + np.einsum("bi,bj->bij", s, s)
        x = x + 1e-3 * np.einsum("bij,bj->bi", g, np.cos(x))
    return float(x.sum())


def calibrate() -> float:
    """CPU seconds of the fixed work in this process."""
    start = time.process_time()
    _interpreter(400_000)
    _arrays(5_000)
    return time.process_time() - start


if __name__ == "__main__":
    print(repr(calibrate()))

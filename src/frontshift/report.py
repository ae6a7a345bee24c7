"""Deterministic serialization of reports and front tables.

Every float is printed with 17 significant digits, which round-trips
doubles exactly; identical inputs therefore produce byte-identical
files.  Non-finite values become JSON null; in CSV files they print as
the tokens "nan", "inf" and "-inf".  numpy scalars and arrays serialize
as their Python equivalents.

A front CSV is written from a ``FrontTable`` in chunks of whole rows,
at most about ``_CSV_CELLS`` cells (a wider node is split), so neither
the file nor the (rows x columns) table is held in memory.  Every cell
goes through ``fmt17.slots``, loaded with the first front: a numpy
kernel with exactly the bytes of ``%.17g``, so ``dir_index`` prints as
``0``, ``1``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def fmt_float(value: float) -> str:
    return format(float(value), ".17g")


def _coerce(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def dump_json(obj, indent: int = 0) -> str:
    obj = _coerce(obj)
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        inner = ",\n".join(f"{pad}  {dump_json(v, indent + 1)}" for v in obj)
        return f"[\n{inner}\n{pad}]"
    if isinstance(obj, dict):
        if len(obj) == 0:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {dump_json(v, indent + 1)}"
            for k, v in obj.items())
        return f"{{\n{inner}\n{pad}}}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, obj) -> str:
    path = Path(path)
    path.write_text(dump_json(obj) + "\n", encoding="utf-8")
    return str(path)


_CSV_CELLS = 8192           # cells per chunk: the writer's memory bound


class FrontTable:
    """Rows (times[i], lead[d], body[i, d]), time-major: times (T,), lead
    (D, l), body (T, D, c_k) arrays joined along c.  len() is T * D."""

    __slots__ = ("times", "lead", "body")

    def __init__(self, times: np.ndarray, lead: np.ndarray, body: tuple):
        self.times, self.lead, self.body = times, lead, body

    def __len__(self) -> int:
        return self.times.shape[0] * self.lead.shape[0]


def write_csv(path, header, table: FrontTable) -> str:
    from . import fmt17     # on the first front, not with the CLI
    times, lead, width = table.times, table.lead, fmt17.WIDTH
    directions, leads = lead.shape
    rows = max(1, _CSV_CELLS // len(header))
    nodes = max(1, rows // max(1, directions))
    dirs = max(1, min(directions, rows))
    with open(path, "wb") as out:
        out.write((",".join(header) + "\n").encode())
        for start in range(0, len(times), nodes):
            t = times[start:start + nodes]
            for first in range(0, directions, dirs):
                d = slice(first, first + dirs)
                body = np.concatenate(
                    [part[start:start + nodes, d] for part in table.body],
                    axis=2)
                text = np.split(fmt17.slots(np.concatenate(
                    [t, lead[d].ravel(), body.ravel()])),
                    [len(t), len(t) + lead[d].size])
                cells = np.empty(body.shape[:2] + (len(header), width),
                                 np.uint8)
                cells[:, :, 0] = text[0][:, None]
                cells[:, :, 1:1 + leads] = text[1].reshape(-1, leads, width)
                cells[:, :, 1 + leads:] = text[2].reshape(
                    body.shape + (width,))
                cells[:, :, -1, -1] = ord("\n")
                out.write(cells.tobytes().translate(None, b"\0"))
    return str(path)

"""Deterministic serialization of reports and front tables.

Every float is printed with 17 significant digits, which round-trips
doubles exactly; identical inputs therefore produce byte-identical
files.  Non-finite values become JSON null; in CSV files they print as
the tokens "nan", "inf" and "-inf".  numpy scalars and arrays serialize
as their Python equivalents.

A front CSV is written from a ``FrontTable``: each output time's ``t``
and each direction's lead (``dir_index``, u) is formatted once, and the
body of a chunk of whole output nodes by one ``%`` operation, all with
``%.17g`` as in ``fmt_float``, so ``dir_index`` prints as ``0``, ``1``.
Neither the whole file nor the (rows x columns) table is held in memory.
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


_CSV_BLOCK_ROWS = 1024


class FrontTable:
    """Rows (times[i], lead[d], body[i, d]), time-major: times (T,), lead
    (D, l), body (T, D, c_k) arrays joined along c.  len() is T * D."""

    __slots__ = ("times", "lead", "body")

    def __init__(self, times: np.ndarray, lead: np.ndarray, body: tuple):
        self.times, self.lead, self.body = times, lead, body

    def __len__(self) -> int:
        return self.times.shape[0] * self.lead.shape[0]


def write_csv(path, header, table: FrontTable) -> str:
    nodes = max(1, _CSV_BLOCK_ROWS // max(1, table.lead.shape[0]))
    lead = ",".join(["%.17g"] * table.lead.shape[1])
    body = ",%.17g" * (len(header) - 1 - table.lead.shape[1]) + "\n"
    # A node is t joined to rests: rests[0] = "" puts t before row 0.
    rests = [""] + ["," + lead % tuple(row) + body
                    for row in table.lead.tolist()]
    with open(path, "w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        for start in range(0, table.times.shape[0], nodes):
            stop = start + nodes
            chunk = np.concatenate([part[start:stop] for part in table.body],
                                   axis=2)
            text = "".join(("%.17g" % t).join(rests)
                           for t in table.times[start:stop].tolist())
            out.write(text % tuple(chunk.ravel().tolist()))
    return str(path)

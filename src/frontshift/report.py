"""Deterministic serialization of reports and front tables.

Every float is printed with 17 significant digits, which round-trips
doubles exactly; identical inputs therefore produce byte-identical
files.  Non-finite values become JSON null; in CSV files they print as
the tokens "nan", "inf" and "-inf".  numpy scalars and arrays serialize
as their Python equivalents.

CSV tables are float arrays streamed in fixed blocks of rows: each block
is printed by one ``%`` operation with ``%.17g`` for every cell, which is
the formatter ``fmt_float`` uses, so integer-valued columns such as
``dir_index`` print without a decimal point.  Neither the whole file nor
a list per row is ever held in memory.
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


def write_csv(path, header, rows) -> str:
    path = Path(path)
    table = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with path.open("w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            out.write((line * block.shape[0]) % tuple(block.ravel().tolist()))
    return str(path)

"""Compare two --out-dir trees number by number.

    python3 scripts/golden_diff.py PARENT_DIR CHANGE_DIR [--rel 1e-12]
        [--abs 1e-14]

Both trees must hold the same relative file paths.  JSON files must have
the same structure: strings, booleans, nulls and integers (numbers
written without a fraction or exponent, on both sides) must be equal,
and any other pair of numbers passes when it is within ``rel`` of the
larger magnitude or within ``abs``.  CSV files must have the same header
and row count, and each cell passes by the same rule (cells that are not
numbers must be equal; nan matches nan).  Any other file must be
byte-identical.  One line per file gives its worst cell; the exit code is
1 on any mismatch and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path


class Mismatch(Exception):
    pass


class FileDiff:
    """Tolerances, the number of numeric mismatches and the worst cell
    seen in one file."""

    def __init__(self, rel: float, abs_tol: float):
        self.rel, self.abs = rel, abs_tol
        self.failures = 0
        self.worst = None        # (gap over allowed gap, where, a, b)

    def numbers(self, where: str, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        gap = abs(a - b)
        allowed = max(self.abs, self.rel * max(abs(a), abs(b)))
        ratio = gap / allowed if math.isfinite(gap) and allowed > 0.0 \
            else math.inf
        self.failures += ratio > 1.0
        if self.worst is None or ratio > self.worst[0]:
            self.worst = (ratio, where, a, b)

    def json(self, where: str, a, b) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            if list(a) != list(b):
                raise Mismatch(f"{where}: keys {list(a)} != {list(b)}")
            for key in a:
                self.json(f"{where}.{key}", a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                raise Mismatch(f"{where}: length {len(a)} != {len(b)}")
            for i, (x, y) in enumerate(zip(a, b)):
                self.json(f"{where}[{i}]", x, y)
        elif (isinstance(a, (int, float)) and isinstance(b, (int, float))
              and not isinstance(a, bool) and not isinstance(b, bool)
              and not (isinstance(a, int) and isinstance(b, int))):
            self.numbers(where, float(a), float(b))
        elif type(a) is not type(b) or a != b:
            raise Mismatch(f"{where}: {a!r} != {b!r}")

    def csv(self, a_rows: list, b_rows: list) -> None:
        if a_rows[:1] != b_rows[:1]:
            raise Mismatch(f"header {a_rows[:1]} != {b_rows[:1]}")
        if len(a_rows) != len(b_rows):
            raise Mismatch(f"{len(a_rows) - 1} rows != {len(b_rows) - 1}")
        header = a_rows[0]
        for r, (row_a, row_b) in enumerate(zip(a_rows[1:], b_rows[1:]), 1):
            if len(row_a) != len(row_b):
                raise Mismatch(f"row {r}: {len(row_a)} cells != {len(row_b)}")
            for col, (x, y) in enumerate(zip(row_a, row_b)):
                where = f"row {r} {header[col] if col < len(header) else col}"
                try:
                    fx, fy = float(x), float(y)
                except ValueError:
                    if x != y:
                        raise Mismatch(f"{where}: {x!r} != {y!r}") from None
                    continue
                self.numbers(where, fx, fy)


def compare_file(a: Path, b: Path, rel: float, abs_tol: float) -> str:
    """One line describing the worst cell; raises Mismatch on failure."""
    diff = FileDiff(rel, abs_tol)
    if a.suffix == ".json":
        diff.json("$", json.loads(a.read_text(encoding="utf-8")),
                  json.loads(b.read_text(encoding="utf-8")))
    elif a.suffix == ".csv":
        with a.open(newline="", encoding="utf-8") as fa, \
                b.open(newline="", encoding="utf-8") as fb:
            diff.csv(list(csv.reader(fa)), list(csv.reader(fb)))
    elif a.read_bytes() != b.read_bytes():
        raise Mismatch("bytes differ")
    else:
        return "bytes identical"
    if diff.worst is None:
        return "identical values"
    _, where, x, y = diff.worst
    line = f"worst {where}: {x!r} vs {y!r} (|diff| {abs(x - y):.3g})"
    if diff.failures:
        raise Mismatch(f"{diff.failures} numbers out of tolerance; {line}")
    return line


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--rel", type=float, default=1e-12)
    parser.add_argument("--abs", type=float, default=1e-14)
    args = parser.parse_args(argv)
    for root in (args.parent_dir, args.change_dir):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    parent, change = _files(args.parent_dir), _files(args.change_dir)
    failed = False
    for name in sorted(parent ^ change):
        side = "parent" if name in parent else "change"
        print(f"MISSING {name}: only in the {side} tree")
        failed = True
    for name in sorted(parent & change):
        try:
            line = compare_file(args.parent_dir / name,
                                args.change_dir / name, args.rel, args.abs)
        except Mismatch as exc:
            print(f"FAIL    {name}: {exc}")
            failed = True
        else:
            print(f"ok      {name}: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

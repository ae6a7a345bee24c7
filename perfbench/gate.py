"""Correctness gate: every CLI call's outputs against its scenario's class.

Runs after the repetition's process has ended, so none of it is timed.
Each check returns a list of failure messages; an operation with any
message counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import scenarios as sc


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _front(op, out: Path) -> list:
    fails = []
    n = op.dimension
    data = (out / "blowup_front.csv").read_bytes()
    rows = data.count(b"\n") - 1
    want = op.directions * op.output_nodes
    if rows != want:
        fails.append(f"front rows {rows} != {op.directions} directions x "
                     f"{op.output_nodes} output nodes")
    cols = 2 + (n - 1) + n + n + (n - 1) * n + 2 * (n - 1)
    if data.count(b",") != (rows + 1) * (cols - 1):
        fails.append(f"front rows do not all have {cols} columns")
    orth = _load(out / "blowup_orthogonality.json")
    if orth["max_psi"] is None or not orth["max_psi"] <= sc.PSI_NORMAL_MAX:
        fails.append(f"max_psi {orth['max_psi']} > {sc.PSI_NORMAL_MAX} "
                     f"on a normal field")
    if orth["undefined_count"] != op.directions * (n - 1):
        fails.append(f"undefined_count {orth['undefined_count']} != "
                     f"{op.directions} directions x {n - 1} (t = 0 only)")
    if orth["aborted"] or orth["inconclusive"]:
        fails.append("front aborted or inconclusive")
    if len(orth["per_time"]) != op.output_nodes:
        fails.append(f"per_time has {len(orth['per_time'])} entries, "
                     f"expected {op.output_nodes}")
    return fails


def _verdict(op, out: Path) -> list:
    doc = _load(out / "residual_report.json")
    fails = []
    if doc["verdict"] != op.verdict:
        fails.append(f"verdict {doc['verdict']} != {op.verdict}")
    if doc["sample_count"] != sc.CHECK_SAMPLES:
        fails.append(f"sample_count {doc['sample_count']} != "
                     f"{sc.CHECK_SAMPLES}")
    return fails


def _rank(op, out: Path) -> list:
    doc = _load(out / "rank_report.json")
    fails = []
    trajs = doc["trajectories"]
    if len(trajs) != sc.RANK_TRAJECTORIES or doc["any_inconclusive"]:
        fails.append(f"{len(trajs)} trajectories, inconclusive "
                     f"{doc['any_inconclusive']}")
    # weak normality caps every trajectory's deviation space at rank two;
    # a non-normal field must break the cap on some trajectory
    for t in trajs:
        ratio = t["sigma3_over_sigma1"]
        if op.rank_class == "weak" and not (ratio is not None
                                            and ratio <= sc.RANK_WEAK_MAX):
            fails.append(f"trajectory {t['index']}: sigma3/sigma1 {ratio} "
                         f"> {sc.RANK_WEAK_MAX} on a weakly normal field")
    top = doc["max_sigma3_over_sigma1"]
    if op.rank_class == "neither" and not (top is not None
                                           and top >= sc.RANK_NEITHER_MIN):
        fails.append(f"max sigma3/sigma1 {top} < {sc.RANK_NEITHER_MIN} "
                     f"on a field that is not weakly normal")
    return fails


_CHECKS = {"blowup": _front, "check": _verdict, "rank": _rank}


def check_op(op, out: Path, result: dict) -> list:
    """Failure messages of one CLI call; empty when it passed."""
    fails = []
    if result.get("error"):
        fails.append("raised: " + result["error"].strip().splitlines()[-1])
    if result.get("exit") != 0:     # every workload call must succeed
        fails.append(f"exit code {result.get('exit')} != 0")
        return fails
    try:
        fails += _CHECKS[op.command](op, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        fails.append(f"unreadable output: {exc!r}")
    oracle = result.get("oracle", [])
    if oracle is None:
        fails.append("twin-trajectory oracle did not finish")
    for err in oracle or []:
        if not err <= sc.ORACLE_MAX:
            fails.append(f"twin-trajectory oracle error {err:.3g} > "
                         f"{sc.ORACLE_MAX}")
    return fails


def digest(out: Path) -> dict:
    """sha256 of every file an operation wrote, by file name."""
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}

"""Run every command on every bundled config into one --out-dir tree.

    python3 scripts/golden_run.py OUT_DIR

Runs the program of this checkout (its ``src/``) in a fresh interpreter
per command: ``check``, ``blowup``, ``rank`` and ``shift`` on each config
in ``configs/``, and ``selftest`` plain and with ``--flip-riemann-sign``.
Each run writes into ``OUT_DIR/<command>/<config>`` (the selftests into
``OUT_DIR/selftest/plain`` and ``OUT_DIR/selftest/flip-riemann-sign``),
and ``OUT_DIR/exit_codes.json`` maps each run to its exit code, so
``scripts/golden_diff.py`` compares the codes of two trees exactly along
with their files.  The run reports on stdout are discarded.

Exit status 1 when any run exits with another code than expected: 0,
except 1 for ``shift`` on a config without a ``shift`` section (a config
error) and 3 for the flipped selftest, which must fail.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("check", "blowup", "rank", "shift")


def runs(configs: Path) -> list:
    """(key, CLI arguments without --out-dir, expected exit code) per run."""
    plan = []
    for path in sorted(configs.glob("*.json")):
        has_shift = "shift" in json.loads(path.read_text(encoding="utf-8"))
        for command in COMMANDS:
            expected = 1 if command == "shift" and not has_shift else 0
            plan.append((f"{command}/{path.stem}",
                         [command, "--config", str(path)], expected))
    plan.append(("selftest/plain", ["selftest"], 0))
    plan.append(("selftest/flip-riemann-sign",
                 ["selftest", "--flip-riemann-sign"], 3))
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    codes, failed = {}, False
    for key, cli_args, expected in runs(ROOT / "configs"):
        out = args.out_dir / key
        got = subprocess.run(
            [sys.executable, "-m", "frontshift.cli", *cli_args,
             "--out-dir", str(out)],
            env=env, stdout=subprocess.DEVNULL, check=False).returncode
        codes[key] = got
        failed |= got != expected
        print(f"{key}: exit {got} (want {expected})", flush=True)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / "exit_codes.json").write_text(
        json.dumps(codes, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""scripts/golden_diff.py on small out-dir trees; scripts/golden_run.py's
plan of runs and its exit-code record."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_diff.py"
_spec = importlib.util.spec_from_file_location("golden_diff", SCRIPT)
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)

REPORT = {"verdict": "weak-normal", "sample_count": 200,
          "max_weak_residual": 0.125, "max_additional_residual": 0.0,
          "additional_trivial": True, "max_strong_additional": None,
          "worst_sample": {"x": [0.25, -1.5], "v": [1.0, 2.0]}}
CSV = "t,dir_index,x1,psi_1\n0,0,1.5,nan\n0.001,0,1.5010000000000001,0.125\n"


def _tree(root: Path, report=REPORT, csv_text=CSV) -> Path:
    root.mkdir()
    (root / "residual_report.json").write_text(json.dumps(report))
    (root / "blowup_front.csv").write_text(csv_text)
    return root


def _run(capsys, a, b, *extra):
    code = golden_diff.main([str(a), str(b), *extra])
    return code, capsys.readouterr().out


def test_identical_trees_pass(tmp_path, capsys):
    code, out = _run(capsys, _tree(tmp_path / "a"), _tree(tmp_path / "b"))
    assert code == 0
    assert out.count("ok ") == 2


def test_last_bit_noise_passes_and_reports_the_worst_cell(tmp_path, capsys):
    noisy = dict(REPORT, max_weak_residual=0.125 * (1 + 4e-16),
                 max_additional_residual=3e-15)
    code, out = _run(capsys, _tree(tmp_path / "a"),
                     _tree(tmp_path / "b", report=noisy))
    assert code == 0
    assert "worst $.max_additional_residual" in out


@pytest.mark.parametrize("where", ["json", "csv"])
def test_relative_change_of_1e_10_fails(tmp_path, capsys, where):
    bumped = repr(0.125 * (1 + 1e-10))
    if where == "json":
        change = _tree(tmp_path / "b",
                       report=dict(REPORT, max_weak_residual=float(bumped)))
    else:
        change = _tree(tmp_path / "b", csv_text=CSV.replace("0.125", bumped))
    code, out = _run(capsys, _tree(tmp_path / "a"), change)
    assert code == 1
    assert "FAIL" in out
    # a looser tolerance lets the same change through
    assert _run(capsys, tmp_path / "a", change, "--rel", "1e-9")[0] == 0


def test_changed_verdict_fails(tmp_path, capsys):
    code, out = _run(capsys, _tree(tmp_path / "a"),
                     _tree(tmp_path / "b",
                           report=dict(REPORT, verdict="neither")))
    assert code == 1
    assert "$.verdict" in out


def test_changed_integer_fails_even_within_tolerance(tmp_path, capsys):
    code, _ = _run(capsys, _tree(tmp_path / "a"),
                   _tree(tmp_path / "b",
                         report=dict(REPORT, sample_count=201)),
                   "--rel", "0.1")
    assert code == 1


def test_missing_file_fails(tmp_path, capsys):
    change = _tree(tmp_path / "b")
    (change / "blowup_front.csv").unlink()
    code, out = _run(capsys, _tree(tmp_path / "a"), change)
    assert code == 1
    assert "MISSING blowup_front.csv" in out


def test_row_count_and_nan_placement_must_match(tmp_path, capsys):
    parent = _tree(tmp_path / "a")
    short = _tree(tmp_path / "b", csv_text=CSV.rsplit("\n", 2)[0] + "\n")
    assert _run(capsys, parent, short)[0] == 1
    moved = _tree(tmp_path / "c", csv_text=CSV.replace("nan", "0"))
    assert _run(capsys, parent, moved)[0] == 1


RUN_SCRIPT = SCRIPT.parent / "golden_run.py"
_run_spec = importlib.util.spec_from_file_location("golden_run", RUN_SCRIPT)
golden_run = importlib.util.module_from_spec(_run_spec)
_run_spec.loader.exec_module(golden_run)


def test_golden_run_plans_every_command_and_records_exit_codes(
        tmp_path, monkeypatch, capsys):
    plan = golden_run.runs(golden_run.ROOT / "configs")
    expected = {key: code for key, _, code in plan}
    assert len(plan) == len(expected) == 26
    assert {key.split("/")[0] for key in expected} == {
        "check", "blowup", "rank", "shift", "selftest"}
    assert sorted(key for key, code in expected.items() if code) == [
        "selftest/flip-riemann-sign", "shift/harmonic",
        "shift/sphere-geodesic", "shift/sphere3-drag", "shift/varying-nu"]
    assert expected["selftest/flip-riemann-sign"] == 3

    def fake_run(argv, **kwargs):
        # every run exits as expected except the plain selftest
        out = Path(argv[-1])
        key = f"{out.parent.name}/{out.name}"
        return SimpleNamespace(
            returncode=3 if key == "selftest/plain" else expected[key])

    monkeypatch.setattr(golden_run.subprocess, "run", fake_run)
    assert golden_run.main([str(tmp_path)]) == 1
    codes = json.loads((tmp_path / "exit_codes.json").read_text())
    assert codes == dict(expected, **{"selftest/plain": 3})
    assert "selftest/plain: exit 3 (want 0)" in capsys.readouterr().out

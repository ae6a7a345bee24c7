import json
import math

import pytest

from frontshift.cli import main

BASE = {
    "dimension": 2,
    "metric": [["1", "0"], ["0", "1"]],
    "force": ["0", "0"],
    "integrator": {"step": 0.001, "t_end": 0.2, "output_every": 20},
    "sampler": {"x_box": [[-1, 1], [-1, 1]], "v_min": 0.5, "v_max": 2.0,
                "count": 200, "seed": 0},
    "blowup": {"p0": [0, 0], "nu": 1.0, "resolution": 8},
    "shift": {"surface": ["sin(u1)", "cos(u1)"],
              "box": [[0.0, 6.283185307179586]], "nu": 1.0,
              "resolution": 8},
    "tolerance": 1e-8,
}


def _write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_complete_normal(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASE)
    code, out, _ = _run(capsys, ["check", "--config", cfg,
                                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    run = json.loads(out)
    assert run["command"] == "check"
    assert run["verdict"] == "complete-normal"
    assert set(run) == {"command", "config", "verdict", "stats", "outputs",
                        "duration_ms"}
    doc = json.loads((tmp_path / "out" / "residual_report.json").read_text())
    assert doc["verdict"] == "complete-normal"


def test_check_neither_for_constant_force(tmp_path, capsys):
    data = dict(BASE, force=["1", "0"])
    cfg = _write_config(tmp_path, data)
    code, out, _ = _run(capsys, ["check", "--config", cfg,
                                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["verdict"] == "neither"


def test_check_inconclusive_exit_code(tmp_path, capsys):
    data = dict(BASE, force=["0.00000002", "0"])
    cfg = _write_config(tmp_path, data)
    code, out, _ = _run(capsys, ["check", "--config", cfg,
                                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert json.loads(out)["verdict"] == "inconclusive"


def test_check_config_error_exit_and_message(tmp_path, capsys):
    data = dict(BASE, metric=[["1", "x1*"], ["x1*", "1"]])
    cfg = _write_config(tmp_path, data)
    code, out, err = _run(capsys, ["check", "--config", cfg,
                                   "--out-dir", str(tmp_path)])
    assert code == 1
    assert out == ""
    assert err.startswith("metric[0][1]: syntax error at byte 3")


def test_check_missing_config_file(tmp_path, capsys):
    code, _, err = _run(capsys, ["check", "--config",
                                 str(tmp_path / "nope.json"),
                                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert err


def test_blowup_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASE)
    out_dir = tmp_path / "out"
    code, out, _ = _run(capsys, ["blowup", "--config", cfg,
                                 "--out-dir", str(out_dir)])
    assert code == 0
    run = json.loads(out)
    assert run["stats"]["max_psi"] < 1e-10
    csv_lines = (out_dir / "blowup_front.csv").read_text().splitlines()
    assert csv_lines[0] == ("t,dir_index,u1,x1,x2,v1,v2,tau1_1,tau1_2,"
                            "phi_1,psi_1")
    # 0.2/0.001 = 200 nodes, every 20th plus t=0 -> 11 fronts of 8 rows
    assert len(csv_lines) == 1 + 11 * 8
    assert csv_lines[1].split(",")[-1] == "nan"
    doc = json.loads((out_dir / "blowup_orthogonality.json").read_text())
    assert doc["kind"] == "blowup"
    assert len(doc["per_time"]) == 11
    assert doc["per_time"][0]["max_psi"] is None  # undefined at t=0


def test_blowup_requires_section(tmp_path, capsys):
    data = {k: v for k, v in BASE.items() if k != "blowup"}
    cfg = _write_config(tmp_path, data)
    code, _, err = _run(capsys, ["blowup", "--config", cfg,
                                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert err.startswith("blowup:")


def test_blowup_abort_keeps_partial_output(tmp_path, capsys):
    data = dict(BASE, force=["x1^3", "0"],
                blowup={"p0": [2.0, 0.0], "nu": 5.0, "resolution": 8},
                integrator={"step": 0.001, "t_end": 1.0, "output_every": 50})
    cfg = _write_config(tmp_path, data)
    out_dir = tmp_path / "abort"
    code, out, _ = _run(capsys, ["blowup", "--config", cfg,
                                 "--out-dir", str(out_dir)])
    assert code == 3
    run = json.loads(out)
    assert run["stats"]["aborted"] is True
    assert (out_dir / "blowup_front.csv").exists()
    doc = json.loads((out_dir / "blowup_orthogonality.json").read_text())
    assert doc["aborted"] is True
    assert isinstance(doc["abort_node"], int)
    assert doc["abort_directions"]


def test_shift_outputs(tmp_path, capsys):
    # nu and resolution differ, so swapping them cannot go unnoticed
    data = dict(BASE, shift=dict(BASE["shift"], nu=1.5))
    cfg = _write_config(tmp_path, data)
    out_dir = tmp_path / "out"
    code, out, _ = _run(capsys, ["shift", "--config", cfg,
                                 "--out-dir", str(out_dir)])
    assert code == 0
    assert json.loads(out)["stats"]["max_psi"] < 1e-10
    assert (out_dir / "shift_orthogonality.json").exists()
    csv_lines = (out_dir / "shift_front.csv").read_text().splitlines()
    header = csv_lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in csv_lines[1:]]
    # 0.2/0.001 = 200 nodes, every 20th plus t=0 -> 11 fronts of 8 rows
    assert len(rows) == 11 * 8
    launch = [r for r in rows if float(r["t"]) == 0.0]
    assert [int(r["dir_index"]) for r in launch] == list(range(8))
    for r in launch:   # Euclidean chart: the g-speed is |v|
        speed = math.hypot(float(r["v1"]), float(r["v2"]))
        assert speed == pytest.approx(1.5, abs=1e-12)


def test_rank_free_field(tmp_path, capsys):
    data = dict(BASE, integrator={"step": 0.001, "t_end": 1.0,
                                  "output_every": 20})
    cfg = _write_config(tmp_path, data)
    code, out, _ = _run(capsys, ["rank", "--config", cfg,
                                 "--out-dir", str(tmp_path / "r")])
    assert code == 0
    doc = json.loads((tmp_path / "r" / "rank_report.json").read_text())
    assert doc["max_sigma3_over_sigma1"] <= 1e-10
    assert len(doc["trajectories"]) == 5
    assert all(len(t["singular_values"]) == 5 for t in doc["trajectories"])


def test_rank_harmonic_field(tmp_path, capsys):
    data = dict(BASE, force=["-x1", "-x2"],
                integrator={"step": 0.001, "t_end": 1.0, "output_every": 20})
    cfg = _write_config(tmp_path, data)
    code, out, _ = _run(capsys, ["rank", "--config", cfg,
                                 "--out-dir", str(tmp_path / "r")])
    assert code == 0
    assert json.loads(out)["stats"]["max_sigma3_over_sigma1"] >= 1e-3


def test_rank_too_few_variations(tmp_path, capsys):
    data = dict(BASE, rank={"variations": 3})
    cfg = _write_config(tmp_path, data)
    code, _, err = _run(capsys, ["rank", "--config", cfg,
                                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert err.startswith("rank.variations:")


def test_rank_abort_exits_three(tmp_path, capsys):
    data = dict(BASE, force=["x1^3", "0"],
                sampler={"x_box": [[2.0, 3.0], [2.0, 3.0]], "v_min": 4.0,
                         "v_max": 5.0, "count": 10, "seed": 0},
                integrator={"step": 0.001, "t_end": 1.0, "output_every": 20})
    cfg = _write_config(tmp_path, data)
    code, _, err = _run(capsys, ["rank", "--config", cfg,
                                 "--out-dir", str(tmp_path)])
    assert code == 3
    assert "non-finite state" in err


def test_seed_override_changes_samples(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASE)
    _, out_a, _ = _run(capsys, ["check", "--config", cfg,
                                "--out-dir", str(tmp_path / "a")])
    _, out_b, _ = _run(capsys, ["check", "--config", cfg,
                                "--out-dir", str(tmp_path / "b"),
                                "--seed", "99"])
    assert json.loads(out_a)["config"]["sampler"]["seed"] == 0
    assert json.loads(out_b)["config"]["sampler"]["seed"] == 99


@pytest.mark.parametrize("command, seed", [("rank", "-1"), ("check", "-3")])
def test_negative_seed_override_is_config_error(tmp_path, capsys, command,
                                                seed):
    cfg = _write_config(tmp_path, BASE)
    code, out, err = _run(capsys, [command, "--config", cfg,
                                   "--out-dir", str(tmp_path),
                                   "--seed", seed])
    assert code == 1
    assert out == ""
    assert err.startswith("sampler.seed:")


def test_negative_seed_in_config_is_config_error(tmp_path, capsys):
    data = dict(BASE, sampler=dict(BASE["sampler"], seed=-1))
    cfg = _write_config(tmp_path, data)
    code, out, err = _run(capsys, ["rank", "--config", cfg,
                                   "--out-dir", str(tmp_path)])
    assert code == 1
    assert out == ""
    assert err.startswith("sampler.seed:")


def test_determinism_byte_identical(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASE)
    for cmd, files in (("check", ["residual_report.json"]),
                       ("blowup", ["blowup_front.csv",
                                   "blowup_orthogonality.json"])):
        dirs = [tmp_path / f"{cmd}_1", tmp_path / f"{cmd}_2"]
        for d in dirs:
            code, _, _ = _run(capsys, [cmd, "--config", cfg,
                                       "--out-dir", str(d)])
            assert code == 0
        for name in files:
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b


def test_selftest_passes_and_reports(tmp_path, capsys):
    code, out, _ = _run(capsys, ["selftest", "--out-dir", str(tmp_path)])
    assert code == 0
    run = json.loads(out)
    assert run["verdict"] == "pass"
    doc = json.loads((tmp_path / "selftest_report.json").read_text())
    assert doc["all_passed"] is True
    names = [s["name"] for s in doc["suites"]]
    assert "projector-identities" in names
    assert "metric-compatibility" in names
    assert "rewrite-equivalence" in names
    assert "deviation-formulas" in names
    assert all(s["cases"] for s in doc["suites"])


def test_selftest_flipped_riemann_fails(tmp_path, capsys):
    code, out, _ = _run(capsys, ["selftest", "--out-dir", str(tmp_path),
                                 "--flip-riemann-sign"])
    assert code == 3
    doc = json.loads((tmp_path / "selftest_report.json").read_text())
    failing = [s for s in doc["suites"] if not s["passed"]]
    assert [s["name"] for s in failing] == ["variation-fidelity"]

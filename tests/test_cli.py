import json
import math
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import frontshift
from frontshift import cli as cli_module
from frontshift import exprlang
from frontshift.cli import (build_parser, cmd_blowup, cmd_check, cmd_rank,
                            cmd_shift, main)
from frontshift.config import load_config
from test_rhs_reference import CHARTS, drag, sphere

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


def test_check_reports_its_sampling_work(tmp_path, capsys):
    data = dict(BASE, sampler=dict(BASE["sampler"], count=5000))
    cfg = _write_config(tmp_path, data)
    code, out, _ = _run(capsys, ["check", "--config", cfg,
                                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    work = json.loads(out)["stats"]["work"]
    assert (work["samples"], work["sample_blocks"]) == (5000, 3)
    assert work["samples_per_s"] > 0
    doc = json.loads((tmp_path / "out" / "residual_report.json").read_text())
    assert "work" not in doc


def test_check_undefined_residuals_are_a_config_error(tmp_path, capsys):
    # the force is nan for x1 < 0.5 and its x1-derivative infinite at 0.5:
    # the residuals are undefined at half the box, not a verdict
    force = ["-0.3*sqrt(v1^2 + v2^2)*v1",
             "-0.3*sqrt(v1^2 + v2^2)*v2 + 1e-30*sqrt(x1 - 0.5)*v2"]
    sampler = dict(BASE["sampler"], x_box=[[0, 1], [0, 1]])
    cfg = _write_config(tmp_path, dict(BASE, force=force, sampler=sampler))
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["check", "--config", cfg,
                                       "--out-dir", str(out_dir)])
    assert code == 1
    assert out == ""
    assert err.startswith("residuals undefined at ")
    assert list(out_dir.iterdir()) == []


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
    # 200 steps of 8 rows, four RHS evaluations per step; a flow call per
    # stage, and blocks of 64 steps (2048 stage points), so the
    # coefficients of 6400 points in four calls
    work = run["stats"]["work"]
    assert (work["rhs_evals"], work["row_steps"]) == (800, 1600)
    assert (work["flow_calls"], work["coefficient_calls"],
            work["coefficient_points"]) == (800, 4, 6400)
    assert work["row_steps_per_s"] > 0
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


@pytest.mark.parametrize("command", ["blowup", "shift"])
def test_non_finite_nu_is_a_config_error(tmp_path, capsys, command):
    # nu = inf at u1 = 0 used to pass the sign test and abort the run
    data = dict(BASE, **{command: dict(BASE[command], nu="1/(u1 - 0)")})
    cfg = _write_config(tmp_path, data)
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, [command, "--config", cfg,
                                   "--out-dir", str(out_dir)])
    assert code == 1
    assert out == ""
    assert "finite" in err
    assert not (out_dir / f"{command}_front.csv").exists()


def test_shift_launch_rates_undefined_off_the_grid_are_a_config_error(
        tmp_path, capsys):
    # nu is finite on the grid [1e-7, 1) but nan at u1 - 1e-6, where the
    # launch rates' central difference evaluates it
    shift = dict(BASE["shift"], surface=["u1", "0"], box=[[1e-7, 1.0]],
                 nu="1 + sqrt(u1)")
    cfg = _write_config(tmp_path, dict(BASE, shift=shift))
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, ["shift", "--config", cfg,
                                   "--out-dir", str(out_dir)])
    assert code == 1
    assert out == ""
    assert "launch rates must be finite" in err
    assert list(out_dir.iterdir()) == []


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
    # a flat chart: tau's rate is rho exactly, since every connection
    # entry is the constant 0.0, so tau is still finite at the node where
    # x, v and rho blow up
    assert doc["abort_quantities"] == ["x", "v", "rho"]
    # the work counts the steps completed before the failing one; it is
    # in the run report only
    steps = doc["abort_node"]
    assert 0 < steps < 1000
    work = run["stats"]["work"]
    assert work["rhs_evals"] == work["flow_calls"] == 4 * steps
    assert work["row_steps"] == 8 * steps
    assert work["coefficient_points"] == 4 * 8 * steps
    assert "work" not in doc


def test_shift_outputs(tmp_path, capsys):
    # nu and resolution differ, so swapping them cannot go unnoticed
    data = dict(BASE, shift=dict(BASE["shift"], nu=1.5))
    cfg = _write_config(tmp_path, data)
    out_dir = tmp_path / "out"
    code, out, _ = _run(capsys, ["shift", "--config", cfg,
                                 "--out-dir", str(out_dir)])
    assert code == 0
    run = json.loads(out)
    assert run["stats"]["max_psi"] < 1e-10
    work = run["stats"]["work"]
    assert (work["flow_calls"], work["coefficient_calls"],
            work["coefficient_points"]) == (800, 4, 6400)
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
    work = json.loads(out)["stats"]["work"]
    assert (work["rhs_evals"], work["row_steps"]) == (4000, 5000)
    # blocks of 102 steps of 5 rows: ten coefficient calls
    assert (work["flow_calls"], work["coefficient_calls"],
            work["coefficient_points"]) == (4000, 10, 20000)
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


def test_four_dimensional_drag_through_every_command(tmp_path, capsys):
    # S^4 under drag, parsed and run as a user's config: every command
    # reads the same generated g^-1 as in 2-D and 3-D, and the blow-up
    # fans out over the same hyperspherical grid, 8^3 directions
    metric = sphere(4)
    data = dict(BASE, dimension=4, metric=metric, force=drag(metric),
                integrator={"step": 0.005, "t_end": 0.5, "output_every": 10},
                sampler={"x_box": [[1.3, 1.84]] * 3 + [[0.0, 6.0]],
                         "v_min": 0.5, "v_max": 2.0, "count": 2000,
                         "seed": 0},
                blowup={"p0": [1.3, 1.2, 1.4, 0.3], "nu": 1.0,
                        "resolution": 8},
                rank={"variations": 5, "window": [0.1, 0.5],
                      "trajectories": 5},
                shift={"surface": ["1.4", "u1", "u2", "u3"],
                       "box": [[1.3, 1.8]] * 2 + [[0.0, 1.0]],
                       "resolution": 3})
    cfg = _write_config(tmp_path, data)

    def run(command):
        return _run(capsys, [command, "--config", cfg,
                             "--out-dir", str(tmp_path / command)])
    code, out, _ = run("check")
    assert code == 0
    assert json.loads(out)["verdict"] == "complete-normal"
    code, out, _ = run("rank")
    assert code == 0
    assert json.loads(out)["stats"]["max_sigma3_over_sigma1"] < 1e-6
    code, out, _ = run("shift")
    assert code == 0
    assert json.loads(out)["stats"]["max_psi"] < 1e-10
    code, out, _ = run("blowup")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert (stats["directions"], stats["nodes"]) == (512, 101)
    assert stats["max_psi"] < 1e-10
    csv_lines = (tmp_path / "blowup" / "blowup_front.csv").read_text(
    ).splitlines()
    header = csv_lines[0].split(",")
    assert "u3" in header and "tau3_4" in header
    # 0.5/0.005 = 100 steps, every 10th node plus t=0: 11 fronts of 512
    assert len(csv_lines) == 1 + 11 * 512


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
    # the velocity and its variation rate overflow while x is still finite
    assert "non-finite state (v, rho) after node" in err


@pytest.mark.parametrize("constant", ["1e308*10", "1e308*10 - 1e308*10"])
def test_force_with_a_non_finite_folded_constant_exits_checked(
        tmp_path, capsys, constant):
    # the term folds to inf (then nan) inside force[0], not at its root,
    # so the generated code must print it: the checked exits are reached
    # instead of a NameError from the compiled call
    data = json.loads((Path(__file__).resolve().parent.parent / "configs"
                       / "drag.json").read_text())
    data["force"][0] += f" + x1*({constant})"
    cfg = _write_config(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        runs = {command: _run(capsys, [command, "--config", cfg, "--out-dir",
                                       str(tmp_path / command)])
                for command in ("check", "blowup", "rank")}
    code, out, err = runs["check"]
    assert (code, out) == (1, "")
    assert err.startswith("residuals undefined at 1000 of 1000 samples")
    assert runs["blowup"][0] == 3
    doc = json.loads((tmp_path / "blowup" / "blowup_orthogonality.json")
                     .read_text())
    assert doc["abort_node"] == 0
    code, _, err = runs["rank"]
    assert code == 3
    assert "after node 0" in err


def test_seed_override_changes_samples(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASE)
    _, out_a, _ = _run(capsys, ["check", "--config", cfg,
                                "--out-dir", str(tmp_path / "a")])
    _, out_b, _ = _run(capsys, ["check", "--config", cfg,
                                "--out-dir", str(tmp_path / "b"),
                                "--seed", "99"])
    assert json.loads(out_a)["config"]["sampler"]["seed"] == 0
    assert json.loads(out_b)["config"]["sampler"]["seed"] == 99


def test_parser_is_built_once_and_keeps_no_option(tmp_path, capsys):
    # the second call parses with the parser the first built, and still
    # echoes the config's own seed, not the first call's --seed
    cfg = _write_config(tmp_path, dict(BASE, sampler=dict(BASE["sampler"],
                                                          seed=7)))
    parser = build_parser()
    _, out_a, _ = _run(capsys, ["check", "--config", cfg,
                                "--out-dir", str(tmp_path / "a"),
                                "--seed", "3"])
    _, out_b, _ = _run(capsys, ["check", "--config", cfg,
                                "--out-dir", str(tmp_path / "b")])
    assert build_parser() is parser
    assert json.loads(out_a)["config"]["sampler"]["seed"] == 3
    assert json.loads(out_b)["config"]["sampler"]["seed"] == 7


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


def test_cli_import_leaves_the_selftest_modules_out():
    # selfcheck and its systems catalogue load with the selftest command
    # only, and the CSV writer's fmt17 kernel with the first front written
    # (a command without a front never compiles it or builds its tables);
    # normality and deviation load with the CLI, so a profiler can patch
    # their functions through sys.modules right after the import.
    src = Path(frontshift.__file__).resolve().parent.parent
    script = "import sys, frontshift.cli\nprint(*sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], cwd=src,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    loaded = set(done.stdout.split())
    assert "frontshift.cli" in loaded
    assert "frontshift.selfcheck" not in loaded
    assert "frontshift.systems" not in loaded
    assert "frontshift.fmt17" not in loaded
    assert {"frontshift.normality", "frontshift.deviation"} <= loaded


def test_commands_leave_numpy_random_out(tmp_path):
    # rank draws its initial variations from the standard library's
    # generator; numpy.random, with hashlib and secrets behind it, loads
    # with the selftest's samplers only
    data = dict(BASE, force=["-0.3*v1", "-0.3*v2"],
                integrator={"step": 0.01, "t_end": 1.0, "output_every": 20})
    cfg = _write_config(tmp_path, data)
    src = Path(frontshift.__file__).resolve().parent.parent
    script = ("import sys\nfrom frontshift.cli import main\n"
              "codes = [main([c, '--config', sys.argv[1], '--out-dir', "
              "sys.argv[2]]) for c in ('check', 'rank', 'blowup', 'shift')]\n"
              "print(codes, 'numpy.random' in sys.modules, file=sys.stderr)")
    done = subprocess.run(
        [sys.executable, "-c", script, cfg, str(tmp_path / "out")], cwd=src,
        capture_output=True, text=True, check=True, timeout=120)
    assert done.stderr.splitlines()[-1] == "[0, 0, 0, 0] False"


def test_rank_draws_tau_then_rho_from_random(tmp_path, capsys, monkeypatch):
    # 2 rand - 1 per component, tau0 first, then rho0, row-major over
    # (trajectory, variation, coordinate), from random.Random(seed)
    data = dict(BASE, integrator={"step": 0.01, "t_end": 1.0,
                                  "output_every": 20},
                sampler=dict(BASE["sampler"], seed=7))
    cfg = load_config(_write_config(tmp_path, data))
    seen = []
    real = cli_module.integrate_batch

    def spy(man, force, xs, vs, tau0, rho0, *args):
        seen.append((tau0.copy(), rho0.copy()))
        return real(man, force, xs, vs, tau0, rho0, *args)
    monkeypatch.setattr(cli_module, "integrate_batch", spy)
    assert cmd_rank(cfg, tmp_path, 0.0) == 0
    (tau0, rho0), = seen
    shape = (cfg.rank.trajectories, cfg.rank.variations, 2)
    assert tau0.shape == rho0.shape == shape
    rng = random.Random(7)
    draws = [2.0 * rng.random() - 1.0 for _ in range(2 * tau0.size)]
    assert tau0.ravel().tolist() == draws[:tau0.size]
    assert rho0.ravel().tolist() == draws[tau0.size:]
    assert (tau0[0, 0, 0], rho0[0, 0, 0]) == (-0.35233447033367526,
                                              0.9603496949851642)


def _s3_drag_config(tmp_path):
    metric, force, box = CHARTS["S3"]
    data = {"dimension": 3, "metric": metric, "force": force,
            "integrator": {"step": 0.01, "t_end": 0.2, "output_every": 5},
            "sampler": {"x_box": box, "count": 300, "seed": 2},
            "rank": {"variations": 4, "window": [0.0, 0.2],
                     "trajectories": 2},
            "blowup": {"p0": [1.2, 1.0, 0.5], "nu": 1.0, "resolution": 8},
            "shift": {"surface": ["1.2 + 0.2*u1", "1.0 + 0.2*u2", "0.5"],
                      "box": [[0.0, 1.0], [0.0, 1.0]], "nu": "1 + 0.1*u1",
                      "resolution": 4}}
    return _write_config(tmp_path, data)


def _spy_on_symbolic_work(monkeypatch):
    """Counts of differentiate calls, and the compile_fn calls listed by
    the name of the function that made them (``_flow_fn``, ...)."""
    seen = {"differentiate": 0, "compiled_by": []}
    compile_fn, differentiate = exprlang.compile_fn, exprlang.differentiate

    def counted_compile(*args, **kwargs):
        seen["compiled_by"].append(sys._getframe(1).f_code.co_name)
        return compile_fn(*args, **kwargs)

    def counted_differentiate(*args, **kwargs):
        seen["differentiate"] += 1
        return differentiate(*args, **kwargs)
    monkeypatch.setattr(exprlang, "compile_fn", counted_compile)
    monkeypatch.setattr(exprlang, "differentiate", counted_differentiate)
    return seen


def test_load_config_does_no_symbolic_work(tmp_path, monkeypatch):
    path = _s3_drag_config(tmp_path)
    seen = _spy_on_symbolic_work(monkeypatch)
    load_config(path)
    assert seen == {"differentiate": 0, "compiled_by": []}


def test_check_compiles_no_second_partials_and_no_jet(tmp_path, capsys,
                                                      monkeypatch):
    cfg = load_config(_s3_drag_config(tmp_path))
    seen = _spy_on_symbolic_work(monkeypatch)
    assert cmd_check(cfg, tmp_path, 0.0) == 0
    capsys.readouterr()
    # the metric for the sampler's g-speeds, then the first-order jet for
    # every residual block; neither stage call is compiled, and S never
    assert sorted(seen["compiled_by"]) == ["_first_order_fn", "_g_fn"]
    # the metric's first partials (3 x 6) and the force's (2 x 3 x 3) once
    assert seen["differentiate"] == 18 + 18


def test_rank_compiles_the_jet_once(tmp_path, capsys, monkeypatch):
    cfg = load_config(_s3_drag_config(tmp_path))
    seen = _spy_on_symbolic_work(monkeypatch)
    assert cmd_rank(cfg, tmp_path, 0.0) == 0
    capsys.readouterr()
    # the metric for the sampler, then the flow call for every stage and
    # the variation call for every block of stages: no _f_fn, and no
    # _ddg_fn
    assert sorted(seen["compiled_by"]) == ["_flow_fn", "_g_fn",
                                           "_variation_fn"]
    # first partials, the force's, and the 36 second-partial slots
    assert seen["differentiate"] == 18 + 18 + 6 * 6


def test_blowup_compiles_the_jet_once(tmp_path, capsys, monkeypatch):
    cfg = load_config(_s3_drag_config(tmp_path))
    seen = _spy_on_symbolic_work(monkeypatch)
    assert cmd_blowup(cfg, tmp_path, 0.0) == 0
    capsys.readouterr()
    assert sorted(seen["compiled_by"]) == ["_flow_fn", "_g_fn",
                                           "_variation_fn"]


def test_shift_compiles_the_blowup_callables(tmp_path, capsys, monkeypatch):
    # past nu and the surface map a shift compiles what a blow-up does,
    # and the first-order jet, whose gam_v is the launch connection term
    cfg = load_config(_s3_drag_config(tmp_path))
    seen = _spy_on_symbolic_work(monkeypatch)
    assert cmd_shift(cfg, tmp_path, 0.0) == 0
    capsys.readouterr()
    assert sorted(seen["compiled_by"]) == ["_first_order_fn", "_flow_fn",
                                           "_g_fn", "_nu_function",
                                           "_surface_map", "_variation_fn"]
    # the blow-up's 18 + 18 + 36, nu's u-gradient (2) and the surface
    # tangents (3 x 2)
    assert seen["differentiate"] == 18 + 18 + 6 * 6 + 2 + 6

"""CLI surface: subcommands, exit codes, determinism, config handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finslerflow.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zoo_list(capsys):
    code, out, _ = run_cli(capsys, "zoo")
    assert code == 0
    assert "funk-disk" in out and "randers-torus" in out


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", "--metric", "euclidean")
    assert code == 0
    assert "PASS" in out


def test_validate_unknown_metric(capsys):
    code, _, err = run_cli(capsys, "validate", "--metric", "nope")
    assert code == 2
    assert json.loads(err.strip())["code"] == 2


def test_validate_bad_params(capsys):
    code, _, err = run_cli(
        capsys, "validate", "--metric", "randers-torus", "--metric-params", '{"b": 1.2}'
    )
    assert code == 2
    assert "strong convexity" in json.loads(err.strip())["error"]


def test_report_funk(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--metric", "funk-disk", "--x", "0.2,0.1", "--theta", "0.7"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["H_uu"] == pytest.approx(-0.25, abs=1e-6)
    assert rec["gem_residual"] <= 1e-5
    assert rec["F"] > 0


def test_functional_flat(capsys, tmp_path):
    out_dir = str(tmp_path / "fn")
    code, out, _ = run_cli(
        capsys, "functional", "--metric", "euclidean", "--grid", "16,16,32",
        "--out", out_dir,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["I"] == pytest.approx(0.0, abs=1e-12)
    assert rec["V"] == pytest.approx((2 * np.pi) ** 3, rel=1e-10)
    assert os.path.exists(os.path.join(out_dir, "manifest.json"))
    assert os.path.exists(os.path.join(out_dir, "functional.json"))


def test_flow_invalid_grid_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "flow", "--metric", "euclidean", "--grid", "0,64,64", "--steps", "3"
    )
    assert code == 2
    assert json.loads(err.strip())["code"] == 2


def test_flow_csv_rows_and_checkpoint(capsys, tmp_path):
    out_dir = str(tmp_path / "run")
    code, _, _ = run_cli(
        capsys, "flow", "--metric", "conformal-torus", "--grid", "16,16,32",
        "--steps", "5", "--normalized", "--out", out_dir, "--fiber-cut", "4",
    )
    assert code == 0
    csv = Path(out_dir, "diagnostics.csv").read_text().splitlines()
    assert csv[0] == "step,time,V,I,I_norm,c,min_eig_g,max_abs_Huu,gem_residual"
    assert len(csv) == 1 + 5 + 1  # header + steps + initial row
    assert os.path.exists(os.path.join(out_dir, "checkpoint_final.json"))
    assert os.path.exists(os.path.join(out_dir, "manifest.json"))
    man = json.loads(Path(out_dir, "manifest.json").read_text())
    assert man["command"] == "flow"
    assert "tolerances" in man and "versions" in man


def test_flow_failure_names_its_cause(capsys, tmp_path):
    out_dir = str(tmp_path / "run")
    code, _, err = run_cli(
        capsys, "flow", "--metric", "conformal-torus", "--grid", "16,16,32",
        "--steps", "2", "--dt", "1e6", "--out", out_dir,
    )
    assert code == 1
    rec = json.loads(err.strip())
    assert rec["code"] == 1
    assert "step 1: step rejected 6 times" in rec["error"]
    assert "GridError: F^2 must be finite and positive" in rec["error"]


def test_flow_failure_record_carries_detail(capsys, tmp_path):
    out_dir = str(tmp_path / "run")
    code, _, err = run_cli(
        capsys, "flow", "--metric", "conformal-torus", "--grid", "16,16,32",
        "--steps", "2", "--dt", "1e6", "--out", out_dir,
    )
    assert code == 1
    rec = json.loads(err.strip())
    assert rec["detail"] == {"step": 1, "t": 0.0, "error": "GridError"}
    # the CSV still holds the initial row
    assert len(Path(out_dir, "diagnostics.csv").read_text().splitlines()) == 2


def test_flow_determinism_byte_identical(capsys, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out_dir = str(tmp_path / tag)
        code, _, _ = run_cli(
            capsys, "flow", "--metric", "randers-torus", "--grid", "16,16,32",
            "--steps", "4", "--out", out_dir, "--fiber-cut", "6",
        )
        assert code == 0
        outs.append(Path(out_dir, "diagnostics.csv").read_bytes())
    assert outs[0] == outs[1]


def _can_pin_one_cpu():
    return hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) > 1


@pytest.mark.skipif(not _can_pin_one_cpu(), reason="needs CPU affinity and two CPUs")
@pytest.mark.parametrize("grid", ["24,24,32", "40,32,32"])
def test_flow_one_cpu_byte_identical(tmp_path, grid):
    """C11's flow pinned to one CPU (slabs run inline) writes the bytes of an unpinned run.

    24^2 x 32 is C11's grid, one slab; 40 x 32 x 32 runs slabs of 32 and 8
    rows, on the worker pool when it is not pinned.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    cpu = min(os.sched_getaffinity(0))
    outs = {}
    for tag, pin in (("pinned", lambda: os.sched_setaffinity(0, {cpu})), ("free", None)):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "finslerflow", "flow", "--metric", "conformal-torus",
             "--grid", grid, "--steps", "6", "--normalized", "--fiber-cut", "4",
             "--out", str(out)],
            env=env, preexec_fn=pin, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs[tag] = [(out / f).read_bytes() for f in ("diagnostics.csv", "checkpoint_final.json")]
    assert outs["pinned"] == outs["free"]


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": "euclidean", "samples": 16}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "validate")
    assert code == 0
    # flag overrides the config value
    code, out, _ = run_cli(
        capsys, "--config", str(cfg), "validate", "--metric", "aniso-quadratic"
    )
    assert code == 0


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": "euclidean", "frobnicate": 1}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "validate")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("report", "--metric", "funk-disk", "--x", "0.2,0.1", "--theta", "0.7"),
    ("validate", "--metric", "euclidean"),
])
def test_base_mode_only_on_grid_commands(capsys, argv):
    # report and validate accepted --base-mode and ignored it
    code, out, err = run_cli(capsys, *argv, "--base-mode", "spectral")
    assert code == 2 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["code"] == 2


def test_config_base_mode_accepted_by_report(capsys, tmp_path):
    # config keys are checked against the flags of every subcommand
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": "funk-disk", "base_mode": "spectral"}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "report", "--x", "0.2,0.1",
                           "--theta", "0.7")
    assert code == 0 and json.loads(out)["metric"] == "funk-disk"


def test_config_key_reaches_only_declaring_subcommands(capsys, tmp_path):
    # every key was set on every subcommand, so report's manifest held base_mode and grid
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": "funk-disk", "base_mode": "spectral", "grid": "8,8,16"}))
    out_dir = tmp_path / "rep"
    code, _, _ = run_cli(capsys, "--config", str(cfg), "report", "--x", "0.2,0.1",
                         "--theta", "0.7", "--out", str(out_dir))
    assert code == 0
    config = json.loads((out_dir / "manifest.json").read_text())["config"]
    assert config["metric"] == "funk-disk"
    assert "base_mode" not in config and "grid" not in config


def test_verify_identities_small(capsys, tmp_path):
    out_dir = str(tmp_path / "ids")
    code, out, _ = run_cli(
        capsys, "verify-identities", "--metric", "euclidean", "--grid", "24,24,32",
        "--base-mode", "spectral", "--out", out_dir,
    )
    assert code == 0
    rec = json.loads(out)
    assert all(v <= 1e-2 for v in rec.values())
    assert os.path.exists(os.path.join(out_dir, "identities.json"))


def test_missing_subcommand_exit_2(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def json_lines(err):
    return [json.loads(line) for line in err.strip().splitlines()]


def test_flow_negative_fiber_cut_exit_2(capsys, tmp_path):
    # a negative cut would zero every fiber mode of the state
    code, _, err = run_cli(
        capsys, "flow", "--metric", "conformal-torus", "--grid", "16,16,16",
        "--steps", "1", "--fiber-cut", "-1", "--out", str(tmp_path / "run"),
    )
    assert code == 2
    (rec,) = json_lines(err)
    assert rec["code"] == 2 and "fiber_cut" in rec["error"]


@pytest.mark.parametrize("flag, value", [
    ("--gem-stride", "0"),
    ("--gem-stride", "-8"),
    ("--checkpoint-every", "-1"),
    ("--checkpoint-every", "0"),
    ("--steps", "0"),
    ("--dt", "-1"),
    ("--safety", "0"),
    ("--dt", "inf"),
    ("--safety", "inf"),
])
def test_flow_bad_option_exit_2_writes_nothing(capsys, tmp_path, flag, value):
    # a negative gem stride would sample other nodes, and 0 is no slice step;
    # Python's % takes a checkpoint period of -1 like 1, and 0 turned periodic
    # checkpoints off; the others failed only after manifest.json was written
    out_dir = tmp_path / "run"
    argv = ["flow", "--metric", "conformal-torus", "--grid", "8,8,16", "--steps", "1",
            "--out", str(out_dir), flag, value]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    (rec,) = json_lines(err)
    assert rec["code"] == 2 and rec["error"].startswith(flag + " ")
    assert not out_dir.exists()


def test_flow_non_finite_F_exit_2_writes_nothing(capsys, tmp_path):
    # exited 1 after writing a manifest, a header-only CSV and a final
    # checkpoint that read_checkpoint refuses
    out_dir = tmp_path / "run"
    code, out, err = run_cli(
        capsys, "flow", "--metric", "conformal-torus", "--metric-params", '{"amp": 800}',
        "--grid", "8,8,16", "--steps", "1", "--out", str(out_dir),
    )
    assert code == 2 and out == ""
    (rec,) = json_lines(err)
    assert rec["error"] == "conformal-torus: F must be finite and positive on the grid"
    assert not out_dir.exists()


@pytest.mark.parametrize("metric, x", [
    ("funk-disk", "1.5,0"), ("funk-disk", "0.6,-0.8"), ("sphere-patch", "5,0"),
])
def test_report_x_outside_chart_exit_2(capsys, tmp_path, metric, x):
    # funk-disk at (1.5, 0) exited 1 as a singular metric; sphere-patch (|x| < 3)
    # at (5, 0) exited 0; the disk boundary |x| = 1 is outside too
    out_dir = tmp_path / "rep"
    code, out, err = run_cli(
        capsys, "report", "--metric", metric, "--x", x, "--theta", "0.7",
        "--out", str(out_dir),
    )
    assert code == 2 and out == ""
    (rec,) = json_lines(err)
    assert rec["code"] == 2 and "--x" in rec["error"]
    assert not out_dir.exists()


@pytest.mark.parametrize("n_theta", ["0", "-3"])
def test_report_n_theta_below_one_exit_2(capsys, tmp_path, n_theta):
    # 0 divided by zero and -3 failed in numpy; both are usage errors
    out_dir = tmp_path / "rep"
    code, out, err = run_cli(
        capsys, "report", "--metric", "funk-disk", "--x", "0.2,0.1", "--theta", "0.7",
        "--n-theta", n_theta, "--out", str(out_dir),
    )
    assert code == 2 and out == ""
    (rec,) = json_lines(err)
    assert rec["code"] == 2 and "--n-theta" in rec["error"]
    assert not out_dir.exists()


def test_config_without_path_exit_2(capsys):
    code, _, err = run_cli(capsys, "zoo", "--config")
    assert code == 2
    (rec,) = json_lines(err)
    assert rec["code"] == 2 and "--config" in rec["error"]


def test_validate_failure_error_record(capsys):
    # g = identity has min eigenvalue 1, below the demanded margin
    code, out, err = run_cli(
        capsys, "validate", "--metric", "euclidean", "--tol-positivity", "2"
    )
    assert code == 1
    assert "FAIL  g positive definite" in out
    (rec,) = json_lines(err)
    assert rec["code"] == 1
    assert rec["detail"] == {"g positive definite": pytest.approx(1.0)}


def test_verify_identities_failure_error_record(capsys):
    # the conformal-path dI/dt closed form does not hold on a Randers torus
    # (see test_conformal_dI_general_direction_documented)
    code, out, err = run_cli(
        capsys, "verify-identities", "--metric", "randers-torus", "--grid", "16,16,32",
    )
    assert code == 1
    (rec,) = json_lines(err)
    assert rec["code"] == 1
    assert list(rec["detail"]) == ["conformal-path: conformal dI/dt"]
    assert rec["detail"]["conformal-path: conformal dI/dt"] > 1e-2
    assert json.loads(out)["conformal-path: conformal dI/dt"] > 1e-2


@pytest.mark.parametrize("argv, flag", [
    (("functional", "--metric", "conformal-torus", "--grid", "16,16,16", "--c", "nan"), "--c"),
    (("functional", "--metric", "conformal-torus", "--grid", "16,16,16", "--c=-inf"), "--c"),
    (("report", "--metric", "funk-disk", "--x", "0.2,0.1", "--theta", "0.7", "--c", "inf"),
     "--c"),
    (("report", "--metric", "funk-disk", "--x", "0.2,0.1", "--theta", "nan"), "--theta"),
    (("report", "--metric", "randers-torus", "--x", "nan,0.1", "--theta", "0.7"), "--x"),
    (("verify-identities", "--metric", "euclidean", "--grid", "16,16,16", "--t-step", "0"),
     "--t-step"),
    (("verify-identities", "--metric", "euclidean", "--grid", "16,16,16", "--t-step", "nan"),
     "--t-step"),
    (("validate", "--metric", "funk-disk", "--tol", "nan"), "--tol"),
    (("validate", "--metric", "funk-disk", "--tol=-1e-8"), "--tol"),
    (("validate", "--metric", "funk-disk", "--tol-positivity", "inf"), "--tol-positivity"),
])
def test_non_finite_float_exit_2_writes_nothing(capsys, tmp_path, argv, flag):
    # functional printed "I": NaN (not JSON) and report "H_hat": Infinity; report
    # --theta nan exited 1 as a singular metric, --t-step 0 as a division by
    # zero, and --tol nan failed every validity check
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
    assert code == 2 and out == ""
    (rec,) = json_lines(err)
    assert rec["code"] == 2 and rec["error"].startswith(flag + " ")
    assert not out_dir.exists()


@pytest.mark.parametrize("config", [{"safety": None}, {"gem_stride": None}])
def test_config_null_for_option_with_default_exit_2(capsys, tmp_path, config):
    # both ended in a TypeError traceback; null still unsets --dt and the like
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": "conformal-torus", **config}))
    out_dir = tmp_path / "run"
    argv = ["--config", str(cfg), "flow", "--grid", "8,8,16", "--steps", "1"]
    code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
    assert code == 2 and out == ""
    (rec,) = json_lines(err)
    assert rec["code"] == 2 and repr(next(iter(config))) in rec["error"]
    assert not out_dir.exists()
    cfg.write_text(json.dumps({"metric": "conformal-torus", "dt": None,
                               "checkpoint_every": None, "fiber_cut": None}))
    code, _, _ = run_cli(capsys, *argv, "--out", str(out_dir))
    assert code == 0 and (out_dir / "diagnostics.csv").exists()

"""CLI surface: subcommands, exit codes, determinism, config handling."""

import json
import os
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


@pytest.mark.parametrize("stride", ["0", "-8"])
def test_flow_gem_stride_below_one_exit_2(capsys, tmp_path, stride):
    # a negative stride would sample other nodes, and 0 is no slice step
    out_dir = tmp_path / "run"
    code, _, err = run_cli(
        capsys, "flow", "--metric", "conformal-torus", "--grid", "8,8,16",
        "--steps", "1", "--gem-stride", stride, "--out", str(out_dir),
    )
    assert code == 2
    (rec,) = json_lines(err)
    assert rec["code"] == 2 and "--gem-stride" in rec["error"]
    assert not (out_dir / "diagnostics.csv").exists()
    assert not (out_dir / "manifest.json").exists()


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

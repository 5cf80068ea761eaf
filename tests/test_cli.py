import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd=None):
    """Run the checkout's CLI in a subprocess, with its src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, env.get("PYTHONPATH")) if part)
    return subprocess.run(
        [sys.executable, "-m", "l20factor.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def gen_args(out_dir):
    return ("gen", "--m", "12", "--n", "10", "--r", "2", "--kappa", "2",
            "--operator", "full", "--sample-ratio", "1.0", "--seed", "0",
            "--out-dir", out_dir)


def test_gen_solve_diagnose_pipeline(tmp_path):
    inst = str(tmp_path / "inst")
    sol = str(tmp_path / "sol")

    gen = run_cli(*gen_args(inst))
    assert gen.returncode == 0, gen.stderr
    assert "instance written" in gen.stdout
    assert "p=120" in gen.stdout
    for name in ("meta.json", "M.npy", "b.npy"):
        assert os.path.exists(os.path.join(inst, name))

    solve = run_cli("solve", "--instance", inst, "--out-dir", sol,
                    "--lambda-rule", "1e-6 * specnorm(X0)",
                    "--max-iters", "500")
    assert solve.returncode == 0, solve.stderr
    assert "reason=converged" in solve.stdout
    assert "nnz=(2,2)" in solve.stdout
    for name in ("solution.npz", "trace.csv", "summary.json"):
        assert os.path.exists(os.path.join(sol, name))

    diag = run_cli("diagnose", "--instance", inst, "--solution", sol)
    assert diag.returncode == 0, diag.stderr
    assert "passed=True" in diag.stdout
    assert os.path.exists(os.path.join(sol, "diagnosis.json"))


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "m = 12\nn = 10\nr = 2\nkappa = 2\n"
        "operator_kind = full\nsample_ratio = 1.0\nseed = 3\n"
    )
    out = str(tmp_path / "inst")
    gen = run_cli("gen", "--config", str(cfg), "--m", "14", "--out-dir", out)
    assert gen.returncode == 0, gen.stderr
    with open(os.path.join(out, "meta.json")) as fh:
        meta = json.load(fh)
    assert meta["m"] == 14
    assert meta["n"] == 10
    assert meta["seed"] == 3


def test_experiment_fig1(tmp_path):
    out = str(tmp_path / "fig1")
    res = run_cli("experiment", "fig1", "--m", "30", "--n", "30", "--r", "3",
                  "--kappa", "3", "--operator", "full", "--sample-ratio", "1.0",
                  "--lambda-rule", "1e-8 * specnorm(X0)", "--max-iters", "300",
                  "--out-dir", out)
    assert res.returncode == 0, res.stderr
    assert "fig1: reason=converged" in res.stdout
    assert os.path.exists(os.path.join(out, "summary.json"))


def test_experiment_fig2_defaults_to_dc(tmp_path):
    out = str(tmp_path / "fig2")
    res = run_cli("experiment", "fig2", "--m", "12", "--n", "10", "--r", "1",
                  "--kappa", "2", "--operator", "full", "--sample-ratio", "1.0",
                  "--max-iters", "2000", "--seed", "0", "--out-dir", out)
    assert res.returncode == 0, res.stderr
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["model"] == "dc"
    assert summary["reason"] == "converged"
    assert summary["rel_error"] <= 1e-8
    assert (summary["nnz_u"], summary["nnz_v"]) == (1, 1)


def test_fig1_requires_hard_model(tmp_path):
    res = run_cli("experiment", "fig1", "--m", "12", "--n", "10", "--r", "1",
                  "--kappa", "2", "--model", "dc", "--out-dir", str(tmp_path / "f"))
    assert res.returncode == 2
    assert res.stderr.startswith("error(config): fig1 requires model=l20")


def test_fig2_requires_dc_model(tmp_path):
    res = run_cli("experiment", "fig2", "--m", "12", "--n", "10", "--r", "1",
                  "--kappa", "2", "--model", "l20", "--out-dir", str(tmp_path / "f"))
    assert res.returncode == 2
    assert res.stderr.startswith("error(config): fig2 requires model=dc")


def test_experiment_fig3_writes_sweep(tmp_path):
    out = str(tmp_path / "fig3")
    res = run_cli("experiment", "fig3", "--m", "12", "--n", "10", "--r", "2",
                  "--kappa", "2", "--operator", "full", "--sample-ratio", "1.0",
                  "--max-iters", "200", "--c-values", "1e-6,28",
                  "--out-dir", out)
    assert res.returncode == 0, res.stderr
    assert "sweep finished:" in res.stdout
    with open(os.path.join(out, "sweep.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].startswith("c,lambda,rho,")
    assert len(lines) == 3


def test_bad_shape_config_exits_2(tmp_path):
    res = run_cli("gen", "--m", "3", "--n", "3", "--r", "5", "--kappa", "5",
                  "--out-dir", str(tmp_path / "g"))
    assert res.returncode == 2
    assert res.stderr.startswith("error(config):")


def test_oversized_gaussian_exits_2(tmp_path):
    res = run_cli("gen", "--operator", "gaussian", "--out-dir", str(tmp_path / "g"))
    assert res.returncode == 2
    assert res.stderr.startswith("error(config):")
    assert "over the 2 GiB limit" in res.stderr
    assert not (tmp_path / "g").exists()

    inst = str(tmp_path / "inst")
    assert run_cli(*gen_args(inst)[:-2], "--operator", "gaussian",
                   "--sample-ratio", "0.5", "--out-dir", inst).returncode == 0
    meta_path = os.path.join(inst, "meta.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    meta["p"] = 10**9
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    for cmd in (("solve", "--instance", inst, "--out-dir", str(tmp_path / "s")),
                ("diagnose", "--instance", inst, "--solution", str(tmp_path / "s"))):
        res = run_cli(*cmd)
        assert res.returncode == 2, res.stderr
        assert "error(config): gaussian operator needs" in res.stderr


def test_bad_rule_exits_2(tmp_path):
    inst = str(tmp_path / "inst")
    assert run_cli(*gen_args(inst)).returncode == 0
    res = run_cli("solve", "--instance", inst, "--out-dir",
                  str(tmp_path / "s"), "--lambda-rule", "frotz(X0)")
    assert res.returncode == 2
    assert "error(config):" in res.stderr
    assert "unsupported syntax" in res.stderr


def test_bad_c_values_exit_2(tmp_path):
    res = run_cli("experiment", "fig3", "--m", "12", "--n", "10", "--r", "2",
                  "--kappa", "2", "--operator", "full", "--sample-ratio", "1.0",
                  "--c-values", "1,zebra", "--out-dir", str(tmp_path / "f"))
    assert res.returncode == 2
    assert "bad --c-values" in res.stderr


def test_missing_instance_exits_4(tmp_path):
    res = run_cli("solve", "--instance", str(tmp_path / "nope"),
                  "--out-dir", str(tmp_path / "s"))
    assert res.returncode == 4
    assert res.stderr.startswith("error(io):")


def test_unknown_operator_choice_rejected(tmp_path):
    res = run_cli("gen", "--operator", "bogus",
                  "--out-dir", str(tmp_path / "g"))
    assert res.returncode == 2

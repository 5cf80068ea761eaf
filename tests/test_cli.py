import argparse
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from l20factor import harness
from l20factor.cli import build_parser, main
from l20factor.harness import INSTANCE_FIELDS

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


def test_diagnose_at_lambda_zero_skips_growth_theory(tmp_path):
    """lambda = 0 is a valid solve, but nu = 1/lambda is undefined, so the
    moduli, threshold and probe are skipped, not a crash."""
    inst = str(tmp_path / "inst")
    sol = str(tmp_path / "sol")
    gen = run_cli("gen", "--m", "12", "--n", "10", "--r", "2", "--kappa", "3",
                  "--sample-ratio", "0.6", "--out-dir", inst)
    assert gen.returncode == 0, gen.stderr
    solve = run_cli("solve", "--instance", inst, "--out-dir", sol,
                    "--lambda-rule", "0")
    assert solve.returncode == 0, solve.stderr
    diag = run_cli("diagnose", "--instance", inst, "--solution", sol)
    assert diag.returncode == 0, diag.stderr
    with open(os.path.join(sol, "diagnosis.json")) as fh:
        report = json.load(fh)
    assert {"certificate", "spectrum", "restricted_eigs"} <= set(report)
    for key in ("moduli", "threshold", "probe"):
        assert report[key] == {"status": "skipped",
                               "message": "nu = 1/lambda is undefined at lambda = 0"}


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
    """Asking for model=l20 fails whether a flag or the config file asks."""
    res = run_cli("experiment", "fig2", "--m", "12", "--n", "10", "--r", "1",
                  "--kappa", "2", "--model", "l20", "--out-dir", str(tmp_path / "f"))
    assert res.returncode == 2
    assert res.stderr.startswith("error(config): fig2 requires model=dc")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = l20\n")
    res = run_cli("experiment", "fig2", "--config", str(cfg), "--m", "12", "--n", "10",
                  "--r", "1", "--kappa", "2", "--out-dir", str(tmp_path / "g"))
    assert res.returncode == 2
    assert res.stderr.startswith("error(config): fig2 requires model=dc")
    assert not (tmp_path / "g").exists()


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
    res = run_cli("gen", "--m", "1.5", "--out-dir", str(tmp_path / "g"))
    assert res.returncode == 2
    assert res.stderr.startswith("error(config): m must be an integer")
    assert not (tmp_path / "g").exists()


def test_non_finite_epsilon_and_negative_seed_exit_2(tmp_path):
    """``solve --epsilon inf`` would stop at once as converged, and
    ``gen --seed -1`` would fail inside numpy's generator; both are config
    errors (exit 2) that name the field, and neither writes its directory."""
    inst = str(tmp_path / "inst")
    assert run_cli("gen", "--m", "20", "--n", "20", "--r", "2", "--kappa", "2",
                   "--out-dir", inst).returncode == 0
    res = run_cli("solve", "--instance", inst, "--epsilon", "inf",
                  "--out-dir", str(tmp_path / "sol"))
    assert res.returncode == 2
    assert res.stderr.startswith("error(config): epsilon must be finite and positive")
    res = run_cli("gen", "--seed", "-1", "--out-dir", str(tmp_path / "g"))
    assert res.returncode == 2
    assert res.stderr.startswith("error(config): seed must be nonnegative")
    assert not (tmp_path / "sol").exists() and not (tmp_path / "g").exists()


def test_gen_takes_instance_fields_only(tmp_path, capsys):
    """meta.json keeps the instance fields only, so gen offers no other:
    a solver flag, or a solver key in its config file, exits 2 and writes
    nothing."""
    out = tmp_path / "g"
    with pytest.raises(SystemExit) as exit_info:
        main(["gen", "--m", "12", "--model", "dc", "--out-dir", str(out)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --model dc" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = dc\nm = 12\n")
    assert main(["gen", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error(config): {cfg}:1: unknown key 'model'\n"
    assert not out.exists()


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


def test_oversized_mask_exits_2(tmp_path):
    """A mask configuration over the memory limit is a config error (exit
    2) before anything is generated or written; a stored instance edited to
    that size is one before solve or diagnose reads an array."""
    res = run_cli("gen", "--m", "200000", "--n", "200000", "--out-dir",
                  str(tmp_path / "g"))
    assert res.returncode == 2
    assert res.stderr.startswith("error(config): mask operator needs")
    assert "over the 2 GiB limit" in res.stderr
    assert not (tmp_path / "g").exists()

    inst = str(tmp_path / "inst")
    assert run_cli(*gen_args(inst)[:-2], "--operator", "mask",
                   "--sample-ratio", "0.5", "--out-dir", inst).returncode == 0
    meta_path = os.path.join(inst, "meta.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    meta.update(m=200000, n=200000, p=10**10)
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    for cmd in (("solve", "--instance", inst, "--out-dir", str(tmp_path / "s")),
                ("diagnose", "--instance", inst, "--solution", str(tmp_path / "s"))):
        res = run_cli(*cmd)
        assert res.returncode == 2, res.stderr
        assert "error(config): mask operator needs" in res.stderr


def test_bad_rule_exits_2(tmp_path):
    """A rule outside the grammar, one whose value is complex, or a dc rho
    rule that is not positive is a config error (exit 2) and not a
    traceback."""
    inst = str(tmp_path / "inst")
    assert run_cli(*gen_args(inst)).returncode == 0
    for flags, message in ((("--lambda-rule", "frotz(X0)"), "unsupported syntax"),
                           (("--lambda-rule", "(-1)^0.5"), "non-real value"),
                           (("--model", "dc", "--rho-rule", "0 * specnorm(X0)"),
                            "evaluated to 0.0 <= 0")):
        res = run_cli("solve", "--instance", inst, "--out-dir",
                      str(tmp_path / "s"), *flags)
        assert res.returncode == 2
        assert "error(config):" in res.stderr
        assert message in res.stderr


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


def test_config_flags_cover_every_field():
    """Each ExperimentConfig field is the dest of a flag on experiment; gen
    has the instance fields, and solve, which reads those from the instance,
    has the others."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    fields = {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    dests = {name: {a.dest for a in sub.choices[name]._actions} & fields
             for name in ("gen", "solve", "experiment")}
    assert dests == {"gen": set(INSTANCE_FIELDS), "solve": fields - set(INSTANCE_FIELDS),
                     "experiment": fields}


def test_diagnose_takes_no_sampling_flags(capsys):
    """diagnose's sample counts and seed are fixed, so its output is too: it
    has the instance, solution and output flags only."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {flag for a in sub.choices["diagnose"]._actions for flag in a.option_strings}
    assert flags == {"-h", "--help", "--instance", "--solution", "--out-dir"}
    with pytest.raises(SystemExit) as exit_info:
        main(["diagnose", "--instance", "i", "--solution", "s", "--probe-samples", "5"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --probe-samples" in capsys.readouterr().err


@pytest.fixture(scope="module")
def stored_runs(tmp_path_factory):
    """A 20x20 mask instance with a short solve, and a Gaussian instance."""
    root = tmp_path_factory.mktemp("stored")
    cfg = harness.ExperimentConfig(m=20, n=20, r=2, kappa=3, sample_ratio=0.5,
                                   max_iters=20, seed=1)
    M, op, b = harness.gen_instance(cfg)
    harness.save_instance(str(root / "mask"), cfg, M, op, b)
    harness.run_experiment(cfg, str(root / "sol"), instance=(M, op, b))
    gcfg = dataclasses.replace(cfg, operator_kind="gaussian")
    harness.save_instance(str(root / "gaussian"), gcfg, *harness.gen_instance(gcfg))
    return root


def _edit_json(path, edit):
    with open(path) as fh:
        obj = json.load(fh)
    edit(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _edit_mask(path, edit):
    flat = np.load(path)
    np.save(path, edit(flat))


def _set(flat, at, value):
    flat[at] = value
    return flat


def _cut(path, end):
    """Keep only the file's bytes [:end]."""
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:end])


def _forge_header(path, shape, descr):
    """A .npy header giving ``shape`` and ``descr``, then 16 bytes of data."""
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": descr, "fortran_order": False, "shape": shape})
        fh.write(bytes(16))


def _drop_v(path):
    with np.load(path) as data:
        U = data["U"]
    np.savez(path, U=U)


MALFORMED = {
    "meta-without-operator_kind": ("mask", "meta.json", lambda p: _edit_json(
        p, lambda d: d.pop("operator_kind")), r"meta\.json: missing key 'operator_kind'"),
    "meta-without-r": ("mask", "meta.json", lambda p: _edit_json(
        p, lambda d: d.pop("r")), r"meta\.json: missing key 'r'"),
    "meta-without-operator_seed": ("gaussian", "meta.json", lambda p: _edit_json(
        p, lambda d: d.pop("operator_seed")), r"meta\.json: missing key 'operator_seed'"),
    "meta-operator_seed-negative": ("gaussian", "meta.json", lambda p: _edit_json(
        p, lambda d: d.update(operator_seed=-1)),
        r"meta\.json: operator_seed must be an integer >= 0, got -1"),
    "meta-operator_seed-fraction": ("gaussian", "meta.json", lambda p: _edit_json(
        p, lambda d: d.update(operator_seed=1.5)),
        r"meta\.json: operator_seed must be an integer >= 0, got 1\.5"),
    "meta-m-string": ("mask", "meta.json", lambda p: _edit_json(
        p, lambda d: d.update(m="20")),
        r"meta\.json: m must be an integer >= 1, got '20'"),
    "meta-foreign-schema": ("mask", "meta.json", lambda p: _edit_json(
        p, lambda d: d.update(schema="something-else")),
        r"meta\.json: schema must be 'l20factor-instance-v2', got 'something-else'"),
    "meta-unknown-operator_kind": ("mask", "meta.json", lambda p: _edit_json(
        p, lambda d: d.update(operator_kind="sparse")),
        r"meta\.json: unknown operator_kind 'sparse'"),
    "meta-sample_ratio-off-p": ("mask", "meta.json", lambda p: _edit_json(
        p, lambda d: d.update(sample_ratio=0.9)),
        r"meta\.json: sample_ratio 0\.9 does not give p = 200 "),
    "meta-m-off-M": ("mask", "meta.json", lambda p: _edit_json(
        p, lambda d: d.update(m=25)),
        r"M\.npy: shape is \(20, 20\), the operator's is \(25, 20\)"),
    "M-wrong-shape": ("mask", "M.npy", lambda p: np.save(p, np.ones((20, 21))),
                      r"M\.npy: shape is \(20, 21\), the operator's is \(20, 20\)"),
    "M-forged-header": ("mask", "M.npy", lambda p: _forge_header(p, (200000, 200000), "<f8"),
                        r"M\.npy: mmap length is greater than file size"),
    "M-truncated-header": ("mask", "M.npy", lambda p: _cut(p, 20),
                           r"M\.npy: EOF: reading array header"),
    "M-truncated-data": ("mask", "M.npy", lambda p: _cut(p, -8),
                         r"M\.npy: mmap length is greater than file size"),
    "M-complex": ("mask", "M.npy", lambda p: np.save(p, np.load(p).astype(complex)),
                  r"M\.npy: dtype complex128 is not a real type"),
    "b-wrong-length": ("mask", "b.npy", lambda p: np.save(p, np.ones(7)),
                       r"b\.npy: length is 7, the operator's is 200"),
    "b-forged-header": ("mask", "b.npy", lambda p: _forge_header(p, (10**10,), "<f8"),
                        r"b\.npy: mmap length is greater than file size"),
    "b-truncated-header": ("mask", "b.npy", lambda p: _cut(p, 20),
                           r"b\.npy: EOF: reading array header"),
    "b-strings": ("mask", "b.npy", lambda p: np.save(p, np.load(p).astype(str)),
                  r"b\.npy: dtype <U\d+ is not a real type"),
    "summary-without-mu_tilde": ("sol", "summary.json", lambda p: _edit_json(
        p, lambda d: d.pop("mu_tilde")), r"summary\.json: missing key 'mu_tilde'"),
    "solution-without-V": ("sol", "solution.npz", _drop_v,
                           r"solution\.npz: missing key 'V'"),
    "solution-one-row-U": ("sol", "solution.npz", lambda p: np.savez(
        p, U=np.ones((1, 3)), V=np.ones((20, 3))),
        r"solution\.npz: factor shapes \(1, 3\), \(20, 3\) do not match the "
        r"20x20 operator"),
    "solution-too-large": ("sol", "solution.npz", lambda p: np.savez(
        p, U=np.ones((30, 3)), V=np.ones((30, 3))),
        r"solution\.npz: factor shapes \(30, 3\), \(30, 3\) do not match the "
        r"20x20 operator"),
    "mask-non-integer": ("mask", "mask.npy", lambda p: _edit_mask(
        p, lambda f: f.astype(float)), r"mask\.npy: dtype float64 is not an integer type"),
    "mask-out-of-range": ("mask", "mask.npy", lambda p: _edit_mask(
        p, lambda f: _set(f, -1, 400)), r"mask\.npy: row index out of range"),
    "mask-duplicate": ("mask", "mask.npy", lambda p: _edit_mask(
        p, lambda f: _set(f, -1, f[0])), r"mask\.npy: mask contains duplicate entries"),
    "mask-wrong-length": ("mask", "mask.npy", lambda p: _edit_mask(p, lambda f: f[:-1]),
                          r"mask\.npy: length is 199, the operator's is 200"),
    "mask-forged-header": ("mask", "mask.npy", lambda p: _forge_header(p, (10**10,), "<i8"),
                           r"mask\.npy: mmap length is greater than file size"),
    "mask-truncated-header": ("mask", "mask.npy", lambda p: _cut(p, 20),
                              r"mask\.npy: EOF: reading array header"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_stored_file_exits_2(case, stored_runs, tmp_path, capsys):
    """A stored file missing a key, holding a malformed value or not
    fitting the operator is a config error (exit 2) naming the file and key,
    raised before any solve: a broken instance from both ``solve`` and
    ``diagnose``, a broken solution from ``diagnose``."""
    which, name, corrupt, message = MALFORMED[case]
    for part in ("mask", "gaussian", "sol"):
        shutil.copytree(stored_runs / part, tmp_path / part)
    corrupt(str(tmp_path / which / name))
    inst = str(tmp_path / ("gaussian" if which == "gaussian" else "mask"))
    out = tmp_path / "out"
    diagnose = ["diagnose", "--instance", inst, "--solution", str(tmp_path / "sol"),
                "--out-dir", str(out)]
    solve = ["solve", "--instance", inst, "--out-dir", str(out), "--max-iters", "5"]
    for argv in [diagnose] if which == "sol" else [solve, diagnose]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error(config): ")
        assert re.search(message, err), err
        assert not out.exists()


def test_solve_config_must_match_instance(stored_runs, tmp_path, capsys):
    """solve reads the instance fields, the seed among them, from meta.json:
    a config file may repeat them, but a different value is a config error
    and writes nothing, and solve has no flag for them."""
    inst = str(stored_runs / "mask")
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    argv = ["solve", "--config", str(cfg), "--instance", inst, "--out-dir", str(out),
            "--max-iters", "5"]
    for text, message in (
            ("m = 25\nkappa = 4\n", "run.cfg: m is 25, the instance's is 20"),
            ("seed = 7\n", "run.cfg: seed is 7, the instance's is 1")):
        cfg.write_text(text)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error(config): ")
        assert message in err
        assert not out.exists()
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--seed", "7"])
    assert exit_info.value.code == 2
    assert not out.exists()
    cfg.write_text("m = 20\nn = 20\nr = 2\nkappa = 3\nsample_ratio = 0.5\n"
                   "operator_kind = mask\nseed = 1\n")
    assert main(argv) == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert (summary["m"], summary["kappa"], summary["seed"]) == (20, 3, 1)

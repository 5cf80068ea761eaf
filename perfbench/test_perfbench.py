"""Self-test of the benchmark on a tiny instance (a few seconds).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare()

import bench  # noqa: E402
import l20factor.solver  # noqa: E402
from l20factor import harness  # noqa: E402
from l20factor.solver import SolverConfig, solve  # noqa: E402

TINY = bench.Workload("tiny", dict(
    m=30, n=30, r=2, kappa=4, sample_ratio=0.5, operator_kind="mask",
    model="l20", mu_tilde=1e-3, lambda_rule="10 * specnorm(X0)"))


def _run(tmp_path, workload, traced=False):
    return bench.run(workload, seed=3, seconds=0.01, traced=traced,
                     out_dir=tmp_path / "out", work_root=tmp_path)


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    res = _run(tmp_path, TINY)
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 1, 0)
    assert list(res["metrics"]) == [name for name, _ in bench.END_TO_END]
    for name, unit in bench.END_TO_END:
        value = res["metrics"][name]
        assert value["unit"] == unit
        assert math.isfinite(value["value"]) and value["value"] > 0, name
    json.dumps(res)


def test_traced_run_reports_every_layer_metric_and_unpatches(tmp_path):
    original = l20factor.solver.smooth_value
    res = _run(tmp_path, TINY, traced=True)
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 2, 0)
    assert list(res["metrics"]) == [name for name, _ in bench.PER_LAYER]
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["sampling.apply.calls_per_iter"] >= 4
    assert metrics["prox.prox_matrix.calls_per_iter"] >= 2
    assert metrics["prox.prox_dc_column.calls"] == 0
    assert 0 < metrics["solver.substep_accept_ratio"] <= 1
    assert l20factor.solver.smooth_value is original
    assert (tmp_path / "out" / "spans-tiny.npz").is_file()


def test_wrong_answer_counts_as_failed(tmp_path):
    starved = dataclasses.replace(TINY, config={**TINY.config, "max_iters": 3})
    res = _run(tmp_path, starved)
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 1, 1)


@pytest.mark.parametrize("kind", ["mask", "gaussian"])
def test_seeded_variants_take_the_same_iterations(kind):
    cfg = harness.ExperimentConfig(**{**TINY.config, "operator_kind": kind,
                                      "max_iters": 300})
    base = harness.gen_instance(cfg)
    runs = []
    for seed in (1, 2):
        M, op, b = bench.reorder(*base, seed)
        spec = harness.build_model_spec(cfg, op, b)
        W, trace, _ = solve(spec, SolverConfig(max_iters=cfg.max_iters), "auto",
                            kappa=cfg.kappa)
        runs.append((len(trace.records), harness.relative_error(W, M)))
    (it1, err1), (it2, err2) = runs
    assert it1 == it2
    assert err1 == pytest.approx(err2, rel=1e-6)


def test_without_library_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mask-l20-300",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

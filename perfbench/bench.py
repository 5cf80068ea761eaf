"""Workloads, the measured gen -> solve -> diagnose cycle, and its metrics.

Import this after ``run.prepare()`` has pinned the BLAS threads and put the
library on ``sys.path``. See README.md in this directory for why each
workload exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from l20factor import harness
from l20factor.harness import ExperimentConfig
from l20factor.sampling import UniformMaskOperator

from spans import SpanTable, Tracer

REL_ERROR_GATE = 1e-8
SETUP_REPS = 20

END_TO_END = (
    ("setup_s", "s"), ("solve_s", "s"), ("solve_cpu_s", "s"),
    ("iterations", "count"), ("ms_per_iter", "ms"), ("diagnose_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("sampling.apply.calls_per_iter", "count"),
    ("sampling.apply.busy_s", "s"),
    ("sampling.apply.computed_bytes_per_call", "B"),
    ("sampling.adjoint.calls_per_iter", "count"),
    ("sampling.adjoint.busy_s", "s"),
    ("sampling.adjoint.computed_bytes_per_call", "B"),
    ("sampling.operator_norm.busy_s", "s"),
    ("sampling.estimate_restricted_eigs.busy_s", "s"),
    ("objective.smooth_value.calls_per_iter", "count"),
    ("objective.smooth_value.self_s", "s"),
    ("objective.smooth_gradient.calls_per_iter", "count"),
    ("objective.smooth_gradient.self_s", "s"),
    ("objective.column_penalty_value.calls_per_iter", "count"),
    ("objective.column_penalty_value.self_s", "s"),
    ("objective.FactorPair.product.busy_s", "s"),
    ("prox.prox_matrix.calls_per_iter", "count"),
    ("prox.prox_matrix.busy_s", "s"),
    ("prox.prox_matrix.solve_share", "%"),
    ("prox.prox_dc_column.calls", "count"),
    ("penalty.g_scalar.calls_per_iter", "count"),
    ("penalty.g_scalar.solve_share", "%"),
    ("linalg.as_matrix.calls_per_iter", "count"),
    ("linalg.as_matrix.busy_s", "s"),
    ("linalg.svd.busy_s", "s"),
    ("linalg.l20_norm.calls_per_iter", "count"),
    ("solver.step.self_s", "s"),
    ("solver.solve.self_s", "s"),
    ("solver.SolveTrace.record.busy_s", "s"),
    ("solver.SolveTrace.backfill_distances.busy_s", "s"),
    ("solver.substep_accept_ratio", "ratio"),
    ("diagnostics.certify_optimal_pair.busy_s", "s"),
    ("diagnostics.self_s", "s"),
    ("harness.gen_instance.busy_s", "s"),
    ("harness.build_model_spec.busy_s", "s"),
    ("harness.save_instance.busy_s", "s"),
    ("harness.save_instance.bytes_written", "B"),
    ("harness.save_solution.busy_s", "s"),
    ("harness.save_solution.bytes_written", "B"),
    ("harness.load_instance.busy_s", "s"),
    ("harness.load_solution.busy_s", "s"),
    ("tracing.overhead_s", "s"),
)


@dataclass(frozen=True)
class Workload:
    """One seeded instance family; ``config`` holds ExperimentConfig fields."""

    name: str
    config: dict


WORKLOADS = {w.name: w for w in (
    Workload("mask-l20-300", dict(
        m=300, n=300, r=5, kappa=15, sample_ratio=0.25, operator_kind="mask",
        model="l20", mu_tilde=1e-3, epsilon=1e-10)),
    Workload("mask-dc-300", dict(
        m=300, n=300, r=5, kappa=15, sample_ratio=0.25, operator_kind="mask",
        model="dc", mu_tilde=1e-2, epsilon=1e-10)),
    Workload("gauss-l20-40", dict(
        m=40, n=40, r=2, kappa=6, sample_ratio=0.4, operator_kind="gaussian",
        model="l20", mu_tilde=1e-3, lambda_rule="28 * specnorm(X0)",
        epsilon=1e-10)),
)}


def reorder(M, op, b, seed: int):
    """Seeded variant of an instance that poses the same problem.

    A mask's measurements are listed in a seeded random order; gather and
    scatter are exact in any order, so the solve is bitwise unchanged. A
    Gaussian operator is regenerated from its stored seed on load, so only
    the sign of M and b varies; negation is exact and maps every iterate to
    its negated-U twin, so the iteration count does not change.
    """
    rng = np.random.default_rng(seed)
    if isinstance(op, UniformMaskOperator):
        order = rng.permutation(op.p)
        return M, UniformMaskOperator(op.m, op.n, op.rows[order], op.cols[order]), b[order]
    sign = -1.0 if rng.integers(2) else 1.0
    return sign * M, op, sign * b


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


@dataclass
class Cycle:
    """Timings and checks of one gen -> solve -> diagnose pass."""

    setup_s: list[float] = field(default_factory=list)
    solve_s: float = float("nan")
    solve_cpu_s: float = float("nan")
    iterations: int = 0
    ms_per_iter: float = float("nan")
    diagnose_s: float = float("nan")
    instance_bytes: int = 0
    solution_bytes: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def gate(summary: dict, report: dict, r: int) -> list[str]:
    """Reasons the cycle's answer is wrong; empty when it passes."""
    out = []
    if summary["reason"] != "converged":
        out.append(f"reason={summary['reason']}")
    if not summary["rel_error"] <= REL_ERROR_GATE:
        out.append(f"rel_error={summary['rel_error']:.3e}")
    if not summary["nnz_u"] == summary["nnz_v"] == r:
        out.append(f"nnz=({summary['nnz_u']},{summary['nnz_v']}) != r={r}")
    if not report["certificate"]["passed"]:
        out.append("certificate failed")
    return out


def run_cycle(cfg: ExperimentConfig, seed: int, work: Path, setup_reps: int) -> Cycle:
    """The three command-line steps, in-process, timed step by step."""
    inst, sol = work / "instance", work / "solution"
    cyc = Cycle()
    for _ in range(setup_reps):
        t0 = time.perf_counter()
        M, op, b = harness.gen_instance(cfg)
        t1 = time.perf_counter()
        M, op, b = reorder(M, op, b, seed)
        t2 = time.perf_counter()
        harness.build_model_spec(cfg, op, b)  # resolves the lambda/rho rules
        harness.save_instance(str(inst), cfg, M, op, b)
        cyc.setup_s.append(t1 - t0 + time.perf_counter() - t2)
    cyc.instance_bytes = _dir_bytes(inst)

    t0, c0 = time.perf_counter(), time.process_time()
    bundle = harness.run_experiment(cfg, str(sol), instance=(M, op, b))
    cyc.solve_s = time.perf_counter() - t0
    cyc.solve_cpu_s = time.process_time() - c0
    summary = bundle["summary"]
    cyc.iterations = summary["iterations"]
    cyc.ms_per_iter = 1e3 * bundle["trace"].records[-1].time_s / cyc.iterations
    del bundle
    cyc.solution_bytes = _dir_bytes(sol)

    t0 = time.perf_counter()
    report = harness.diagnose(str(inst), str(sol))
    cyc.diagnose_s = time.perf_counter() - t0
    cyc.failures = gate(summary, report, cfg.r)
    return cyc


def _computed_bytes(cfg: ExperimentConfig, which: str) -> int:
    """Operand plus result bytes one apply/adjoint must move (8-byte words).

    Mask: the p values and two int64 index arrays, plus the dense m x n
    result of the adjoint. Gaussian: the p x m x n tensor, the matrix and
    the vector.
    """
    m, n, p = cfg.m, cfg.n, round(cfg.sample_ratio * cfg.m * cfg.n)
    if cfg.operator_kind == "mask":
        return 8 * (4 * p if which == "apply" else m * n + 4 * p)
    return 8 * (p * m * n + m * n + p)


def layer_metrics(table: SpanTable, run_id: int, cyc: Cycle,
                  cfg: ExperimentConfig) -> dict[str, float]:
    """Per-layer numbers of one traced cycle (names as in PER_LAYER)."""
    in_cycle = table.run == run_id
    solve_ids = table.ids("solver.solve")
    top = solve_ids[table.run[solve_ids] == run_id][0]
    in_solve = np.zeros(len(in_cycle), dtype=bool)
    in_solve[table.subtree(top)] = True
    solve_dur = table.dur[top]
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        fn, stat = name.rsplit(".", 1)
        if stat == "calls_per_iter":
            out[name] = table.stats(in_solve, fn)[0] / cyc.iterations
        elif stat == "calls":
            out[name] = table.stats(in_cycle, fn)[0]
        elif stat == "busy_s":
            out[name] = table.stats(in_cycle, fn)[1]
        elif stat == "self_s":
            out[name] = table.stats(in_cycle, fn)[2] if "." in fn \
                else table.module_self(in_cycle, fn)
        elif stat == "solve_share":
            out[name] = 100.0 * table.stats(in_solve, fn)[1] / solve_dur
        elif stat == "computed_bytes_per_call":
            out[name] = _computed_bytes(cfg, fn.split(".")[1])
    prox_calls = table.stats(in_solve, "prox.prox_matrix")[0]
    out["solver.substep_accept_ratio"] = 2 * cyc.iterations / prox_calls
    out["harness.save_instance.bytes_written"] = cyc.instance_bytes
    out["harness.save_solution.bytes_written"] = cyc.solution_bytes
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def run(wl: Workload, seed: int, seconds: float, traced: bool, out_dir: Path,
        work_root: Path) -> dict:
    """Repeat cycles for about ``seconds``; return the result object.

    Untraced, every cycle is timed and the end-to-end metrics are medians
    over the cycles that pass the gate (over all cycles when none does).
    Traced, cycle 0 runs untraced as the overhead baseline and the later
    cycles run with spans; per-layer metrics are medians over those.
    """
    cfg = ExperimentConfig(**wl.config)
    deadline = time.perf_counter() + seconds
    env = environment()
    print(f"perfbench {wl.name} seed={seed} trace={int(traced)} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    tracer = Tracer() if traced else None
    cycles: list[Cycle] = []
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=work_root))
    try:
        while True:
            started = time.perf_counter()
            run_id = len(cycles)
            if tracer is not None and run_id == 1:
                tracer.install()
            if tracer is not None:
                tracer.run_id = run_id
            cdir = work / f"c{run_id}"
            try:
                cyc = run_cycle(cfg, seed, cdir, 1 if traced else SETUP_REPS)
            except Exception as err:  # a broken cycle is a failed attempt
                traceback.print_exc()
                cyc = Cycle(failures=[f"{type(err).__name__}: {err}"])
            shutil.rmtree(cdir, ignore_errors=True)
            cycles.append(cyc)
            took = time.perf_counter() - started
            print(f"cycle {run_id}: {'ok' if cyc.ok else 'FAILED ' + '; '.join(cyc.failures)}"
                  f" setup {_median(cyc.setup_s):.4f} s"
                  f" solve {cyc.solve_s:.3f} s cpu {cyc.solve_cpu_s:.3f} s"
                  f" iters {cyc.iterations} {cyc.ms_per_iter:.3f} ms/iter"
                  f" diagnose {cyc.diagnose_s:.3f} s")
            # Stop when another cycle would end more than half a cycle late.
            if len(cycles) >= (2 if traced else 1) \
                    and time.perf_counter() + took / 2 > deadline:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not c.ok for c in cycles)
    good = [c for c in cycles if c.ok] or cycles
    if traced:
        metrics = _traced_metrics(tracer, cycles, cfg, out_dir, wl.name)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": _median([s for c in good for s in c.setup_s]),
            "solve_s": _median([c.solve_s for c in good]),
            "solve_cpu_s": _median([c.solve_cpu_s for c in good]),
            "iterations": _median([c.iterations for c in good]),
            "ms_per_iter": _median([c.ms_per_iter for c in good]),
            "diagnose_s": _median([c.diagnose_s for c in good]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    bad = [k for k, v in metrics.items() if not np.isfinite(v)]
    if bad:
        print(f"error: no cycle produced {bad}", file=sys.stderr)
        raise SystemExit(1)
    for name, value in metrics.items():
        print(f"{name:<48} {value:.6g} {units[name]}")
    print(f"attempted {len(cycles)} failed {failed} (medians over {len(good)} cycles)")
    return {
        "correct": failed == 0,
        "attempted": len(cycles),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _traced_metrics(tracer: Tracer, cycles: list[Cycle], cfg: ExperimentConfig,
                    out_dir: Path, name: str) -> dict[str, float]:
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{name}.npz")
    table = SpanTable.from_tracer(tracer)
    traced = [i for i in range(1, len(cycles)) if cycles[i].iterations]
    use = [i for i in traced if cycles[i].ok] or traced
    per_cycle = [layer_metrics(table, i, cycles[i], cfg) for i in use]
    metrics = {k: _median([pc[k] for pc in per_cycle]) for k in per_cycle[0]} \
        if per_cycle else {}
    traced_solve = _median([cycles[i].solve_s for i in range(1, len(cycles))])
    metrics["tracing.overhead_s"] = traced_solve - cycles[0].solve_s
    return {k: metrics.get(k, float("nan")) for k, _ in PER_LAYER}

import dataclasses
import json
import math
import os
from dataclasses import astuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from l20factor import harness, linalg, solver
from l20factor.harness import (CONFIG_FIELDS, INSTANCE_FIELDS, ConfigError,
                               ExperimentConfig, build_config,
                               build_model_spec, convergence_fit, diagnose,
                               eval_rule, fit_loglinear, gen_instance,
                               load_instance, load_mask, load_solution,
                               parse_config_file, read_trace_csv,
                               relative_error, run_experiment, run_fig3,
                               save_instance, save_mask, save_solution,
                               write_trace_csv)
from l20factor.objective import FactorPair
from l20factor.sampling import (FullOperator, GaussianOperator, SamplingOperator,
                                UniformMaskOperator)
from l20factor.solver import SolveTrace, SolverConfig, TraceRecord, solve
from oracles import operator_matrix


def small_cfg(**overrides):
    base = dict(m=60, n=60, r=2, kappa=4, sample_ratio=0.4,
                operator_kind="mask", model="l20", mu_tilde=1e-3,
                max_iters=4000, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def l20_bundle():
    return run_experiment(small_cfg(lambda_rule="28 * specnorm(X0)"))


@pytest.fixture(scope="module")
def dc_bundle():
    cfg = small_cfg(model="dc",
                    lambda_rule="((a+1)/2) * (0.03 * specnorm(X0))^2",
                    rho_rule="2 / ((a+1) * 0.03 * specnorm(X0))")
    return run_experiment(cfg)


def crafted_instance():
    M = np.zeros((12, 10))
    M[0, 0] = 3.0
    M[1, 1] = 2.5
    op = FullOperator(12, 10)
    return M, op, op.apply(M)


# ---------------------------------------------------------------- config


def test_config_defaults():
    cfg = ExperimentConfig()
    assert (cfg.m, cfg.n, cfg.r, cfg.kappa) == (300, 300, 5, 15)
    assert cfg.sample_ratio == 0.25
    assert cfg.operator_kind == "mask"
    assert cfg.model == "l20"
    assert cfg.a == 3.7
    assert cfg.lambda_rule is None and cfg.rho_rule is None
    assert cfg.epsilon == 1e-10 and cfg.max_iters == 20000


def test_config_validation():
    with pytest.raises(ConfigError, match="kappa"):
        ExperimentConfig(r=6, kappa=5)
    with pytest.raises(ConfigError, match="kappa"):
        ExperimentConfig(m=4, n=4, r=1, kappa=5)
    with pytest.raises(ConfigError, match="sample_ratio"):
        ExperimentConfig(sample_ratio=0.0)
    with pytest.raises(ConfigError, match="sample_ratio"):
        ExperimentConfig(sample_ratio=1.5)
    with pytest.raises(ConfigError, match="empty measurement"):
        ExperimentConfig(m=10, n=10, r=1, kappa=1, sample_ratio=0.004)
    with pytest.raises(ConfigError, match="operator_kind"):
        ExperimentConfig(operator_kind="dense")
    with pytest.raises(ConfigError, match="model"):
        ExperimentConfig(model="hard")
    with pytest.raises(ConfigError, match="a must exceed"):
        ExperimentConfig(a=1.0)
    with pytest.raises(ConfigError, match="mu_tilde"):
        ExperimentConfig(mu_tilde=-0.1)
    with pytest.raises(ConfigError, match="epsilon"):
        ExperimentConfig(epsilon=0.0)
    with pytest.raises(ConfigError, match="max_iters"):
        ExperimentConfig(max_iters=0)


# ------------------------------------------------------------- eval_rule


def test_eval_rule_values():
    assert eval_rule("0.5", 3.7, 2.0) == 0.5
    assert eval_rule("55 * specnorm(X0)", 3.7, 2.0) == 110.0
    got = eval_rule("((a+1)/2) * (0.03 * specnorm(X0))^2", 3.0, 10.0)
    assert_allclose(got, 2.0 * 0.3**2, rtol=1e-15)
    assert eval_rule("2^3", 3.7, 1.0) == 8.0
    assert eval_rule("a + 1", 2.5, 1.0) == 3.5
    assert eval_rule("-(0.25)", 3.7, 1.0) == -0.25
    assert eval_rule("2 / ((a+1) * specnorm(X0))", 3.0, 0.5) == 1.0


def test_eval_rule_rejects_foreign_names_and_calls():
    with pytest.raises(ConfigError, match="unknown name"):
        eval_rule("b * specnorm(X0)", 3.7, 1.0)
    with pytest.raises(ConfigError, match="unknown name"):
        eval_rule("X0", 3.7, 1.0)
    with pytest.raises(ConfigError, match="unsupported syntax"):
        eval_rule("__import__('os')", 3.7, 1.0)
    with pytest.raises(ConfigError, match="unsupported syntax"):
        eval_rule("specnorm(Y)", 3.7, 1.0)
    with pytest.raises(ConfigError, match="unsupported syntax"):
        eval_rule("specnorm(X0, 2)", 3.7, 1.0)
    with pytest.raises(ConfigError, match="unsupported syntax"):
        eval_rule("specnorm(X0).real", 3.7, 1.0)


def test_eval_rule_rejects_bad_literals_and_arithmetic():
    with pytest.raises(ConfigError, match="cannot parse"):
        eval_rule("0.5 *", 3.7, 1.0)
    with pytest.raises(ConfigError, match="non-numeric literal"):
        eval_rule("'abc'", 3.7, 1.0)
    with pytest.raises(ConfigError, match="non-numeric literal"):
        eval_rule("True", 3.7, 1.0)
    with pytest.raises(ConfigError, match="division by zero"):
        eval_rule("1 / 0", 3.7, 1.0)
    with pytest.raises(ConfigError, match="non-finite"):
        eval_rule("1e400", 3.7, 1.0)
    with pytest.raises(ConfigError, match="non-finite"):
        eval_rule("10^400", 3.7, 1.0)
    for rule in ("(-1)^0.5", "(-8)^(1/3)"):
        with pytest.raises(ConfigError, match="non-real value"):
            eval_rule(rule, 3.7, 1.0)


# ---------------------------------------------------- config file / merge


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full comment line\n"
        "m = 12\n"
        "n=10   # trailing comment\n"
        "\n"
        "lambda_rule = 0.5 * specnorm(X0)\n"
    )
    got = parse_config_file(str(path), CONFIG_FIELDS)
    assert got == {"m": "12", "n": "10",
                   "lambda_rule": "0.5 * specnorm(X0)"}


def test_parse_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("m = 12\njust words\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        parse_config_file(str(bad), CONFIG_FIELDS)
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("rows = 12\n")
    with pytest.raises(ConfigError, match=r"unknown\.cfg:1.*unknown key"):
        parse_config_file(str(unknown), CONFIG_FIELDS)
    unknown.write_text("m = 12\nmodel = dc\n")
    with pytest.raises(ConfigError, match=r"unknown\.cfg:2: unknown key 'model'"):
        parse_config_file(str(unknown), INSTANCE_FIELDS)
    repeated = tmp_path / "repeated.cfg"
    repeated.write_text("seed = 1\nm = 12\n\nseed = 7\n")
    with pytest.raises(ConfigError, match=r"repeated\.cfg:4: key 'seed' repeats line 1$"):
        parse_config_file(str(repeated), CONFIG_FIELDS)


def test_build_config_precedence_and_coercion():
    cfg = build_config(
        {"m": "12", "n": "12", "sample_ratio": "0.5"},
        {"m": 14, "r": 2, "kappa": 3, "seed": None},
    )
    assert cfg.m == 14 and cfg.n == 12
    assert cfg.sample_ratio == 0.5
    assert cfg.seed == 0


def test_build_config_errors():
    with pytest.raises(ConfigError, match="must be an integer"):
        build_config({"m": "abc"})
    with pytest.raises(ConfigError, match="must be a number"):
        build_config({"a": "xyz"})
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config({"rows": 5})


def test_default_rules_are_rules_at_scale():
    assert harness.rules_at_scale("l20", 55) == ("55 * specnorm(X0)", None)
    assert harness.rules_at_scale("dc", 0.03) == (
        "((a+1)/2) * (0.03 * specnorm(X0))^2",
        "2 / ((a+1) * 0.03 * specnorm(X0))")
    op = FullOperator(4, 3)
    b = op.apply(np.diag([2.0, 1.0, 0.5])[[0, 1, 2, 2]])  # ||X0|| = 2
    l20 = build_model_spec(ExperimentConfig(m=4, n=3, r=1, kappa=2,
                                            operator_kind="full"), op, b)
    assert l20.params.lam == 110.0
    dc = build_model_spec(ExperimentConfig(m=4, n=3, r=1, kappa=2, a=3.0,
                                           operator_kind="full", model="dc"), op, b)
    assert dc.params.lam == eval_rule("((a+1)/2) * (0.03 * specnorm(X0))^2", 3.0, 2.0)
    assert dc.params.rho == eval_rule("2 / ((a+1) * 0.03 * specnorm(X0))", 3.0, 2.0)
    empty = ExperimentConfig(m=4, n=3, r=1, kappa=2, operator_kind="full",
                             lambda_rule="")
    with pytest.raises(ConfigError, match="cannot parse"):  # set, so not the default
        build_model_spec(empty, op, b)


# ----------------------------------------------------------- fit helpers


def test_fit_loglinear_exact_exponential():
    xs = np.arange(20.0)
    slope, r2 = fit_loglinear(xs, np.exp(-0.3 * xs + 1.0))
    assert_allclose(slope, -0.3, rtol=1e-12)
    assert_allclose(r2, 1.0, atol=1e-12)


def test_fit_loglinear_constant_series():
    slope, r2 = fit_loglinear([0.0, 1.0, 2.0], [2.0, 2.0, 2.0])
    assert_allclose(slope, 0.0, atol=1e-15)
    assert r2 == 1.0


def test_fit_loglinear_degenerate_inputs():
    assert all(math.isnan(v) for v in fit_loglinear([1.0, 2.0], [0.0, -1.0]))
    assert all(math.isnan(v) for v in fit_loglinear([1.0, 2.0], [3.0, np.nan]))


def test_fit_loglinear_drops_nonpositive_points():
    xs = np.arange(10.0)
    ys = np.exp(-0.5 * xs)
    with_junk = np.concatenate([ys, [0.0, -3.0]])
    xs_junk = np.concatenate([xs, [10.0, 11.0]])
    assert_allclose(fit_loglinear(xs_junk, with_junk)[0],
                    fit_loglinear(xs, ys)[0], rtol=1e-13)


def synthetic_trace(supports, dists):
    """A trace recorded through ``SolveTrace.record``, one record per support
    and distance, each with the same placeholder iterate."""
    trace = SolveTrace()
    W, live = FactorPair(np.zeros((2, 1)), np.zeros((2, 1))), np.arange(1)
    for k, ((nu, nv), d) in enumerate(zip(supports, dists), start=1):
        trace.record(TraceRecord(k, 0.0, 0.0, 0.0, 0.0, nu, nv, d, d, 0.0),
                     W, live)
    return trace


def test_convergence_fit_starts_at_last_support_change():
    """A long plateau at a wider support, then a late prune and an exact
    geometric tail: the fit sees the tail only, so it reads the tail's rate
    with R^2 = 1 where a last-half fit would mix in the plateau."""
    plateau, tail = 200, 40
    supports = [(8, 10)] * 100 + [(7, 7)] * plateau + [(5, 5)] * tail
    dists = [1.0] * (100 + plateau) + list(np.exp(-0.2 * np.arange(tail)))
    slope, r2 = convergence_fit(synthetic_trace(supports, dists))
    assert_allclose(slope, -0.2, rtol=1e-10)
    assert_allclose(r2, 1.0, atol=1e-12)
    # a change in either count starts the fit, and a fixed support fits it all
    supports = [(5, 6)] * plateau + [(5, 5)] * tail
    assert_allclose(convergence_fit(synthetic_trace(supports, dists[100:]))[0],
                    -0.2, rtol=1e-10)
    fixed = np.exp(-0.1 * np.arange(30))
    assert_allclose(convergence_fit(synthetic_trace([(3, 3)] * 30, fixed))[0],
                    -0.1, rtol=1e-10)


def test_convergence_fit_reads_the_thinned_reservoir():
    """A solver-like trace recorded through the reservoir: a plateau, a
    support change, then 1000 iterates at distance exp(-0.05 k) from the
    final pair. Off the reservoir's grid the distances are NaN, and the fit
    on the kept ones recovers the exact slope with R^2 = 1."""
    trace = SolveTrace()
    final = FactorPair(np.zeros((2, 1)), np.zeros((2, 1)))
    for k in range(1, 1201):
        support = (2, 2) if k <= 200 else (1, 1)
        d = 1.0 if k <= 200 else math.exp(-0.05 * k)
        trace.record(TraceRecord(k, 0.0, 0.0, 0.0, 0.0, *support,
                                 math.nan, math.nan, 0.0),
                     FactorPair(np.array([[d], [0.0]]), np.zeros((2, 1))),
                     np.arange(1))
    trace.backfill_distances(final)
    kept = [rec.iteration for rec in trace.records
            if not math.isnan(rec.dist_u_final)]
    assert kept[0] == 201 and kept[-1] == 1200 and len(kept) < 100
    slope, r2 = convergence_fit(trace)
    assert_allclose(slope, -0.05, rtol=1e-10)
    assert_allclose(r2, 1.0, atol=1e-12)


def test_convergence_fit_needs_ten_records_after_the_change():
    dists = np.exp(-0.3 * np.arange(60))
    for after, expect_nan in ((9, True), (10, False)):
        supports = [(4, 4)] * (60 - after) + [(3, 3)] * after
        slope, r2 = convergence_fit(synthetic_trace(supports, dists))
        assert math.isnan(slope) == expect_nan and math.isnan(r2) == expect_nan
    assert all(math.isnan(v) for v in convergence_fit(SolveTrace()))


# ---------------------------------------------------------- gen_instance


def test_gen_instance_rank_one_target():
    M, op, b = gen_instance(small_cfg(r=1, kappa=2))
    sigma = np.linalg.svd(M, compute_uv=False)
    assert sigma[1] <= 1e-10 * sigma[0]


def test_gen_instance_full_ratio_mask_is_dense():
    M, op, b = gen_instance(small_cfg(m=9, n=7, sample_ratio=1.0, kappa=3))
    assert isinstance(op, UniformMaskOperator)
    assert op.p == 9 * 7


def test_gen_instance_measurements_match_operator():
    for kind in ("full", "mask", "gaussian"):
        M, op, b = gen_instance(small_cfg(m=15, n=12, operator_kind=kind,
                                          sample_ratio=0.5, kappa=3))
        assert op.kind == kind
        assert_allclose(b, op.apply(M), rtol=0, atol=0)


def test_gen_instance_deterministic():
    cfg = small_cfg(m=15, n=12, kappa=3)
    M1, op1, b1 = gen_instance(cfg)
    M2, op2, b2 = gen_instance(cfg)
    assert np.array_equal(M1, M2) and np.array_equal(b1, b2)
    assert np.array_equal(op1.rows, op2.rows)
    assert np.array_equal(op1.cols, op2.cols)
    cfg_g = small_cfg(m=15, n=12, kappa=3, operator_kind="gaussian",
                      sample_ratio=0.5)
    _, opg1, bg1 = gen_instance(cfg_g)
    _, opg2, bg2 = gen_instance(cfg_g)
    assert opg1.p == round(0.5 * 15 * 12)
    assert np.array_equal(bg1, bg2)


# ----------------------------------------------------- summaries / files


def test_summary_fields_match_recomputation(l20_bundle):
    s = l20_bundle["summary"]
    W, trace, M = l20_bundle["W"], l20_bundle["trace"], l20_bundle["M"]
    spec = l20_bundle["spec"]
    assert s["schema"] == "l20factor-summary-v1"
    assert s["iterations"] == len(trace.records)
    assert s["nnz_u"] == linalg.l20_norm(W.U)
    assert s["nnz_v"] == linalg.l20_norm(W.V)
    assert math.isclose(s["rel_error"], relative_error(W, M), rel_tol=1e-12)
    slope, r2 = convergence_fit(trace)
    assert math.isclose(s["slope"], slope, rel_tol=1e-12)
    assert math.isclose(s["r2"], r2, rel_tol=1e-12)
    x0_norm = np.linalg.norm(spec.op.adjoint(spec.b), 2)
    assert math.isclose(s["lambda"], 28 * x0_norm, rel_tol=1e-12)
    assert s["rho"] is None
    assert s["reason"] in ("converged", "budget")


def test_instance_roundtrip_all_kinds(tmp_path):
    for kind in ("full", "mask", "gaussian"):
        cfg = small_cfg(m=15, n=12, kappa=3, operator_kind=kind,
                        sample_ratio=0.5)
        M, op, b = gen_instance(cfg)
        out = tmp_path / kind
        save_instance(str(out), cfg, M, op, b)
        meta, M2, op2, b2 = load_instance(str(out))
        assert meta["schema"] == "l20factor-instance-v1"
        assert meta["operator_kind"] == kind
        seed_key = {"operator_seed"} if kind == "gaussian" else set()
        assert set(meta) == {"schema", "p", *INSTANCE_FIELDS} | seed_key
        assert (meta["m"], meta["n"], meta["p"]) == (op.m, op.n, op.p)
        assert np.array_equal(M, M2) and np.array_equal(b, b2)
        assert np.array_equal(op2.apply(M2), op.apply(M))
        if kind == "mask":
            assert np.array_equal(op.rows, op2.rows)
            assert np.array_equal(op.cols, op2.cols)
        else:
            assert not (out / "mask.txt").exists()


def test_instance_data_checked_where_it_enters(tmp_path):
    cfg = small_cfg(m=15, n=12, kappa=3)
    M, op, b = gen_instance(cfg)
    b = b.copy()
    b[0] = np.nan
    with pytest.raises(ValueError, match="b contains non-finite"):
        build_model_spec(cfg, op, b)
    save_instance(str(tmp_path), cfg, M, op, b)
    with pytest.raises(ValueError, match="b contains non-finite"):
        load_instance(str(tmp_path))


def test_gaussian_size_guard(tmp_path, monkeypatch):
    """A Gaussian operator over the byte limit is a ConfigError, from a config
    or from a stored meta.json, before anything is allocated. Both count the
    tensor plus the larger of the norm's Gram (with eigvalsh's copy of it)
    and, for a config, the solver's three kappa-column blocks; a stored
    instance, which diagnose also loads, builds no blocks."""
    with pytest.raises(ConfigError, match=r"needs 22\.6 GiB for its 22500x300x300 "
                                          r"tensor, its norm's Gram and kappa=15 "
                                          r"blocks, over the 2 GiB limit"):
        ExperimentConfig(operator_kind="gaussian")
    ExperimentConfig(operator_kind="mask")
    shape = dict(m=15, n=12, kappa=3, operator_kind="gaussian", sample_ratio=0.2)
    p = 36  # 0.2 * 15 * 12
    tensor = 8 * p * 15 * 12
    gram = 8 * 2 * p * p
    blocks = 8 * p * 3 * 15 * 3  # a gauge move's three maps that fix a V
    assert blocks > gram
    monkeypatch.setattr(harness, "GAUSSIAN_MAX_BYTES", tensor + blocks)
    cfg = small_cfg(**shape)
    monkeypatch.setattr(harness, "GAUSSIAN_MAX_BYTES", tensor + blocks - 1)
    with pytest.raises(ConfigError, match="36x15x12 tensor, its norm's Gram "
                                          "and kappa=3 blocks"):
        small_cfg(**shape)

    M, op, b = gen_instance(cfg)
    save_instance(str(tmp_path), cfg, M, op, b)
    monkeypatch.setattr(harness, "GAUSSIAN_MAX_BYTES", tensor + gram)
    load_instance(str(tmp_path))
    monkeypatch.setattr(harness, "GAUSSIAN_MAX_BYTES", tensor + gram - 1)
    with pytest.raises(ConfigError, match="36x15x12 tensor, its norm's Gram, over"):
        load_instance(str(tmp_path))
    monkeypatch.undo()
    meta_path = tmp_path / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["p"] = 2_000_000
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match="2000000x15x12 tensor"):
        load_instance(str(tmp_path))


def test_solution_roundtrip(tmp_path, l20_bundle):
    out = str(tmp_path / "sol")
    save_solution(out, l20_bundle["W"], l20_bundle["trace"],
                  l20_bundle["summary"])
    W2, summary2 = load_solution(out)
    assert np.array_equal(W2.U, l20_bundle["W"].U)
    assert np.array_equal(W2.V, l20_bundle["W"].V)
    assert summary2 == l20_bundle["summary"]


def test_trace_csv_roundtrip_exact(tmp_path, l20_bundle):
    path = str(tmp_path / "trace.csv")
    write_trace_csv(l20_bundle["trace"], path)
    records = l20_bundle["trace"].records
    # a record whose iterate was not kept has NaN distances, which must read
    # back as NaN; every other field reads back exactly
    assert any(math.isnan(rec.dist_u_final) for rec in records)
    got = [astuple(rec) for rec in read_trace_csv(path)]
    want = [astuple(rec) for rec in records]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert all(a == b or (math.isnan(a) and math.isnan(b))
                   for a, b in zip(g, w)), (g, w)


def test_trace_csv_rejects_malformed(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("iteration,objective\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(str(bad_header))
    bad_row = tmp_path / "r.csv"
    header = ("iter,obj_scaled,obj_paper,resU,resV,nnzU,nnzV,"
              "distU_final,distV_final,time_s")
    bad_row.write_text(header + "\n1,2,3\n")
    with pytest.raises(ValueError, match="malformed row"):
        read_trace_csv(str(bad_row))


def test_repeat_runs_identical_up_to_timing(tmp_path):
    cfg = small_cfg(max_iters=40)
    dirs = []
    for name in ("one", "two"):
        out = str(tmp_path / name)
        run_experiment(cfg, out)
        dirs.append(out)

    def rows_sans_time(path):
        with open(path) as fh:
            return [line.rsplit(",", 1)[0] for line in fh]

    assert rows_sans_time(os.path.join(dirs[0], "trace.csv")) == \
        rows_sans_time(os.path.join(dirs[1], "trace.csv"))
    summaries = []
    for d in dirs:
        with open(os.path.join(d, "summary.json")) as fh:
            s = json.load(fh)
        s.pop("time_s")
        summaries.append(s)
    assert summaries[0] == summaries[1]


# -------------------------------------------------------------- figures


def test_fig1_full_operator_easy_case():
    cfg = ExperimentConfig(m=30, n=30, r=3, kappa=3, sample_ratio=1.0,
                           operator_kind="full", model="l20",
                           lambda_rule="1e-8 * specnorm(X0)",
                           max_iters=300, seed=0)
    s = run_experiment(cfg)["summary"]
    assert s["reason"] == "converged"
    assert s["iterations"] <= 200
    assert s["rel_error"] <= 1e-8


def test_fig1_budget_stop():
    cfg = small_cfg(max_iters=1, lambda_rule="28 * specnorm(X0)")
    s = run_experiment(cfg)["summary"]
    assert s["reason"] == "budget"
    assert s["iterations"] == 1


def test_fig2_recovers_and_sparsifies(dc_bundle):
    s = dc_bundle["summary"]
    assert s["reason"] == "converged"
    assert s["rel_error"] <= 1e-8
    assert (s["nnz_u"], s["nnz_v"]) == (2, 2)


def test_fig2_surviving_columns_saturate(dc_bundle):
    s = dc_bundle["summary"]
    W = dc_bundle["W"]
    saturation = 2 * s["a"] / (s["a"] + 1)
    for F in (W.U, W.V):
        norms = np.linalg.norm(F, axis=0)
        live = norms[norms > 0]
        assert live.size == 2
        assert np.all(s["rho"] * live >= saturation - 1e-9)


def test_models_agree_on_recovered_product(l20_bundle, dc_bundle):
    X1 = l20_bundle["W"].product()
    X2 = dc_bundle["W"].product()
    M = l20_bundle["M"]
    assert np.linalg.norm(X1 - X2) / np.linalg.norm(M) <= 1e-6


@pytest.fixture(scope="module")
def fig3_sweep(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fig3"))
    cfg = small_cfg(max_iters=1500)
    bundle = run_fig3(cfg, [0.05, 28.0], out_dir=out)
    return out, bundle


def test_fig3_sweep_runs(fig3_sweep):
    _, bundle = fig3_sweep
    tiny, adequate = bundle["runs"]
    assert tiny["c"] == 0.05
    assert (tiny["nnz_u"], tiny["nnz_v"]) == (4, 4)
    assert adequate["c"] == 28.0
    assert adequate["reason"] == "converged"
    assert (adequate["nnz_u"], adequate["nnz_v"]) == (2, 2)
    assert adequate["rel_error"] <= 1e-8


def test_fig3_sweep_files(fig3_sweep):
    out, bundle = fig3_sweep
    with open(os.path.join(out, "sweep.csv")) as fh:
        lines = [line.strip() for line in fh]
    assert lines[0] == ("c,lambda,rho,nnz_u,nnz_v,rel_error,slope,r2,"
                        "iterations,reason,time_s")
    assert len(lines) == 3
    for line, run in zip(lines[1:], bundle["runs"]):
        parts = line.split(",")
        assert float(parts[0]) == run["c"]
        assert float(parts[1]) == run["lambda"]
        assert parts[2] == ""
        assert int(parts[3]) == run["nnz_u"]
        assert float(parts[5]) == run["rel_error"]
        assert parts[9] == run["reason"]
    for c in ("c_0.05", "c_28"):
        sub = os.path.join(out, c)
        for name in ("solution.npz", "trace.csv", "summary.json"):
            assert os.path.exists(os.path.join(sub, name))


def test_fig3_dc_sweep_uses_matched_rules(tmp_path):
    cfg = small_cfg(m=30, n=30, kappa=3, sample_ratio=0.5, model="dc",
                    max_iters=300)
    out = str(tmp_path / "fig3")
    bundle = run_fig3(cfg, [0.03, 0.3], out_dir=out)
    low, high = bundle["runs"]
    M, op, b = bundle["instance"]
    default = harness.build_model_spec(cfg, op, b).params
    assert (low["lambda"], low["rho"]) == (default.lam, default.rho)
    assert high["lambda"] > low["lambda"] and high["rho"] < low["rho"]
    with open(os.path.join(out, "sweep.csv")) as fh:
        header, *rows = [line.strip().split(",") for line in fh]
    assert header[2] == "rho" and len(rows) == 2
    for row, run in zip(rows, bundle["runs"]):
        assert float(row[1]) == run["lambda"]
        assert float(row[2]) == run["rho"]


def test_fig3_needs_two_values():
    with pytest.raises(ConfigError, match="at least 2"):
        run_fig3(small_cfg(), [1.0])


def test_fig3_rejects_scales_that_share_a_directory(tmp_path, monkeypatch):
    """Two c values with the same ``c_{c:g}`` name would write one run over
    the other: that is a config error, raised before any instance or solve."""
    calls = []
    monkeypatch.setattr(harness, "gen_instance", lambda cfg: calls.append(cfg))
    out = tmp_path / "sweep"
    for c_values, shared in (([0.1234561, 0.1234562], "c_0.123456"),
                             ([5.0, 1.0, 5.0], "c_5")):
        with pytest.raises(ConfigError) as info:
            run_fig3(small_cfg(), c_values, out_dir=str(out))
        assert str(info.value).endswith(f"share run directories ['{shared}']")
    assert calls == [] and not out.exists()


def test_fig3_resolves_every_scale_before_solving(tmp_path):
    """A scale whose rules do not resolve on the instance (a negative lambda,
    or a dc rho rule dividing by zero) fails before the first run is solved
    or written."""
    out = tmp_path / "sweep"
    for model, c_values, message in (("l20", [1.0, -1.0], "< 0"),
                                     ("dc", [1.0, 0.0], "division by zero")):
        with pytest.raises(ConfigError, match=message):
            run_fig3(small_cfg(model=model), c_values, out_dir=str(out))
        assert not out.exists()


def test_one_x0_and_one_start_per_instance(monkeypatch):
    """``run_experiment`` and a three-scale ``run_fig3`` each take
    X0 = A*(b) once and build the spectral start once for their instance
    (``solve`` builds none), and resolve each scale's rules once; each fig3
    run's summary is the one ``run_experiment`` gives for that scale, apart
    from the timing."""
    calls = {"adjoint_b": 0, "start": 0, "resolve": 0}
    gen, adjoint = harness.gen_instance, SamplingOperator.adjoint
    build, resolve = harness.build_balanced_factors, harness._resolve_spec
    instances = []

    def counted_gen(cfg):
        instances.append(gen(cfg))
        return instances[-1]

    def counted_adjoint(op, y):
        calls["adjoint_b"] += np.array_equal(y, instances[-1][2])
        return adjoint(op, y)

    def counted_build(X, kappa):
        calls["start"] += 1
        return build(X, kappa)

    def counted_resolve(*args):
        calls["resolve"] += 1
        return resolve(*args)
    monkeypatch.setattr(harness, "gen_instance", counted_gen)
    monkeypatch.setattr(SamplingOperator, "adjoint", counted_adjoint)
    monkeypatch.setattr(harness, "build_balanced_factors", counted_build)
    monkeypatch.setattr(solver, "build_balanced_factors", counted_build)
    monkeypatch.setattr(harness, "_resolve_spec", counted_resolve)
    cfg = small_cfg(m=20, n=20, max_iters=20)
    lam_rule, _ = harness.rules_at_scale("l20", 28.0)
    alone = run_experiment(dataclasses.replace(cfg, lambda_rule=lam_rule))["summary"]
    assert calls == {"adjoint_b": 1, "start": 1, "resolve": 1}
    runs = run_fig3(cfg, [1.0, 28.0, 500.0])["runs"]
    assert calls == {"adjoint_b": 2, "start": 2, "resolve": 4}
    del alone["time_s"]
    assert {k: v for k, v in runs[1].items() if k not in ("c", "time_s")} == alone


@pytest.mark.parametrize("overrides", [
    dict(max_iters=300),
    dict(m=12, n=12, kappa=3, operator_kind="gaussian", max_iters=300),
], ids=["mask", "gaussian"])
def test_harness_start_matches_solve_auto(overrides):
    """The start the harness builds and ``solve``'s "auto" start give the
    same run: W bitwise, and every trace record apart from its time."""
    cfg = small_cfg(**overrides)
    M, op, b = gen_instance(cfg)
    bundle = run_experiment(cfg, instance=(M, op, b))
    W, trace, _ = solve(build_model_spec(cfg, op, b),
                        SolverConfig(epsilon=cfg.epsilon, max_iters=cfg.max_iters),
                        "auto", kappa=cfg.kappa)
    assert np.array_equal(bundle["W"].U, W.U) and np.array_equal(bundle["W"].V, W.V)

    def untimed(trace):
        return np.array([astuple(dataclasses.replace(rec, time_s=0.0))
                         for rec in trace.records])
    assert np.array_equal(untimed(bundle["trace"]), untimed(trace), equal_nan=True)


# -------------------------------------------------------------- diagnose


def test_diagnose_certifies_recovered_solution(tmp_path):
    M, op, b = crafted_instance()
    cfg = ExperimentConfig(m=12, n=10, r=2, kappa=2, sample_ratio=1.0,
                           operator_kind="full", model="l20", mu_tilde=1e-3,
                           lambda_rule="0.5", max_iters=500, seed=0)
    inst, sol = str(tmp_path / "inst"), str(tmp_path / "sol")
    save_instance(inst, cfg, M, op, b)
    run_experiment(cfg, sol, instance=(M, op, b))
    report = diagnose(inst, sol)

    cert = report["certificate"]
    assert cert["passed"]
    assert cert["product_error"] <= 1e-12
    assert (cert["col_count_u"], cert["col_count_v"]) == (2, 2)
    assert cert["rank_product"] == 2
    eigs = report["restricted_eigs"]
    assert eigs["method"] == "exact-full"
    assert eigs["alpha_lower"] == eigs["beta_upper"] == 1.0
    moduli = report["moduli"]
    assert moduli["alpha_ok"] and moduli["condition_ok"]
    assert moduli["gamma"] > 0
    assert report["threshold"]["status"] == "ok"
    assert report["threshold"]["rho_bar"] > 0
    probe = report["probe"]
    assert probe["status"] == "ok"
    assert probe["kept"] == 100
    assert probe["slack"] >= -1e-10

    with open(os.path.join(sol, "diagnosis.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk["schema"] == "l20factor-diagnosis-v1"
    assert on_disk["certificate"] == cert
    assert on_disk["probe"]["slack"] == probe["slack"]


def test_diagnose_takes_the_svd_of_m_once(tmp_path, monkeypatch):
    """The spectrum, the probe's balanced optimum and its radius share one
    SVD of M; the certificate takes one more, of U V^T."""
    M, op, b = crafted_instance()
    cfg = ExperimentConfig(m=12, n=10, r=2, kappa=2, sample_ratio=1.0,
                           operator_kind="full", model="l20", mu_tilde=1e-3,
                           lambda_rule="0.5", max_iters=500, seed=0)
    inst, sol = str(tmp_path / "inst"), str(tmp_path / "sol")
    save_instance(inst, cfg, M, op, b)
    run_experiment(cfg, sol, instance=(M, op, b))
    of_m = []
    svd = linalg._svd

    def counting_svd(A):
        of_m.append(np.array_equal(A, M))
        return svd(A)

    monkeypatch.setattr(linalg, "_svd", counting_svd)
    monkeypatch.setattr(harness, "_PROBE_SAMPLES", 5)
    report = diagnose(inst, sol)
    assert report["probe"]["status"] == "ok"
    assert sorted(of_m) == [False, True]


def test_diagnose_reports_failed_hypotheses(tmp_path):
    M, op, b = crafted_instance()
    cfg = ExperimentConfig(m=12, n=10, r=2, kappa=2, sample_ratio=1.0,
                           operator_kind="full", model="l20", mu_tilde=1e-3,
                           lambda_rule="1e6", max_iters=50, seed=0)
    inst, sol = str(tmp_path / "inst"), str(tmp_path / "sol")
    out = str(tmp_path / "report")
    save_instance(inst, cfg, M, op, b)
    run_experiment(cfg, sol, instance=(M, op, b))
    report = diagnose(inst, sol, out_dir=out)

    assert not report["moduli"]["alpha_ok"]
    assert report["threshold"]["status"] == "hypothesis-failed"
    assert "sqrt" in report["threshold"]["message"]
    assert report["probe"]["status"] == "skipped"
    assert "alpha_ok" in report["probe"]["message"]
    assert os.path.exists(os.path.join(out, "diagnosis.json"))
    assert not os.path.exists(os.path.join(sol, "diagnosis.json"))


def test_diagnose_computes_gaussian_norm_once(tmp_path, monkeypatch):
    cfg = small_cfg(m=12, n=12, kappa=3, operator_kind="gaussian",
                    sample_ratio=0.8, max_iters=300)
    M, op, b = gen_instance(cfg)
    inst, sol = str(tmp_path / "inst"), str(tmp_path / "sol")
    save_instance(inst, cfg, M, op, b)
    run_experiment(cfg, sol, instance=(M, op, b))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(harness, "_PROBE_SAMPLES", 5)
    monkeypatch.setattr(harness, "_EIG_SAMPLES", 1)
    report = diagnose(inst, sol)
    assert report["restricted_eigs"]["method"] == "monte-carlo"
    assert report["threshold"]["status"] != "skipped"
    assert calls == [(op.p, op.p)]
    norm2 = np.linalg.norm(operator_matrix(op), 2) ** 2
    assert report["restricted_eigs"]["beta_upper"] == pytest.approx(norm2, rel=1e-12)


def test_mask_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    op = UniformMaskOperator.from_ratio(7, 5, 0.4, rng)
    path = tmp_path / "mask.txt"
    save_mask(op, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "7 5"
    assert len(text) == 1 + op.p
    assert path.read_bytes() == ("7 5\n" + "".join(
        f"{int(i)} {int(j)}\n" for i, j in zip(op.rows, op.cols))).encode()
    back = load_mask(str(path))
    assert np.array_equal(back.rows, op.rows)
    assert np.array_equal(back.cols, op.cols)


def test_load_mask_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 3 1\n")
    with pytest.raises(ValueError, match="malformed"):
        load_mask(str(path))

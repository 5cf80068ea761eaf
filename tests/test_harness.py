import dataclasses
import json
import math
import os
import sys
from dataclasses import astuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from l20factor import harness, linalg, solver
from l20factor.diagnostics import certify_optimal_pair
from l20factor.harness import (CONFIG_FIELDS, INSTANCE_FIELDS, ConfigError,
                               ExperimentConfig, build_config,
                               build_model_spec, convergence_fit, diagnose,
                               eval_rule, fit_loglinear, gen_instance,
                               load_instance, load_solution,
                               parse_config_file, read_trace_csv,
                               relative_error, run_experiment, run_fig3,
                               save_instance, save_solution, write_trace_csv)
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


@pytest.mark.parametrize("field, value", [
    ("a", np.inf), ("a", np.nan), ("mu_tilde", np.inf), ("mu_tilde", np.nan),
    ("epsilon", np.inf), ("epsilon", np.nan), ("seed", -1)])
def test_config_rejects_non_finite_and_negative_fields_by_name(field, value):
    """A non-finite a, mu_tilde or epsilon, or a negative seed, is a
    ConfigError that names its field, raised where the config is built:
    before any instance is drawn or any penalty parameter is formed."""
    with pytest.raises(ConfigError, match=rf"^{field} must .*, got {value}$"):
        ExperimentConfig(**{field: value})


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
        assert meta["schema"] == "l20factor-instance-v2"
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
            assert not (out / "mask.npy").exists()


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


def test_save_instance_refuses_a_seedless_gaussian(tmp_path):
    """An instance stores a Gaussian operator as its seed, so one built from
    matrices, which has none, is refused before any file is written."""
    cfg = small_cfg(m=15, n=12, kappa=3, operator_kind="gaussian", sample_ratio=0.2)
    M, op, b = gen_instance(cfg)
    seedless = GaussianOperator.from_matrices(op.G)
    out = tmp_path / "inst"
    with pytest.raises(ValueError, match="built from matrices has no seed"):
        save_instance(str(out), cfg, M, seedless, b)
    assert not out.exists()


# meta.json integer keys that load_instance refuses, with the value written.
BAD_META_INTS = [("operator_seed", -1), ("operator_seed", 1.5), ("m", "6"),
                 ("kappa", True), ("seed", -2), ("p", 0), ("r", 2.0)]


@pytest.mark.parametrize("key,value", BAD_META_INTS)
def test_load_instance_requires_integer_meta_fields(tmp_path, key, value):
    """m, n, p, r, kappa, seed and a Gaussian's operator_seed must be ints,
    not bools, in range: a fractional seed would load a different operator,
    and a string or a negative one would fail deep inside numpy. Each is a
    ValueError naming meta.json and the key."""
    cfg = small_cfg(m=15, n=12, kappa=3, operator_kind="gaussian", sample_ratio=0.2)
    save_instance(str(tmp_path), cfg, *gen_instance(cfg))
    meta_path = tmp_path / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=rf"meta\.json: {key} must be an integer "
                                         rf">= [01], got {value!r}"):
        load_instance(str(tmp_path))


# meta.json edits that load_instance refuses: (kind, key, value, message).
BAD_META_DESCRIPTIONS = [
    ("mask", "schema", "something-else",
     r"schema must be 'l20factor-instance-v2', got 'something-else'"),
    ("mask", "schema", "l20factor-instance-v1",
     r"schema must be 'l20factor-instance-v2', got 'l20factor-instance-v1'"),
    ("mask", "sample_ratio", 0.9, r"sample_ratio 0\.9 does not give p = 60 "),
    ("mask", "sample_ratio", "0.5", r"sample_ratio '0\.5' does not give p = 60 "),
    ("gaussian", "sample_ratio", 0.4, r"sample_ratio 0\.4 does not give p = 60 "),
]


@pytest.mark.parametrize("kind,key,value,message", BAD_META_DESCRIPTIONS)
def test_load_instance_requires_meta_to_describe_the_instance(
        tmp_path, kind, key, value, message):
    """meta.json's schema must be this package's, and a mask or Gaussian
    instance's sample_ratio must give its p by gen_instance's rule,
    round(sample_ratio m n): on the 12 x 10 instance with p = 60, a ratio of
    0.9 would misdescribe it in every summary. Each is a ValueError naming
    meta.json and the key."""
    cfg = small_cfg(m=12, n=10, kappa=3, operator_kind=kind, sample_ratio=0.5)
    save_instance(str(tmp_path), cfg, *gen_instance(cfg))
    meta_path = tmp_path / "meta.json"
    meta = json.loads(meta_path.read_text())
    assert meta["p"] == 60
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=rf"meta\.json: {message}"):
        load_instance(str(tmp_path))


def test_full_instance_ignores_sample_ratio(tmp_path):
    """A full instance has p = m n whatever its sample_ratio, so it loads
    with any ratio."""
    cfg = small_cfg(m=12, n=10, kappa=3, operator_kind="full", sample_ratio=0.5)
    save_instance(str(tmp_path), cfg, *gen_instance(cfg))
    meta_path = tmp_path / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["sample_ratio"] = 0.9
    meta_path.write_text(json.dumps(meta))
    meta, _, op, _ = load_instance(str(tmp_path))
    assert (meta["sample_ratio"], op.p) == (0.9, 120)


def dense_words(m, n, p, kappa, per_measurement=1):
    """The size guard's count of the dense arrays, the trace's iterates and
    the measurement vectors, in doubles."""
    return 6 * m * n + per_measurement * p + 65 * (m + n) * kappa


def test_gaussian_size_guard(tmp_path, monkeypatch):
    """A Gaussian operator over the byte limit is a ConfigError, from a config
    or from a stored meta.json, before anything is allocated. Both count the
    dense arrays, the tensor and the larger of the norm's Gram (with
    eigvalsh's copy of it) and, for a config, the solver's three
    kappa-column blocks; a stored instance, which diagnose also loads,
    builds no blocks and no iterates."""
    with pytest.raises(ConfigError, match=r"needs 22\.6 GiB for its 300x300 arrays, "
                                          r"its 22500x300x300 tensor, its norm's Gram "
                                          r"and kappa=15 blocks, over the 2 GiB limit"):
        ExperimentConfig(operator_kind="gaussian")
    ExperimentConfig(operator_kind="mask")
    shape = dict(m=15, n=12, kappa=3, operator_kind="gaussian", sample_ratio=0.2)
    p = 36  # 0.2 * 15 * 12
    tensor = 8 * p * 15 * 12
    gram = 8 * 2 * p * p
    blocks = 8 * p * 3 * 15 * 3  # a gauge move's three maps that fix a V
    assert blocks > gram
    dense = 8 * dense_words(15, 12, p, 3)
    monkeypatch.setattr(harness, "MAX_BYTES", dense + tensor + blocks)
    cfg = small_cfg(**shape)
    monkeypatch.setattr(harness, "MAX_BYTES", dense + tensor + blocks - 1)
    with pytest.raises(ConfigError, match="36x15x12 tensor, its norm's Gram "
                                          "and kappa=3 blocks"):
        small_cfg(**shape)

    M, op, b = gen_instance(cfg)
    save_instance(str(tmp_path), cfg, M, op, b)
    dense = 8 * dense_words(15, 12, p, 0)
    monkeypatch.setattr(harness, "MAX_BYTES", dense + tensor + gram)
    load_instance(str(tmp_path))
    monkeypatch.setattr(harness, "MAX_BYTES", dense + tensor + gram - 1)
    with pytest.raises(ConfigError, match="36x15x12 tensor, its norm's Gram, over"):
        load_instance(str(tmp_path))
    monkeypatch.undo()
    meta_path = tmp_path / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["p"] = 2_000_000
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match="2000000x15x12 tensor"):
        load_instance(str(tmp_path))


@pytest.mark.parametrize("kind", ["mask", "full"])
def test_mask_and_full_size_guard(tmp_path, monkeypatch, kind):
    """The same limit holds for a mask or a full operator, none of which is
    ever allocated here: a config over it is a ConfigError, and so is a
    stored meta.json over it, before load_instance reads any array (the
    arrays are deleted first). A mask counts 8 doubles per measurement,
    and its curvature three arrays of max(m, n) kappa x kappa blocks."""
    with pytest.raises(ConfigError, match=rf"{kind} operator needs \d+\.\d GiB "
                                          r"for its 200000x200000 arrays and "
                                          r"kappa=15 iterates, over the 2 GiB limit"):
        ExperimentConfig(m=200000, n=200000, operator_kind=kind)
    shape = dict(m=15, n=12, kappa=3, operator_kind=kind, sample_ratio=0.2)
    p = 36 if kind == "mask" else 180
    need = 8 * (dense_words(15, 12, p, 3, 8 if kind == "mask" else 1)
                + (3 * 15 * 9 if kind == "mask" else 0))
    monkeypatch.setattr(harness, "MAX_BYTES", need)
    cfg = small_cfg(**shape)
    monkeypatch.setattr(harness, "MAX_BYTES", need - 1)
    with pytest.raises(ConfigError, match=f"{kind} operator needs"):
        small_cfg(**shape)
    monkeypatch.undo()

    save_instance(str(tmp_path), cfg, *gen_instance(cfg))
    for name in ("M.npy", "b.npy", "mask.npy"):
        if (tmp_path / name).exists():
            (tmp_path / name).unlink()
    meta_path = tmp_path / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta.update(m=200000, n=200000, p=40000000000 if kind == "full" else 10**10)
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match=f"{kind} operator needs .* for its "
                                          "200000x200000 arrays, over"):
        load_instance(str(tmp_path))


def test_solution_roundtrip(tmp_path, l20_bundle):
    out = str(tmp_path / "sol")
    save_solution(out, l20_bundle["W"], l20_bundle["trace"],
                  l20_bundle["summary"])
    W2, summary2 = load_solution(out)
    assert np.array_equal(W2.U, l20_bundle["W"].U)
    assert np.array_equal(W2.V, l20_bundle["W"].V)
    assert summary2 == l20_bundle["summary"]


def test_trace_csv_roundtrip_exact(tmp_path, monkeypatch):
    # The trace holds at most _KEPT + 1 iterates; at 8 this run holds fewer
    # than it records, so some records have NaN distances, which must read
    # back as NaN; every other field reads back exactly
    monkeypatch.setattr(solver, "_KEPT", 8)
    trace = run_experiment(small_cfg(lambda_rule="28 * specnorm(X0)"))["trace"]
    path = str(tmp_path / "trace.csv")
    write_trace_csv(trace, path)
    records = trace.records
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
    X0 = A*(b) once and decompose it once for their instance, the one
    ``top_svd`` that gives both ||X0||_2 and the spectral start (``solve``
    decomposes nothing), and resolve each scale's rules once; each fig3
    run's summary is the one ``run_experiment`` gives for that scale, apart
    from the timing."""
    calls = {"adjoint_b": 0, "decompose": 0, "resolve": 0}
    gen, adjoint = harness.gen_instance, SamplingOperator.adjoint
    top_svd, resolve = linalg._top_svd, harness._resolve_spec
    instances = []

    def counted_gen(cfg):
        instances.append(gen(cfg))
        return instances[-1]

    def counted_adjoint(op, y):
        calls["adjoint_b"] += np.array_equal(y, instances[-1][2])
        return adjoint(op, y)

    def counted_top_svd(A, k):
        calls["decompose"] += 1
        return top_svd(A, k)

    def counted_resolve(*args):
        calls["resolve"] += 1
        return resolve(*args)
    monkeypatch.setattr(harness, "gen_instance", counted_gen)
    monkeypatch.setattr(SamplingOperator, "adjoint", counted_adjoint)
    monkeypatch.setattr(linalg, "_top_svd", counted_top_svd)
    monkeypatch.setattr(harness, "_resolve_spec", counted_resolve)
    cfg = small_cfg(m=20, n=20, max_iters=20)
    lam_rule, _ = harness.rules_at_scale("l20", 28.0)
    alone = run_experiment(dataclasses.replace(cfg, lambda_rule=lam_rule))["summary"]
    assert calls == {"adjoint_b": 1, "decompose": 1, "resolve": 1}
    runs = run_fig3(cfg, [1.0, 28.0, 500.0])["runs"]
    assert calls == {"adjoint_b": 2, "decompose": 2, "resolve": 4}
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


def test_zero_measurements_give_the_zero_start_and_lambda_zero():
    """b = 0 makes X0 = 0: its decomposition has sigma_1 = 0, so every
    specnorm(X0) rule resolves to lambda = 0, the start is the zero pair,
    and the run and ``solve``'s "auto" start both stay there."""
    cfg = small_cfg(m=30, n=24, kappa=3, max_iters=50)
    M, op, _ = gen_instance(cfg)
    b = np.zeros(op.p)
    spec = build_model_spec(cfg, op, b)
    assert spec.params.lam == 0.0
    bundle = run_experiment(cfg, instance=(M, op, b))
    assert bundle["summary"]["lambda"] == 0.0
    assert bundle["summary"]["reason"] == "converged"
    W, _, _ = solve(spec, SolverConfig(max_iters=5), "auto", kappa=cfg.kappa)
    for F in (bundle["W"].U, bundle["W"].V, W.U, W.V):
        assert not np.any(F)


# -------------------------------------------------------------- diagnose


@pytest.mark.parametrize("model,rho_rule", [("l20", None), ("dc", "1")])
def test_diagnose_at_lambda_zero_skips_the_growth_theory(tmp_path, model, rho_rule):
    """A lambda = 0 solve is valid, but nu = 1/lambda is undefined, so
    diagnose reports the certificate and skips the moduli, the threshold
    and the probe, for either model. With no penalty the solve keeps all
    kappa = 3 columns, so the certificate fails."""
    cfg = ExperimentConfig(m=12, n=10, r=2, kappa=3, sample_ratio=0.6, seed=1,
                           model=model, lambda_rule="0", rho_rule=rho_rule)
    M, op, b = gen_instance(cfg)
    inst, sol = str(tmp_path / "inst"), str(tmp_path / "sol")
    save_instance(inst, cfg, M, op, b)
    assert run_experiment(cfg, sol, instance=(M, op, b))["summary"]["reason"] \
        == "converged"
    report = diagnose(inst, sol)
    cert = report["certificate"]
    assert (cert["col_count_u"], cert["col_count_v"], cert["passed"]) == (3, 3, False)
    assert report["rel_error"] == cert["product_error"]
    for key in ("moduli", "threshold", "probe"):
        assert report[key] == {"status": "skipped",
                               "message": "nu = 1/lambda is undefined at lambda = 0"}


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


def test_no_full_svd_of_an_m_by_n_matrix(tmp_path, monkeypatch):
    """``build_model_spec``, ``run_experiment``, ``run_fig3``,
    ``solve(W0="auto")`` and ``diagnose`` take no SVD of an m x n matrix,
    neither directly nor inside ``np.linalg.norm(X, 2)``: X0 and M are
    decomposed only through ``top_svd``'s small w x n SVD, with
    w = kappa + 10 < min(m, n) here. The full-sampling instance is
    recovered, so diagnose reaches the probe."""
    cfg = ExperimentConfig(m=30, n=24, r=2, kappa=3, sample_ratio=1.0,
                           operator_kind="full", model="l20", mu_tilde=1e-3,
                           lambda_rule="0.5", max_iters=500, seed=0)
    M, op, b = gen_instance(cfg)
    inst, sol = str(tmp_path / "inst"), str(tmp_path / "sol")
    save_instance(inst, cfg, M, op, b)
    of_m = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if np.shape(a) == M.shape:
            of_m.append(np.shape(a))
        return svd(a, *args, **kwargs)

    # np.linalg.norm(X, 2) calls the implementation module's own svd.
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(sys.modules[np.linalg.norm.__module__], "svd", counting_svd)
    monkeypatch.setattr(harness, "_PROBE_SAMPLES", 5)
    spec = build_model_spec(cfg, op, b)
    run_experiment(cfg, sol, instance=(M, op, b))
    run_fig3(cfg, [28.0, 55.0])
    solve(spec, SolverConfig(max_iters=5), "auto", kappa=cfg.kappa)
    report = diagnose(inst, sol)
    assert report["certificate"]["passed"]
    assert report["probe"]["drawn"] > 0
    assert of_m == []


def test_diagnose_widens_past_kappa_only_for_a_high_rank_m(tmp_path, monkeypatch):
    """``diagnose`` decomposes M at the solution's kappa, and widens to all
    min(m, n) triples only when every value it found is above the rank
    tolerance: a hand-edited M of rank 16 > kappa + 10 still reports rank
    16 and sigma_r exactly, as M's full SVD gives them."""
    cfg = small_cfg(m=30, n=24, kappa=3, max_iters=300)
    M, op, b = gen_instance(cfg)
    inst, sol = str(tmp_path / "inst"), str(tmp_path / "sol")
    save_instance(inst, cfg, M, op, b)
    run_experiment(cfg, sol, instance=(M, op, b))
    widths = []
    top_svd = linalg._top_svd

    def counted(A, k):
        widths.append(k)
        return top_svd(A, k)
    monkeypatch.setattr(linalg, "_top_svd", counted)
    monkeypatch.setattr(harness, "_PROBE_SAMPLES", 5)
    assert diagnose(inst, sol)["spectrum"]["rank"] == cfg.r
    assert widths == [cfg.kappa]

    rng = np.random.default_rng(3)
    high = rng.standard_normal((30, 16)) @ rng.standard_normal((24, 16)).T
    np.save(os.path.join(inst, "M.npy"), high)
    widths.clear()
    spectrum = diagnose(inst, sol)["spectrum"]
    sigma = np.linalg.svd(high, compute_uv=False)
    assert widths == [cfg.kappa, 24]
    assert spectrum["rank"] == 16
    assert spectrum["sigma1"] == pytest.approx(sigma[0], rel=1e-14)
    assert spectrum["sigma_r"] == pytest.approx(sigma[15], rel=1e-12)


@pytest.fixture(scope="module", params=[
    dict(max_iters=300),
    dict(m=12, n=12, kappa=3, operator_kind="gaussian", max_iters=300),
], ids=["mask", "gaussian"])
def solved_dirs(request, tmp_path_factory):
    """A seeded small instance directory, its solution directory and M."""
    cfg = small_cfg(**request.param)
    M, op, b = gen_instance(cfg)
    root = tmp_path_factory.mktemp(request.param.get("operator_kind", "mask"))
    inst, sol = str(root / "inst"), str(root / "sol")
    save_instance(inst, cfg, M, op, b)
    run_experiment(cfg, sol, instance=(M, op, b))
    return inst, sol, M


def test_diagnose_is_deterministic(solved_dirs, tmp_path):
    """Two diagnoses of the same directories write byte-identical reports."""
    inst, sol, _ = solved_dirs
    reports = []
    for name in ("first", "second"):
        diagnose(inst, sol, out_dir=str(tmp_path / name))
        with open(tmp_path / name / "diagnosis.json", "rb") as fh:
            reports.append(fh.read())
    assert reports[0] == reports[1]


def test_certificate_takes_m_spectrum_from_caller(solved_dirs):
    """Passing M's singular values changes nothing in the certificate."""
    _, sol, M = solved_dirs
    W, _ = load_solution(sol)
    sigma = linalg.svd(M).sigma
    assert certify_optimal_pair(W, M, sigma) == certify_optimal_pair(W, M)


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


def test_mask_instance_stores_the_flat_index(tmp_path):
    """A mask instance stores its operator as mask.npy, the row-major flat
    index ``op.flat`` in measurement order, bitwise, beside M.npy, b.npy
    and meta.json; ``load_instance`` rebuilds the same operator from it and
    meta.json's shape."""
    cfg = small_cfg(m=7, n=5, r=1, kappa=2, seed=10)
    M, op, b = gen_instance(cfg)
    assert not np.all(np.diff(op.flat) > 0)
    save_instance(str(tmp_path), cfg, M, op, b)
    assert sorted(os.listdir(tmp_path)) == ["M.npy", "b.npy", "mask.npy", "meta.json"]
    stored = np.load(tmp_path / "mask.npy")
    assert stored.dtype == op.flat.dtype and stored.tobytes() == op.flat.tobytes()
    _, _, back, b2 = load_instance(str(tmp_path))
    for key in ("rows", "cols", "flat"):
        assert np.array_equal(getattr(back, key), getattr(op, key))
    assert np.array_equal(back.apply(M), b) and np.array_equal(b2, b)

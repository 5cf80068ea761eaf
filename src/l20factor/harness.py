"""Experiment orchestration: instance generation, runs, summaries, files.

Everything the command line does lives here as plain functions so tests can
drive it directly. File formats:

* instance directory: meta.json, M.npy, b.npy, and mask.txt for mask
  operators (the Gaussian operator is regenerated from its seed in meta).
* solution directory: solution.npz (U, V), trace.csv, summary.json.
* trace.csv: the ``TraceRecord`` fields in order, headed by ``CSV_COLUMNS``.
  Floats use %.17g so re-parsing is exact.

Loaders raise ValueError naming the file and key of a malformed file.

All files are written atomically (temp file + rename).
"""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import os
import tempfile
import time
import typing
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import linalg
from .diagnostics import (certify_optimal_pair, exact_penalty_threshold,
                          kl_inequality_probe, kl_moduli, rank_revealing_svd)
from .objective import MODELS, FactorPair, ModelSpec, balanced_factors
from .penalty import PenaltyParams
from .sampling import (FullOperator, GaussianOperator, SamplingOperator,
                       UniformMaskOperator, estimate_restricted_eigs)
from .solver import _KEPT, SolveTrace, SolverConfig, TraceRecord, solve

OPERATOR_KINDS = ("full", "mask", "gaussian")
CSV_COLUMNS = ("iter", "obj_scaled", "obj_paper", "resU", "resV", "nnzU",
               "nnzV", "distU_final", "distV_final", "time_s")

# Penalty scale c of each model's default rules (see rules_at_scale).
_DEFAULT_SCALE = {"l20": 55, "dc": 0.03}

# Offset separating the Gaussian operator's entry stream from the stream
# that draws M, so the measurements stay independent of the signal.
_OPERATOR_SEED_OFFSET = 1000003

# Largest memory a configuration may need at its peak (see _check_size).
# Bigger ones fail fast, not by OOM.
MAX_BYTES = 2 * 2**30

# Mask entries that ``save_mask`` formats at a time.
_MASK_CHUNK = 2**16

# ``diagnose``'s sampling: growth-probe samples, Monte Carlo restricted
# eigenvalue samples, and the seed of both.
_PROBE_SAMPLES = 100
_EIG_SAMPLES = 6
_DIAGNOSE_SEED = 0


class ConfigError(ValueError):
    """Invalid configuration or rule expression (CLI exit category: config)."""


def _check_size(kind: str, p: int, m: int, n: int, kappa: int) -> None:
    """Fail if a configuration's peak memory is over ``MAX_BYTES``.

    The peak is counted in doubles. Measured by ``ru_maxrss`` at 1200 x
    1200, less the interpreter's own, a stage holds at most these dense
    m x n arrays, with rho = p / (m n):
    - a mask solve, 4 + 7 rho: M, X0 = A*(b) during the spectral start,
      the pattern, the work array, a product, and the index and
      measurement vectors;
    - a full solve, 5.2, with b and the residuals m n long;
    - diagnosing a mask instance, 3.2 at rho = 0.05 and 4.0 at 0.25;
    - saving and loading, at most 1.2 + 4 rho.
    So the bound is 6 m n doubles plus, per measurement, 8 on a mask and 1
    on the other kinds. A solve at ``kappa`` adds the trace's ``_KEPT`` + 1
    iterates, (m + n) kappa each, and on a mask the curvature's three
    max(m, n) x kappa (kappa + 1) / 2 products. A Gaussian operator adds
    its p x m x n tensor and the larger of two things that are never alive
    together. ``operator_norm`` forms a Gram of min(p, m n)^2 doubles, and
    ``eigvalsh`` copies it. A solve holds at most three restricted-map
    blocks of p x (rows * kappa) doubles: inside a step the map that fixes
    V, the one that fixes U+ and the one that fixes V+ (rows m, n and m);
    during a gauge move or a rank drop the maps of the state before the
    step, of the state after it and the re-gauged one (rows m). A stored
    instance is checked at kappa = 0, as diagnose builds no solver state.
    """
    p, m, n, kappa = int(p), int(m), int(n), int(kappa)
    need = 6 * m * n + (8 if kind == "mask" else 1) * p \
        + (_KEPT + 1) * (m + n) * kappa
    what = f"its {m}x{n} arrays"
    if kind == "mask":
        need += 3 * max(m, n) * (kappa * (kappa + 1) // 2)
    if kind == "gaussian":
        need += p * m * n + max(2 * min(p, m * n) ** 2,
                                p * kappa * (2 * m + max(m, n)))
        what += f", its {p}x{m}x{n} tensor, its norm's Gram"
    if kappa:
        what += f" and kappa={kappa} " + ("blocks" if kind == "gaussian" else "iterates")
    if 8 * need > MAX_BYTES:
        raise ConfigError(f"{kind} operator needs {8 * need / 2**30:.1f} GiB for {what}, "
                          f"over the {MAX_BYTES / 2**30:g} GiB limit")


@dataclass
class ExperimentConfig:
    """One experiment: shapes, operator, model, parameter rules, solver knobs."""

    m: int = 300
    n: int = 300
    r: int = 5
    kappa: int = 15
    sample_ratio: float = 0.25
    operator_kind: str = "mask"
    model: str = "l20"
    a: float = 3.7
    mu_tilde: float = 1e-3
    lambda_rule: str | None = None
    rho_rule: str | None = None
    epsilon: float = 1e-10
    max_iters: int = 20000
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.r <= self.kappa <= min(self.m, self.n):
            raise ConfigError(
                f"need 1 <= r <= kappa <= min(m, n), got r={self.r}, "
                f"kappa={self.kappa}, m={self.m}, n={self.n}"
            )
        if not 0 < self.sample_ratio <= 1:
            raise ConfigError(f"sample_ratio must lie in (0, 1], got {self.sample_ratio}")
        if round(self.sample_ratio * self.m * self.n) < 1:
            raise ConfigError("sample_ratio gives an empty measurement set")
        if self.operator_kind not in OPERATOR_KINDS:
            raise ConfigError(f"operator_kind must be one of {OPERATOR_KINDS}")
        _check_size(self.operator_kind, self.m * self.n if self.operator_kind == "full"
                    else round(self.sample_ratio * self.m * self.n),
                    self.m, self.n, self.kappa)
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if not self.a > 1:
            raise ConfigError(f"a must exceed 1, got {self.a}")
        if self.mu_tilde < 0:
            raise ConfigError(f"mu_tilde must be nonnegative, got {self.mu_tilde}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")


# Field -> type: the config-file keys, the CLI flag dests and the coercions.
CONFIG_FIELDS = typing.get_type_hints(ExperimentConfig)
# The fields that describe the instance: gen's flags and config keys.
# meta.json holds them plus schema, p and a Gaussian operator's seed.
INSTANCE_FIELDS = ("m", "n", "r", "kappa", "sample_ratio", "operator_kind", "seed")
_NOUNS = {int: "an integer", float: "a number"}


def parse_config_file(path: str, fields) -> dict:
    """Read a key=value config file; '#' starts a comment; each key is one
    of ``fields`` and appears once."""
    out: dict = {}
    lines: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in lines:
                raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
            lines[key] = lineno
            out[key] = value
    return out


def build_config(*mappings) -> ExperimentConfig:
    """Merge string/typed mappings left to right into an ExperimentConfig."""
    merged: dict = {}
    for mapping in mappings:
        for key, value in mapping.items():
            if value is None:
                continue
            if key not in CONFIG_FIELDS:
                raise ConfigError(f"unknown config key {key!r}")
            kind = CONFIG_FIELDS[key]
            if isinstance(value, str) and kind in _NOUNS:
                try:
                    value = kind(value)
                except ValueError as err:
                    raise ConfigError(f"{key} must be {_NOUNS[kind]}: {err}") from err
            merged[key] = value
    try:
        return ExperimentConfig(**merged)
    except TypeError as err:
        raise ConfigError(str(err)) from err


_BIN_OPS = {
    ast.Add: lambda x, y: x + y,
    ast.Sub: lambda x, y: x - y,
    ast.Mult: lambda x, y: x * y,
    ast.Div: lambda x, y: x / y,
    ast.Pow: lambda x, y: x ** y,
}


def eval_rule(rule: str, a: float, specnorm_x0: float) -> float:
    """Evaluate a parameter rule such as "0.15 * specnorm(X0)".

    The grammar is numeric literals, + - * / and ^ (power), parentheses,
    the name ``a``, and the call ``specnorm(X0)``. Anything else is a
    ConfigError. Plain constants ("0.5") are accepted.
    """
    text = rule.replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as err:
        raise ConfigError(f"cannot parse rule {rule!r}: {err}") from err

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                return float(node.value)
            raise ConfigError(f"rule {rule!r}: non-numeric literal {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id == "a":
                return float(a)
            raise ConfigError(f"rule {rule!r}: unknown name {node.id!r} "
                              "(only 'a' and 'specnorm(X0)' are available)")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            val = ev(node.operand)
            return val if isinstance(node.op, ast.UAdd) else -val
        if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
            return _BIN_OPS[type(node.op)](ev(node.left), ev(node.right))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "specnorm" and not node.keywords
                and len(node.args) == 1 and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "X0"):
            return float(specnorm_x0)
        raise ConfigError(f"rule {rule!r}: unsupported syntax")

    try:
        value = ev(tree)
    except ZeroDivisionError as err:
        raise ConfigError(f"rule {rule!r}: division by zero") from err
    except OverflowError as err:
        raise ConfigError(f"rule {rule!r} evaluated to a non-finite value") from err
    if isinstance(value, complex):
        raise ConfigError(f"rule {rule!r} evaluated to a non-real value")
    if not math.isfinite(value):
        raise ConfigError(f"rule {rule!r} evaluated to a non-finite value")
    return value


def gen_instance(cfg: ExperimentConfig):
    """Draw (M, op, b): M = G1 G2^T with Gaussian factors, then measurements.

    The draw order (G1, G2, then the mask) is part of the determinism
    contract; changing it invalidates seeded expectations in tests.
    """
    rng = np.random.default_rng(cfg.seed)
    G1 = rng.standard_normal((cfg.m, cfg.r))
    G2 = rng.standard_normal((cfg.n, cfg.r))
    M = G1 @ G2.T
    if cfg.operator_kind == "full":
        op: SamplingOperator = FullOperator(cfg.m, cfg.n)
    elif cfg.operator_kind == "mask":
        op = UniformMaskOperator.from_ratio(cfg.m, cfg.n, cfg.sample_ratio, rng)
    else:
        p = int(round(cfg.sample_ratio * cfg.m * cfg.n))
        op = GaussianOperator(cfg.m, cfg.n, p, seed=cfg.seed + _OPERATOR_SEED_OFFSET)
    return M, op, op.apply(M)


def rules_at_scale(model: str, c) -> tuple[str, str | None]:
    """(lambda_rule, rho_rule) at scale c: lambda = c ||X0|| for l20; for dc
    the quadratic lambda rule and its matched rho rule. c is written by repr."""
    if model == "l20":
        return f"{c!r} * specnorm(X0)", None
    return (f"((a+1)/2) * ({c!r} * specnorm(X0))^2",
            f"2 / ((a+1) * {c!r} * specnorm(X0))")


def build_model_spec(cfg: ExperimentConfig, op: SamplingOperator, b) -> ModelSpec:
    """Resolve the parameter rules against X0 = A*(b) and assemble the spec;
    an unset rule takes ``rules_at_scale`` at its model's default scale."""
    b = linalg.as_vector(b, "b")
    return _resolve_spec(cfg, op, b, _x0_decomposition(cfg, op, b))


def _x0_decomposition(cfg: ExperimentConfig, op: SamplingOperator, b) -> linalg.SvdResult:
    """The leading cfg.kappa triples of X0 = A*(b) for a checked b
    (``linalg.top_svd``): sigma_1 is the rules' ``specnorm(X0)``, and
    ``balanced_factors`` of it is the spectral start, the one
    ``solve(W0="auto")`` builds."""
    return linalg._top_svd(op.adjoint(b), cfg.kappa)


def _resolve_spec(cfg: ExperimentConfig, op: SamplingOperator, b,
                  x0: linalg.SvdResult) -> ModelSpec:
    """``build_model_spec`` with X0's ``_x0_decomposition`` given, for
    callers that also start from it or resolve several configs on one
    instance."""
    x0_norm = float(x0.sigma[0])
    default_lam, default_rho = rules_at_scale(cfg.model, _DEFAULT_SCALE[cfg.model])
    lam_rule = cfg.lambda_rule if cfg.lambda_rule is not None else default_lam
    lam = eval_rule(lam_rule, cfg.a, x0_norm)
    if lam < 0:
        raise ConfigError(f"lambda rule {lam_rule!r} evaluated to {lam} < 0")
    rho = None
    if cfg.model == "dc":
        rho_rule = cfg.rho_rule if cfg.rho_rule is not None else default_rho
        rho = eval_rule(rho_rule, cfg.a, x0_norm)
        if rho <= 0:
            raise ConfigError(f"rho rule {rho_rule!r} evaluated to {rho} <= 0")
    params = PenaltyParams(lam=lam, mu_tilde=cfg.mu_tilde, a=cfg.a, rho=rho)
    return ModelSpec(model=cfg.model, op=op, b=b, params=params)


def relative_error(W: FactorPair, M) -> float:
    M = linalg.as_matrix(M, "M")
    return float(np.linalg.norm(W.product() - M) / np.linalg.norm(M))


def fit_loglinear(xs, ys) -> tuple[float, float]:
    """Least-squares fit of log(y) vs x; returns (slope, r_squared).

    Points with nonpositive or non-finite y are dropped; fewer than two
    surviving points give (nan, nan); a constant log-series gives R^2 = 1.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(ys) & (ys > 0) & np.isfinite(xs)
    xs, ys = xs[keep], ys[keep]
    if xs.size < 2:
        return math.nan, math.nan
    logs = np.log(ys)
    slope, intercept = np.polyfit(xs, logs, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


def convergence_fit(trace: SolveTrace) -> tuple[float, float]:
    """Slope/R^2 of log ||U^k - U^f||_F from the last support change onward.

    The fit starts at the trace's ``anchor``, the last record whose
    (nnz_u, nnz_v) differs from the record before it (the first record if
    the support never changes): the linear rate is a property of the tail
    where the support is fixed, and a plateau before a late prune would
    otherwise swamp it. Fewer than 10 records from that change on give
    (nan, nan). The trace holds a bounded reservoir of iterates, evenly
    spaced from the same change (``SolveTrace``); a record whose iterate it
    dropped has a NaN distance, which ``fit_loglinear`` drops, so the fit
    reads the evenly thinned tail.
    """
    tail = [rec for rec in trace.records if rec.iteration >= trace.anchor]
    if len(tail) < 10:
        return math.nan, math.nan
    xs = [rec.iteration for rec in tail]
    ys = [rec.dist_u_final for rec in tail]
    return fit_loglinear(xs, ys)


def _atomic_write(path: str, write) -> None:
    """``write(fh)`` fills a temp file beside ``path``, which then replaces
    it; the content streams to disk, so no copy of it is held in memory."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_text(path: str, text: str) -> None:
    _atomic_write(path, lambda fh: fh.write(text.encode()))


def _atomic_json(path: str, obj) -> None:
    _atomic_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


# TraceRecord's fields in order: the trace columns, each with its type.
_TRACE_TYPES = typing.get_type_hints(TraceRecord)
_trace_row = attrgetter(*_TRACE_TYPES)


def write_trace_csv(trace: SolveTrace, path: str) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for rec in trace.records:
        lines.append(",".join(map(_fmt, _trace_row(rec))))
    _atomic_text(path, "\n".join(lines) + "\n")


def read_trace_csv(path: str) -> list[TraceRecord]:
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path}: unexpected header")
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"{path}: malformed row {line!r}")
        records.append(TraceRecord(
            *(kind(part) for kind, part in zip(_TRACE_TYPES.values(), parts))))
    return records


def save_mask(op: UniformMaskOperator, path: str) -> None:
    """Write a mask as text: first line "m n", then one 0-based "i j" per
    entry, formatted ``_MASK_CHUNK`` entries at a time, so the text of only
    one chunk is held in memory."""
    def write(fh):
        fh.write(f"{op.m} {op.n}\n".encode())
        for at in range(0, op.p, _MASK_CHUNK):
            # Python ints format about twice as fast as numpy scalars.
            pairs = zip(op.rows[at:at + _MASK_CHUNK].tolist(),
                        op.cols[at:at + _MASK_CHUNK].tolist())
            fh.write("".join(f"{i} {j}\n" for i, j in pairs).encode())
    _atomic_write(path, write)


def load_mask(path: str) -> UniformMaskOperator:
    """Read a mask written by ``save_mask``; a malformed file is a ValueError
    naming it (bad token, ragged line, index out of range, duplicate entry)."""
    try:
        vals = np.loadtxt(path, dtype=np.int64, ndmin=2)
        if vals.shape[0] < 2 or vals.shape[1] != 2:
            raise ValueError('expected a line "m n", then one "i j" line per entry')
        return UniformMaskOperator(vals[0, 0], vals[0, 1], vals[1:, 0], vals[1:, 1])
    except ValueError as err:
        raise ValueError(f"malformed mask file {path}: {err}") from err


def _require(path: str, mapping, keys) -> None:
    for key in keys:
        if key not in mapping:
            raise ValueError(f"{path}: missing key {key!r}")


# meta.json's integer keys and their least values (numpy seeds from 0).
_META_INTS = {"m": 1, "n": 1, "p": 1, "r": 1, "kappa": 1, "seed": 0,
              "operator_seed": 0}
_INSTANCE_SCHEMA = "l20factor-instance-v1"


def save_instance(out_dir: str, cfg: ExperimentConfig, M, op: SamplingOperator,
                  b) -> None:
    """A Gaussian operator is stored as its seed, so one built from
    matrices, which has none, is refused before any file is written."""
    if isinstance(op, GaussianOperator) and op.seed < 0:
        raise ValueError("a Gaussian operator built from matrices has no seed, "
                         "and an instance stores the operator as its seed")
    os.makedirs(out_dir, exist_ok=True)
    meta = {"schema": _INSTANCE_SCHEMA, "p": op.p,
            **{key: getattr(cfg, key) for key in INSTANCE_FIELDS}}
    if isinstance(op, GaussianOperator):
        meta["operator_seed"] = op.seed
    _atomic_write(os.path.join(out_dir, "M.npy"), lambda f: np.save(f, M))
    _atomic_write(os.path.join(out_dir, "b.npy"), lambda f: np.save(f, b))
    if isinstance(op, UniformMaskOperator):
        save_mask(op, os.path.join(out_dir, "mask.txt"))
    _atomic_json(os.path.join(out_dir, "meta.json"), meta)


def load_instance(in_dir: str):
    """Returns (meta, M, op, b) from a directory written by save_instance;
    meta needs this package's schema and ints in range, and its shapes must
    pass ``_check_size``, checked before any array is read. Its m, n and p,
    M and b must fit the operator, and so must sample_ratio but for a full
    instance, by ``gen_instance``'s rule p = round(sample_ratio m n)."""
    meta_path = os.path.join(in_dir, "meta.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    _require(meta_path, meta, ("schema", "p", *INSTANCE_FIELDS))
    if meta["schema"] != _INSTANCE_SCHEMA:
        raise ValueError(f"{meta_path}: schema must be {_INSTANCE_SCHEMA!r}, "
                         f"got {meta['schema']!r}")
    for key, least in _META_INTS.items():
        if key in meta and (type(meta[key]) is not int or meta[key] < least):
            raise ValueError(f"{meta_path}: {key} must be an integer >= {least}, "
                             f"got {meta[key]!r}")
    kind = meta["operator_kind"]
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"{meta_path}: unknown operator_kind {kind!r}")
    if kind == "gaussian":
        _require(meta_path, meta, ("operator_seed",))
    _check_size(kind, meta["p"], meta["m"], meta["n"], kappa=0)
    M_path, b_path = os.path.join(in_dir, "M.npy"), os.path.join(in_dir, "b.npy")
    M = linalg.as_matrix(np.load(M_path), "M")
    b = linalg.as_vector(np.load(b_path), "b")
    if kind == "full":
        op: SamplingOperator = FullOperator(meta["m"], meta["n"])
    elif kind == "mask":
        op = load_mask(os.path.join(in_dir, "mask.txt"))
    else:
        op = GaussianOperator(meta["m"], meta["n"], meta["p"],
                              seed=meta["operator_seed"])
    checks = [(meta_path, key, meta[key], getattr(op, key)) for key in ("m", "n", "p")]
    checks += [(M_path, "shape", M.shape, (op.m, op.n)), (b_path, "length", b.size, op.p)]
    for path, key, stored, expected in checks:
        if stored != expected:
            raise ValueError(f"{path}: {key} is {stored}, the operator's is {expected}")
    ratio = meta["sample_ratio"]
    if kind != "full" and not (type(ratio) in (int, float) and 0 < ratio <= 1
                               and round(ratio * op.m * op.n) == op.p):
        raise ValueError(f"{meta_path}: sample_ratio {ratio!r} does not give "
                         f"p = {op.p} as round(sample_ratio * m * n)")
    return meta, M, op, b


def save_solution(out_dir: str, W: FactorPair, trace: SolveTrace,
                  summary: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "solution.npz"),
                  lambda f: np.savez(f, U=W.U, V=W.V))
    write_trace_csv(trace, os.path.join(out_dir, "trace.csv"))
    _atomic_json(os.path.join(out_dir, "summary.json"), summary)


def load_solution(in_dir: str):
    """Returns (W, summary) from a directory written by save_solution;
    summary.json must hold the keys ``diagnose`` reads."""
    npz_path = os.path.join(in_dir, "solution.npz")
    with np.load(npz_path) as data:
        _require(npz_path, data.files, ("U", "V"))
        W = FactorPair(data["U"], data["V"])
    summary_path = os.path.join(in_dir, "summary.json")
    with open(summary_path) as fh:
        summary = json.load(fh)
    _require(summary_path, summary, ("model", "lambda", "rho", "mu_tilde", "a"))
    return W, summary


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   instance=None) -> dict:
    """Generate (or reuse) an instance, solve it, summarize, optionally save.

    Returns a bundle with the summary dict plus in-memory objects (spec, W,
    trace) for callers that keep computing.
    """
    started = time.monotonic()
    if instance is None:
        M, op, b = gen_instance(cfg)
    else:
        M, op, b = instance
    b = linalg.as_vector(b, "b")
    x0 = _x0_decomposition(cfg, op, b)
    return _solve_and_summarize(cfg, _resolve_spec(cfg, op, b, x0),
                                balanced_factors(x0, cfg.kappa), M, out_dir, started)


def _solve_and_summarize(cfg: ExperimentConfig, spec: ModelSpec, W0: FactorPair,
                         M, out_dir: str | None, started: float) -> dict:
    """Solve ``spec`` from the instance's spectral start W0, summarize against
    M, and save to ``out_dir`` if given; ``time_s`` counts from ``started``."""
    solver_cfg = SolverConfig(epsilon=cfg.epsilon, max_iters=cfg.max_iters)
    W, trace, reason = solve(spec, solver_cfg, W0)
    slope, r2 = convergence_fit(trace)
    summary = {
        **{k: v for k, v in dataclasses.asdict(cfg).items() if not k.endswith("_rule")},
        "schema": "l20factor-summary-v1",
        "lambda": spec.params.lam,
        "rho": spec.params.rho,
        "iterations": len(trace.records),
        "restarts": trace.restarts,
        "backtracks": trace.backtracks,
        "rank_drops": trace.rank_drops,
        "reason": reason,
        "rel_error": relative_error(W, M),
        "nnz_u": linalg.l20_norm(W.U),
        "nnz_v": linalg.l20_norm(W.V),
        "slope": slope,
        "r2": r2,
        "time_s": time.monotonic() - started,
    }
    if out_dir is not None:
        save_solution(out_dir, W, trace, summary)
    return {"summary": summary, "spec": spec, "W": W, "trace": trace, "M": M}


def run_fig3(cfg: ExperimentConfig, c_values, out_dir: str | None = None) -> dict:
    """Sweep the regularization scale: one run per c, shared instance.

    Each run takes ``rules_at_scale(cfg.model, c)``: lambda = c * ||X0|| for
    the hard model, the quadratic lambda rule and matched rho rule for the
    dc model. Emits sweep.csv with one row per c, and each run's files in
    ``c_{c:g}``. Two c values that share that name, or a c whose rules do
    not resolve on the instance, are a ConfigError, raised before any solve.
    X0 = A*(b) and its one decomposition, which gives ||X0||_2 and the
    start, are taken once; every run copies the start.
    """
    c_values = [float(c) for c in c_values]
    if len(c_values) < 2:
        raise ConfigError("fig3 needs at least 2 c values")
    names = [f"c_{c:g}" for c in c_values]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        raise ConfigError(f"fig3 c values {c_values} share run directories {shared}")
    M, op, b = instance = gen_instance(cfg)
    x0 = _x0_decomposition(cfg, op, b)
    subs = []
    for c in c_values:
        lam_rule, rho_rule = rules_at_scale(cfg.model, c)
        sub = dataclasses.replace(cfg, lambda_rule=lam_rule, rho_rule=rho_rule)
        subs.append((sub, _resolve_spec(sub, op, b, x0)))
    W0 = balanced_factors(x0, cfg.kappa)
    runs = []
    for c, name, (sub, spec) in zip(c_values, names, subs):
        sub_dir = None if out_dir is None else os.path.join(out_dir, name)
        bundle = _solve_and_summarize(sub, spec, W0, M, sub_dir, time.monotonic())
        runs.append({"c": c, **bundle["summary"]})
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        cols = ("c", "lambda", "rho", "nnz_u", "nnz_v", "rel_error", "slope",
                "r2", "iterations", "reason", "time_s")
        lines = [",".join(cols)]
        for row in runs:
            lines.append(",".join(
                str(row[c]) if c == "reason" else
                ("" if row[c] is None else _fmt(row[c]))
                for c in cols
            ))
        _atomic_text(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    return {"runs": runs, "instance": instance}


def diagnose(instance_dir: str, solution_dir: str, out_dir: str | None = None) -> dict:
    """Certify a stored solution and evaluate the growth-inequality theory.

    Emits diagnosis.json with: the optimal-pair certificate, restricted
    eigenvalue estimates, growth moduli and hypothesis flags, the exact
    penalty threshold, and a sampling probe of the growth inequality around
    the balanced optimum of M. M is decomposed once, before the
    certificate, by ``rank_revealing_svd`` at the solution's kappa: its
    leading triples, widened to all min(m, n) only when every value found
    is above the rank tolerance, so the rank is exact. They give ||M||_2,
    the spectrum, that optimum and the probe's radius; the certificate's
    rank comes from the kappa x kappa QR core of U V^T, so M is the only
    m x n matrix decomposed. Mask brackets
    are exact (alpha = 0 once an entry is missed, which skips the moduli),
    as are full and dense-Gram ones. Only Monte Carlo brackets are
    one-sided, so the moduli use the optimistic pair (alpha_upper,
    beta_lower): if even those fail the hypotheses, the theory certainly
    does not apply. A lambda = 0 solution has no nu = 1/lambda, so its
    moduli, threshold and probe are skipped.

    The probe draws ``_PROBE_SAMPLES`` points and the Monte Carlo brackets
    ``_EIG_SAMPLES`` starts, both seeded with ``_DIAGNOSE_SEED``, so the
    report is deterministic. A solution whose factors do not fit the
    instance's operator is a ValueError naming solution.npz, raised before
    anything is written.
    """
    meta, M, op, b = load_instance(instance_dir)
    W, summary = load_solution(solution_dir)
    params = PenaltyParams(
        lam=summary["lambda"], mu_tilde=summary["mu_tilde"],
        a=summary["a"], rho=summary["rho"],
    )
    spec = ModelSpec(model=summary["model"], op=op, b=b, params=params)
    try:
        spec.check_shapes(W)
    except ValueError as err:
        raise ValueError(f"{os.path.join(solution_dir, 'solution.npz')}: {err}") from err

    report: dict = {"schema": "l20factor-diagnosis-v1"}
    dec = rank_revealing_svd(M, W.kappa)
    cert = certify_optimal_pair(W, M, sigma=dec.sigma)
    report["certificate"] = dataclasses.asdict(cert)
    report["rel_error"] = cert.product_error

    rank = linalg.numerical_rank(dec.sigma)
    sigma1 = float(dec.sigma[0])
    sigma_r = float(dec.sigma[rank - 1]) if rank else 0.0
    report["spectrum"] = {"rank": rank, "sigma1": sigma1, "sigma_r": sigma_r}

    k = min(2 * max(rank, 1), min(op.m, op.n))
    eigs = estimate_restricted_eigs(op, k, samples=_EIG_SAMPLES, seed=_DIAGNOSE_SEED)
    report["restricted_eigs"] = dataclasses.asdict(eigs)
    alpha, beta = eigs.alpha_upper, max(eigs.beta_lower, eigs.alpha_upper)

    if params.lam == 0:
        skipped = dict.fromkeys(("moduli", "threshold", "probe"),
                                "nu = 1/lambda is undefined at lambda = 0")
    elif rank == 0 or alpha <= 0:
        skipped = {"moduli": "degenerate spectrum or alpha estimate",
                   "threshold": "no usable alpha", "probe": "no moduli"}
    else:
        skipped = {}
    for key, message in skipped.items():
        report[key] = {"status": "skipped", "message": message}
    if not skipped:
        nu = params.nu
        mu = params.mu_tilde * nu
        moduli = kl_moduli(sigma1, sigma_r, rank, nu, mu, alpha, beta,
                           params if spec.model == "dc" else None)
        report["moduli"] = dataclasses.asdict(moduli)
        try:
            rho_bar = exact_penalty_threshold(
                nu, mu, rank, W.kappa, sigma_r, alpha, op.operator_norm(), params)
            report["threshold"] = {"status": "ok", "rho_bar": rho_bar}
        except ValueError as err:
            report["threshold"] = {"status": "hypothesis-failed", "message": str(err)}
        try:
            Wbar = balanced_factors(dec, W.kappa)
            probe = kl_inequality_probe(spec, Wbar, M, moduli, samples=_PROBE_SAMPLES,
                                        seed=_DIAGNOSE_SEED, sigma=dec.sigma)
            report["probe"] = dataclasses.asdict(probe)
        except ValueError as err:
            report["probe"] = {"status": "skipped", "message": str(err)}

    if out_dir is None:
        out_dir = solution_dir
    os.makedirs(out_dir, exist_ok=True)
    _atomic_json(os.path.join(out_dir, "diagnosis.json"), report)
    return report

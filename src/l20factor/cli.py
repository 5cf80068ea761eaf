"""Command-line entry point.

Subcommands:

* ``gen``: draw a fully seeded instance (M, operator, b) into a directory.
* ``solve``: run the solver on a stored instance, writing solution.npz,
  trace.csv, summary.json.
* ``diagnose``: certify a stored solution and probe the growth-inequality
  theory against the stored ground truth.
* ``experiment {fig1,fig2,fig3}``: generate + solve (+ sweep for fig3) in one
  shot with the desk-scale defaults. fig1 is a hard-model (l20) run, fig2 a
  dc run (its default model).

Exit codes: 0 success, 2 configuration errors, 3 solver divergence, 4 I/O
errors, 1 anything else. Errors print ``error(<category>): <message>`` on
stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .harness import ConfigError, ExperimentConfig, build_config, parse_config_file
from .solver import DivergenceError


def _add_config_flags(p: argparse.ArgumentParser, shapes: bool = True) -> None:
    p.add_argument("--config", help="key=value config file (flags override it)")
    if shapes:
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--r", type=int)
        p.add_argument("--kappa", type=int)
        p.add_argument("--sample-ratio", dest="sample_ratio", type=float)
        p.add_argument("--operator", dest="operator_kind",
                       choices=["full", "mask", "gaussian"])
    p.add_argument("--model", choices=["l20", "dc"])
    p.add_argument("--a", type=float)
    p.add_argument("--mu-tilde", dest="mu_tilde", type=float)
    p.add_argument("--lambda-rule", dest="lambda_rule")
    p.add_argument("--rho-rule", dest="rho_rule")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--seed", type=int)


def _gather(args, shapes: bool = True) -> ExperimentConfig:
    keys = ["model", "a", "mu_tilde", "lambda_rule", "rho_rule", "epsilon",
            "max_iters", "seed"]
    if shapes:
        keys = ["m", "n", "r", "kappa", "sample_ratio", "operator_kind"] + keys
    cli_values = {key: getattr(args, key) for key in keys}
    file_values = parse_config_file(args.config) if args.config else {}
    return build_config(file_values, cli_values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l20factor",
        description="Column-sparse factored matrix recovery: instances, "
                    "solves, diagnostics, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded instance directory")
    _add_config_flags(p_gen)
    p_gen.add_argument("--out-dir", required=True)

    p_solve = sub.add_parser("solve", help="solve a stored instance")
    _add_config_flags(p_solve, shapes=False)
    p_solve.add_argument("--instance", required=True,
                         help="instance directory from `gen`")
    p_solve.add_argument("--out-dir", required=True)

    p_diag = sub.add_parser("diagnose", help="certify and probe a stored solution")
    p_diag.add_argument("--instance", required=True)
    p_diag.add_argument("--solution", required=True)
    p_diag.add_argument("--out-dir", help="defaults to the solution directory")
    p_diag.add_argument("--probe-samples", type=int, default=100)
    p_diag.add_argument("--eig-samples", type=int, default=6)
    p_diag.add_argument("--seed", type=int, default=0)

    p_exp = sub.add_parser("experiment", help="generate + solve in one shot")
    p_exp.add_argument("figure", choices=["fig1", "fig2", "fig3"])
    _add_config_flags(p_exp)
    p_exp.add_argument("--out-dir", required=True)
    p_exp.add_argument("--c-values", dest="c_values", default="0.5,5,50,500",
                       help="comma-separated c grid for fig3")
    return parser


def _cmd_gen(args) -> None:
    cfg = _gather(args)
    M, op, b = harness.gen_instance(cfg)
    harness.save_instance(args.out_dir, cfg, M, op, b)
    print(f"instance written to {args.out_dir} "
          f"(m={op.m}, n={op.n}, p={op.p}, kind={op.kind})")


def _cmd_solve(args) -> None:
    meta, M, op, b = harness.load_instance(args.instance)
    file_values = parse_config_file(args.config) if args.config else {}
    cli_values = {key: getattr(args, key) for key in
                  ["model", "a", "mu_tilde", "lambda_rule", "rho_rule",
                   "epsilon", "max_iters", "seed"]}
    shape_values = {
        "m": meta["m"], "n": meta["n"], "r": meta["r"], "kappa": meta["kappa"],
        "sample_ratio": meta["sample_ratio"], "operator_kind": meta["operator_kind"],
        "seed": meta["seed"],
    }
    cfg = build_config(shape_values, file_values, cli_values)
    bundle = harness.run_experiment(cfg, args.out_dir, instance=(M, op, b))
    s = bundle["summary"]
    print(f"solved: reason={s['reason']} iterations={s['iterations']} "
          f"rel_error={s['rel_error']:.3e} nnz=({s['nnz_u']},{s['nnz_v']})")


def _cmd_diagnose(args) -> None:
    report = harness.diagnose(args.instance, args.solution, args.out_dir,
                              probe_samples=args.probe_samples,
                              eig_samples=args.eig_samples, seed=args.seed)
    cert = report["certificate"]
    probe = report.get("probe", {})
    print(f"certificate: passed={cert['passed']} "
          f"product_error={cert['product_error']:.3e} "
          f"balance_error={cert['balance_error']:.3e}")
    print(f"probe: status={probe.get('status')} slack={probe.get('slack')}")


def _cmd_experiment(args) -> None:
    cfg = _gather(args)
    if args.figure == "fig2" and args.model is None and cfg.model == "l20":
        cfg = build_config(
            {f: getattr(cfg, f) for f in harness._CONFIG_FIELDS},
            {"model": "dc"},
        )
    if args.figure in ("fig1", "fig2"):
        model = "l20" if args.figure == "fig1" else "dc"
        if cfg.model != model:
            raise ConfigError(f"{args.figure} requires model={model}")
        s = harness.run_experiment(cfg, args.out_dir)["summary"]
    else:
        c_values = [part for part in args.c_values.split(",") if part.strip()]
        try:
            c_values = [float(part) for part in c_values]
        except ValueError as err:
            raise ConfigError(f"bad --c-values: {err}") from err
        bundle = harness.run_fig3(cfg, c_values, args.out_dir)
        counts = [(row["c"], row["nnz_u"]) for row in bundle["runs"]]
        print(f"sweep finished: (c, nnz_u) = {counts}")
        return
    print(f"{args.figure}: reason={s['reason']} iterations={s['iterations']} "
          f"rel_error={s['rel_error']:.3e} slope={s['slope']:.4f} r2={s['r2']:.4f}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "diagnose": _cmd_diagnose,
        "experiment": _cmd_experiment,
    }
    try:
        handlers[args.command](args)
    except ConfigError as err:
        print(f"error(config): {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"error(divergence): {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error(io): {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"error(config): {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

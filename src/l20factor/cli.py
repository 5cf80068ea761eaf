"""Command-line entry point.

Subcommands:

* ``gen``: draw a fully seeded instance (M, operator, b) into a directory.
  It takes the instance fields only, which are all that meta.json keeps.
* ``solve``: run the solver on a stored instance, writing solution.npz,
  trace.csv, summary.json. The instance fields, the seed among them, come
  from meta.json; a config file may repeat them but not change them.
* ``diagnose``: certify a stored solution and probe the growth-inequality
  theory against the stored ground truth.
* ``experiment {fig1,fig2,fig3}``: generate + solve (+ sweep for fig3) in one
  shot with the desk-scale defaults. fig1 is a hard-model (l20) run, fig2 a
  dc run (its default model).

Exit codes: 0 success, 2 configuration errors (including malformed instance
and solution files), 3 solver divergence, 4 I/O errors, 1 anything else.
Errors print ``error(<category>): <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .harness import (CONFIG_FIELDS, INSTANCE_FIELDS, OPERATOR_KINDS, ConfigError,
                      ExperimentConfig, build_config, parse_config_file)
from .objective import MODELS
from .solver import DivergenceError

_CHOICES = {"operator_kind": OPERATOR_KINDS, "model": MODELS}


def _add_config_flags(p: argparse.ArgumentParser, fields) -> None:
    """Add --config and one flag per field, named after it (``--operator`` for
    operator_kind); the values stay strings until ``build_config``."""
    p.add_argument("--config", help="key=value config file (flags override it)")
    for key in fields:
        flag = "--operator" if key == "operator_kind" else "--" + key.replace("_", "-")
        p.add_argument(flag, dest=key, choices=_CHOICES.get(key))


def _gather(args, keys, *base) -> ExperimentConfig:
    """Merge ``base`` mappings, then the --config file (which may set
    ``keys``), then the set flags."""
    file_values = parse_config_file(args.config, keys) if args.config else {}
    flags = {key: value for key, value in vars(args).items() if key in CONFIG_FIELDS}
    return build_config(*base, file_values, flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l20factor",
        description="Column-sparse factored matrix recovery: instances, "
                    "solves, diagnostics, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded instance directory")
    _add_config_flags(p_gen, INSTANCE_FIELDS)
    p_gen.add_argument("--out-dir", required=True)

    p_solve = sub.add_parser("solve", help="solve a stored instance")
    _add_config_flags(p_solve, [key for key in CONFIG_FIELDS if key not in INSTANCE_FIELDS])
    p_solve.add_argument("--instance", required=True,
                         help="instance directory from `gen`")
    p_solve.add_argument("--out-dir", required=True)

    p_diag = sub.add_parser("diagnose", help="certify and probe a stored solution")
    p_diag.add_argument("--instance", required=True)
    p_diag.add_argument("--solution", required=True)
    p_diag.add_argument("--out-dir", help="defaults to the solution directory")

    p_exp = sub.add_parser("experiment", help="generate + solve in one shot")
    p_exp.add_argument("figure", choices=["fig1", "fig2", "fig3"])
    _add_config_flags(p_exp, CONFIG_FIELDS)
    p_exp.add_argument("--out-dir", required=True)
    p_exp.add_argument("--c-values", dest="c_values", default="0.5,5,50,500",
                       help="comma-separated c grid for fig3")
    return parser


def _cmd_gen(args) -> None:
    cfg = _gather(args, INSTANCE_FIELDS)
    M, op, b = harness.gen_instance(cfg)
    harness.save_instance(args.out_dir, cfg, M, op, b)
    print(f"instance written to {args.out_dir} "
          f"(m={op.m}, n={op.n}, p={op.p}, kind={op.kind})")


def _cmd_solve(args) -> None:
    meta, M, op, b = harness.load_instance(args.instance)
    cfg = _gather(args, CONFIG_FIELDS, {key: meta[key] for key in INSTANCE_FIELDS})
    for key in INSTANCE_FIELDS:
        if getattr(cfg, key) != meta[key]:
            raise ConfigError(f"{args.config}: {key} is {getattr(cfg, key)!r}, "
                              f"the instance's is {meta[key]!r}")
    bundle = harness.run_experiment(cfg, args.out_dir, instance=(M, op, b))
    s = bundle["summary"]
    print(f"solved: reason={s['reason']} iterations={s['iterations']} "
          f"rel_error={s['rel_error']:.3e} nnz=({s['nnz_u']},{s['nnz_v']})")


def _cmd_diagnose(args) -> None:
    report = harness.diagnose(args.instance, args.solution, args.out_dir)
    cert = report["certificate"]
    probe = report.get("probe", {})
    print(f"certificate: passed={cert['passed']} "
          f"product_error={cert['product_error']:.3e} "
          f"balance_error={cert['balance_error']:.3e}")
    print(f"probe: status={probe.get('status')} slack={probe.get('slack')}")


def _cmd_experiment(args) -> None:
    cfg = _gather(args, CONFIG_FIELDS, {"model": "dc"} if args.figure == "fig2" else {})
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
    except DivergenceError as err:
        print(f"error(divergence): {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error(io): {err}", file=sys.stderr)
        return 4
    except ValueError as err:  # ConfigError among them
        print(f"error(config): {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

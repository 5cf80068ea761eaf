"""Benchmark entry point: gen -> solve -> diagnose on one seeded workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mask-l20-300 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

One run repeats the three command-line steps in-process, through the public
``harness`` functions, for about ``--seconds`` seconds. With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it wraps the library's
public functions in spans and prints the per-layer metrics instead. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--workload all`` runs every workload in its own process, one after
another, and ends with a table instead of the JSON line.

The library is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result. The BLAS thread count is pinned
before numpy is imported, because the solver's iteration count depends on it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREADS = 1
WORKLOAD_NAMES = ("mask-l20-300", "mask-dc-300", "gauss-l20-40")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin the BLAS thread count and put the checkout's library on sys.path.

    Raises SystemExit(2) when ``src/l20factor`` is missing, so a directory
    holding only the benchmark never reports a result.
    """
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "l20factor" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import l20factor

    if Path(l20factor.__file__).resolve().parent != SRC / "l20factor":
        print(f"error: imported l20factor from {l20factor.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def _run_all(args) -> int:
    """Run each workload in a child process and tabulate the results."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\nworkload        attempted failed  metric")
    for name, res in rows:
        for i, (metric, m) in enumerate(res["metrics"].items()):
            head = f"{name:<15} {res['attempted']:>9} {res['failed']:>6}" if i == 0 \
                else " " * 32
            print(f"{head}  {metric:<45} {m['value']:.6g} {m['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    prepare()
    if args.workload == "all":
        return _run_all(args)

    import bench

    result = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                       traced=bool(args.trace), out_dir=ROOT / ".perfbench-out",
                       work_root=ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

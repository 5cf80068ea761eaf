"""Checks on the checkout's tooling, each run in a fresh interpreter.

The benchmark's tracer wraps library names listed in its own tables, so a
rename in the library breaks it; its self-test is run here so that such a
rename fails this suite too. A plain ``import l20factor`` must not load
scipy, which only ``linalg.svd``'s fallback imports, lazily. The README's
library and command-line quickstarts are run as written, so an API or flag
change that breaks them fails here. With no linter installed, three import
rules are checked on the syntax tree: no library module imports a name it
never uses, the package's ``__all__`` is exactly what its ``__init__.py``
imports, and the test oracles import nothing from the library they check.
The solver's inner loop is checked on the syntax tree as well: it names no
checked function that has an unchecked kernel, on every branch. So is the
growth probe's sampling loop, which checks its data before it starts and
re-checks none of it. Every public function, class and method of the library
must be named somewhere in the system (the library, the demos or the
benchmark) outside its own definition, or be on a short allowlist that gives
the reason it stays. The benchmark's three workloads, copied here, are
solved at one BLAS thread, as the benchmark runs them: each must pass the
benchmark's answer gate within an iteration ceiling, so losing the gauge
move's or the adaptive restart's iteration drop fails here.
"""

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def _run(args, cwd=ROOT, **env_overrides):
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, env.get("PYTHONPATH")) if part)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd, env=env)


def test_benchmark_self_test_passes():
    res = _run(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                "perfbench/test_perfbench.py"])
    assert res.returncode == 0, res.stdout + res.stderr


def test_import_leaves_scipy_out():
    res = _run(["-c", "import sys, l20factor; print('scipy' in sys.modules)"])
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    res = _run(["-c", blocks[0]], OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    assert res.returncode == 0, res.stderr
    assert "converged" in res.stdout
    assert "passed=True" in res.stdout


def test_readme_cli_quickstart_runs(tmp_path):
    """Each ``l20factor`` line of the README's sh blocks, continuation lines
    joined, runs in order in one directory and exits 0."""
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("l20factor ")]
    assert {argv[0] for argv in commands} == {"gen", "solve", "diagnose", "experiment"}
    for argv in commands:
        res = _run(["-m", "l20factor.cli", *argv], cwd=tmp_path, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        assert res.returncode == 0, (argv, res.stderr)


def _imports(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_library_imports_are_used():
    """Every imported name is used, listed in ``__all__`` or on a ``# noqa`` line."""
    unused = []
    for path in sorted((ROOT / "src" / "l20factor").rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        for node in _imports(tree):
            if (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                    or any("# noqa" in line
                           for line in lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def test_package_all_is_what_init_imports():
    """``l20factor.__all__`` names exactly the names ``__init__.py`` imports."""
    tree = ast.parse((ROOT / "src" / "l20factor" / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in _imports(tree)
                if getattr(node, "module", None) != "__future__"
                for alias in node.names}
    exported = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
    assert len(exported) == 1
    assert set(exported[0]) == imported


def test_oracles_import_nothing_from_the_library():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    modules = [alias.name for node in _imports(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in _imports(tree)
                if isinstance(node, ast.ImportFrom)]
    assert not [name for name in modules if name.split(".")[0] == "l20factor"]


def test_solver_inner_loop_names_no_checked_function():
    """``solver.step``, ``solver._take`` and ``solver._prox_substep``, with
    their restart and backtrack branches, name neither the checked
    FactorPair constructor nor a checked function whose unchecked kernel the
    solver calls. ``prox_matrix`` is the one checked call left in the loop:
    the benchmark's tracer counts the prox through it."""
    tree = ast.parse((ROOT / "src" / "l20factor" / "solver.py").read_text())
    banned = {"as_matrix", "as_vector", "l20_norm", "g_scalar", "FactorPair"}
    loop = ("step", "_take", "_prox_substep")
    named = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in loop:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            named[node.name] = names & banned
    assert named == {name: set() for name in loop}


def test_probe_sampling_loop_rechecks_no_data():
    """The body of ``kl_inequality_probe``'s sampling loop names neither M
    nor a checker of new data (``as_matrix``, ``as_vector``, the
    ``ModelSpec`` constructor): the probe checks M, b and the shapes once,
    before the loop."""
    tree = ast.parse((ROOT / "src" / "l20factor" / "diagnostics.py").read_text())
    probe = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == "kl_inequality_probe"]
    assert len(probe) == 1
    loops = [node for node in ast.walk(probe[0]) if isinstance(node, ast.While)]
    assert len(loops) == 1
    names = {n.id for n in ast.walk(loops[0]) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(loops[0]) if isinstance(n, ast.Attribute)}
    assert names & {"M", "as_matrix", "as_vector", "ModelSpec"} == set()


# Public names that nothing in the system calls, each kept for its reason.
KEPT_UNCALLED = {
    "sampling.GaussianOperator.from_matrices":
        "lets tests build a Gaussian operator from a chosen tensor",
    "sampling.RestrictedMap.matrix":
        "the base form lets a test-substituted operator reach the Monte Carlo "
        "brackets (the name scan sees the Gaussian override's calls)",
    "harness.read_trace_csv": "reads back the format that write_trace_csv defines",
    "penalty.g_scalar": "the documented, checked evaluator of g",
}


def _named(tree):
    """How often each identifier is named in ``tree``: names and attributes."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def test_every_public_name_is_used_by_the_system():
    """Each public module-level function and class of ``src/l20factor`` and
    each public method of its classes is named in ``src/``, ``demos/`` or
    ``perfbench/`` outside its own definition, or is in ``KEPT_UNCALLED``.
    An import or an ``__all__`` entry is not a use. Methods are matched by
    name, so a call of any method of that name counts."""
    named = Counter()
    for part in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / part).rglob("*.py")):
            named += _named(ast.parse(path.read_text()))
    public = {}
    for path in sorted((ROOT / "src" / "l20factor").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                public[f"{path.stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                public.update({f"{path.stem}.{node.name}.{sub.name}": sub
                               for sub in node.body if isinstance(sub, ast.FunctionDef)
                               and not sub.name.startswith("_")})
    unused = {name for name, node in public.items()
              if named[node.name] == _named(node)[node.name]}
    assert set(KEPT_UNCALLED) <= set(public)
    assert unused - set(KEPT_UNCALLED) == set()


# perfbench/bench.py's WORKLOADS configurations, with an iteration ceiling
# each. With the gauge move and the adaptive restart they take 104, 231 and
# 147 iterations; with the function-value restart alone 299, 273 and 232,
# and without the move the l20 ones took 540 and 2254.
BENCH_WORKLOADS = {
    "mask-l20-300": (dict(m=300, n=300, r=5, kappa=15, sample_ratio=0.25,
                          operator_kind="mask", model="l20", mu_tilde=1e-3,
                          epsilon=1e-10), 150),
    "mask-dc-300": (dict(m=300, n=300, r=5, kappa=15, sample_ratio=0.25,
                         operator_kind="mask", model="dc", mu_tilde=1e-2,
                         epsilon=1e-10), 250),
    "gauss-l20-40": (dict(m=40, n=40, r=2, kappa=6, sample_ratio=0.4,
                          operator_kind="gaussian", model="l20", mu_tilde=1e-3,
                          lambda_rule="28 * specnorm(X0)", epsilon=1e-10), 200),
}

_SOLVE_WORKLOADS = """
import json, sys
from l20factor import harness
out = {}
for name, cfg in json.loads(sys.argv[1]).items():
    s = harness.run_experiment(harness.ExperimentConfig(**cfg))["summary"]
    keys = ("reason", "rel_error", "nnz_u", "nnz_v", "iterations")
    out[name] = {k: s[k] for k in keys}
print(json.dumps(out))
"""


def test_benchmark_workloads_pass_their_gate_within_the_iteration_ceiling():
    configs = {name: cfg for name, (cfg, _) in BENCH_WORKLOADS.items()}
    res = _run(["-c", _SOLVE_WORKLOADS, json.dumps(configs)], OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    assert res.returncode == 0, res.stderr
    runs = json.loads(res.stdout.strip().splitlines()[-1])
    for name, (cfg, ceiling) in BENCH_WORKLOADS.items():
        run = runs[name]
        assert run["reason"] == "converged", (name, run)
        assert run["rel_error"] <= 1e-8, (name, run)
        assert run["nnz_u"] == run["nnz_v"] == cfg["r"], (name, run)
        assert run["iterations"] <= ceiling, (name, run)

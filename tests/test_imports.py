"""A `gv` process imports only what its command uses: the FFT powers only to
build a table, the selected reads only in the commands that select, and
each layer module only in the commands that run it, and no command loads
numpy.random."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import load_workloads

from gaussvariants import arith, cuspform

PACKAGE_ROOT = Path(arith.__file__).resolve().parents[1]

# the numpy modules a gv process must not load, though numpy can load them
# behind a call: numpy.ma (1.6 MB of RSS) and numpy.random (5.6 MB)
NUMPY_TRAPS = ("numpy.ma", "numpy.random")

# runs gv with the arguments given, then prints its exit code and the
# package modules the process holds, with any of NUMPY_TRAPS it loaded
LOADED = f"""
import json, sys
from gaussvariants import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("gaussvariants.") or m in {NUMPY_TRAPS})]))
"""


def run_gv(cwd, argv):
    """The package modules (and any of NUMPY_TRAPS) that a fresh `gv argv`
    process loaded, run in cwd."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    env.pop("GV_CACHE", None)
    done = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    code, modules = json.loads(done.stdout)
    assert code == 0, done.stderr
    return {m if m in NUMPY_TRAPS else m.rpartition(".")[2] for m in modules}


def loaded(tmp_path, *argv):
    """The package modules that a fresh `gv argv` process loaded, on the
    cache dir tmp_path/cache."""
    return run_gv(tmp_path, [*argv, "--cache", str(tmp_path / "cache"), "--out", "out"])


def warm(tmp_path):
    """A cache dir holding the tables `gv tau` and `gv count-circle` read."""
    cache = tmp_path / "cache"
    cache.mkdir()
    arith.write_table_cache(cache / "tau-1000.gvct", cuspform.tau_table(1000))
    arith.write_table_cache(cache / "r_2-10000.gvct", arith.r_d_table(2, 10000))


def test_warm_tau_loads_neither_the_powers_nor_the_selection(tmp_path):
    warm(tmp_path)
    modules = loaded(tmp_path, "tau")
    assert "cli" in modules
    assert not modules & {"powers", "selection"}, modules


@pytest.mark.parametrize(
    "argv",
    [["count-circle"], ["count-hyperboloid", "--grid", "2^10..2^13", "--table-size", "10000"]],
    ids=["count-circle", "count-hyperboloid"],
)
def test_warm_count_circle_selects_without_the_powers(tmp_path, argv):
    # both read the cached r_2-10000 and build nothing
    warm(tmp_path)
    modules = loaded(tmp_path, *argv)
    assert "selection" in modules and "powers" not in modules, modules
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["r_2-10000.gvct", "tau-1000.gvct"]


def test_cold_tau_loads_the_powers(tmp_path):
    # the build is what loads them, so the guards above can see a stray import
    assert "powers" in loaded(tmp_path, "tau")


def test_cold_r2_read_loads_the_stream(tmp_path):
    # r_2 is built in blocks into its cache file; a warm read loads neither
    assert {"powers", "stream"} <= loaded(tmp_path, "count-circle")


workloads = load_workloads()
OPS = workloads.CLI_OPS + workloads.CHECK_OPS

# every gv process loads these: the entry point and the arithmetic it keeps
# at module level
BASE = {"cli", "arith", "_words"}
# what else each benchmark operation loads on a warm cache; kernels and
# charsums bring _split, their worker pool
ALSO_LOADS = {
    "second-moment": {"cuspform", "checks"},
    "short-interval": {"cuspform"},
    "sign-scan": {"cuspform", "checks"},
    "tau": {"cuspform"},
    "hardy": {"_draws", "checks", "lattice", "selection"},
    "smooth-hyperboloid": {"fit", "kernels", "_split", "lattice", "selection"},
    "smooth-hyperboloid-compact": {"fit", "kernels", "_split", "lattice", "selection"},
    "count-hyperboloid": {"_draws", "checks", "fit", "lattice", "selection"},
    "fit": {"fit", "lattice"},
    "short-hyperboloid": {"lattice", "selection"},
    "mean-square-p2": {"checks", "fit", "lattice", "selection"},
    "count-circle": {"lattice", "selection"},
    "eisenstein-check": {"charsums", "checks", "_split"},
    "kernels-verify": {"checks", "kernels", "_split"},
    "gauss-sums": {"charsums", "checks", "_split"},
    "divisor-identity": {"checks", "lattice"},
}


@pytest.fixture(scope="module")
def warm_ops(tmp_path_factory, tau, r2_big):
    """The modules each benchmark operation loads, run in the benchmark's
    order (`fit` reads the CSV of `count-hyperboloid`) on a cache whose
    tau-164000 and r_2-1400000 serve every table they read."""
    cwd = tmp_path_factory.mktemp("warm-ops")
    cache = cwd / "cache"
    cache.mkdir()
    arith.write_table_cache(cache / "tau-164000.gvct", tau)
    arith.write_table_cache(cache / "r_2-1400000.gvct", r2_big)
    modules = {op.name: run_gv(cwd, workloads.op_argv(op, 1, str(cache), op.name)) for op in OPS}
    assert sorted(p.name for p in cache.iterdir()) == ["r_2-1400000.gvct", "tau-164000.gvct"]
    return modules


def test_every_benchmark_op_is_listed():
    assert [op.name for op in OPS] == list(ALSO_LOADS)


@pytest.mark.parametrize("name", list(ALSO_LOADS))
def test_warm_op_loads_only_its_modules(warm_ops, name):
    # numpy 2.4's np.unique loads numpy.ma when it is asked for no return_*
    # array, as the bootstrap of count-hyperboloid's log-term verdict was;
    # hardy and that bootstrap draw from _draws, not numpy.random
    assert not warm_ops[name] & set(NUMPY_TRAPS)
    assert warm_ops[name] == BASE | ALSO_LOADS[name]


# the prefixes of a name that is numpy.random or lies inside it
RANDOM = ("numpy.random.", "np.random.")


def numpy_random_uses(source):
    """(line, code) of each import of numpy.random, and each read of a
    ``random`` attribute of ``np`` or ``numpy``, in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(f"{n}.".startswith(RANDOM) for n in names):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_module_names_numpy_random():
    # covers the code paths that no benchmark operation runs
    package = PACKAGE_ROOT / "gaussvariants"
    found = {
        path.name: numpy_random_uses(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    assert {name: uses for name, uses in found.items() if uses} == {}
    # the scan does see each way in
    for source in [
        "import numpy.random",
        "import numpy.random as npr",
        "from numpy import random",
        "from numpy.random import default_rng",
        "rng = np.random.default_rng(0)",
        "numpy.random.seed(1)",
    ]:
        assert numpy_random_uses(source), source

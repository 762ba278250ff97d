"""A `gv` process imports only what its command uses: the FFT powers only to
build a table, and the selected reads only in the commands that select."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gaussvariants import arith, cuspform

PACKAGE_ROOT = Path(arith.__file__).resolve().parents[1]

# runs gv with the arguments given, then prints its exit code and the
# package modules the process holds
LOADED = """
import json, sys
from gaussvariants import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("gaussvariants."))]))
"""


def loaded(tmp_path, *argv):
    """The package modules that a fresh `gv argv` process loaded, on the
    cache dir tmp_path/cache."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    env.pop("GV_CACHE", None)
    argv = [*argv, "--cache", str(tmp_path / "cache"), "--out", "out"]
    done = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, check=True
    )
    code, modules = json.loads(done.stdout)
    assert code == 0, done.stderr
    return {m.rpartition(".")[2] for m in modules}


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

"""The benchmark's set-up and traced children still work with the package.

`perfbench/setup_child.py` fills a cache through `cli.cached_table` with
builders that return a CoefficientTable, and `perfbench/trace_child.py`
rebinds package functions by name and reads counts from what they return:
`len()` of the tau and r_d tables, and the size of the file that
`write_table_cache` has written when it returns.  A change that breaks
either fails here, not in a benchmark run.  The traced op runs in its own
process, because tracing rebinds the package's functions for good.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gaussvariants import arith, cuspform

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE_ROOT = Path(arith.__file__).resolve().parents[1]


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_setup_child_fills_the_cache_as_the_commands_read_it(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert load("setup_child").main([str(cache), "tau:1000", "r_2:3000", "tau:500"]) == 0
    env = json.loads(capsys.readouterr().out.splitlines()[0])
    assert Path(env["module"]).resolve().is_relative_to(PACKAGE_ROOT)
    # tau to 500 is served from the file to 1000, as a warm command reads it
    assert sorted(p.name for p in cache.iterdir()) == ["r_2-3000.gvct", "tau-1000.gvct"]
    assert arith.read_table_cache(cache / "tau-1000.gvct") == cuspform.tau_table(1000)
    assert arith.read_table_cache(cache / "r_2-3000.gvct") == arith.r_d_table(2, 3000)


def trace(tmp_path, *gv):
    """The spans file of one traced, cold `gv` op, run in tmp_path."""
    spans = tmp_path / "op.spans.json"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    env.pop("GV_CACHE", None)
    argv = [*gv, "--cache", str(tmp_path / "cache"), "--out", "op"]
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "trace_child.py"), str(spans), repr(spawn), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "gv, table, counts",
    [
        # a cache file holds a 19-byte header for a 3-letter label, then 16 B an entry
        (("tau",), "tau-1000.gvct", {"cuspform.tau_table_entries": 1001, "arith.write_table_cache_bytes": 19 + 16 * 1001}),
        # a d = 4 hyperboloid reads r_3, which r_d_table builds whole; the
        # cache file is then streamed, as every r_d build is
        (("count-hyperboloid", "--d", "4", "--grid", "2^4..2^8", "--table-size", "200"), "r_3-122.gvct",
         {"arith.r_d_table_entries": 123}),
    ],
    ids=["tau", "count-hyperboloid-d4"],
)
def test_trace_child_records_a_cold_op(tmp_path, gv, table, counts):
    data = trace(tmp_path, *gv)
    assert Path(data["module"]).resolve().is_relative_to(PACKAGE_ROOT)
    assert data["missing"] == [] and data["startup_s"] > 0
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [table]
    groups = {group for group, *_ in data["spans"]}
    assert {"cli.main", "cli.cached_table", "cli.output"} <= groups
    for group, start, end, parent in data["spans"]:
        assert start <= end and -1 <= parent < len(data["spans"])
    assert data["counts"]["cli.cached_table_misses"] == 1
    assert {name: data["counts"].get(name) for name in counts} == counts
    assert data["counts"]["cli.output_bytes"] == sum((tmp_path / f"op.{ext}").stat().st_size for ext in ("csv", "json"))

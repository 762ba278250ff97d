"""The gv benchmark: one closed-loop client running gv subcommands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one `python -m gaussvariants.cli` process with
PYTHONPATH=<checkout>/src, started only after the previous one has exited;
the machine runs nothing else for the benchmark meanwhile.  A pass runs a
workload's operations once, in the order workloads.py lists them.  A run
sets the workload up and repeats passes until they have taken S seconds,
and reports for each metric the median over its passes.  The last line of
standard output is the JSON result; the lines before it give every metric
with its unit, quartiles and sample count, and the environment.

With --trace 1 every pass is followed by a traced pass (trace_child.py) of
the same operations; the run reports the per-layer metrics of BENCHMARK.json,
checks that both passes wrote byte-identical outputs, and that each module
the workload exercises recorded spans.

Cache reads are page-cache reads: the benchmark never drops the file cache,
because that changes machine settings, so disk behaviour is not measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import trace_child
import verify
from workloads import CLI_TABLES, WORKLOADS, op_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150
# Every run sets up at least this many times and reports the median as
# setup_s: cli-cold and checks before every pass (and SETUPS - 1 more times
# before the first), cli-warm exactly SETUPS times, spread over its passes.
SETUPS = 3
SPAWN_T = object()  # stands for the spawn time in a child's argv


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reset(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def child_env():
    env = dict(os.environ)
    # GV_CACHE overrides --cache and would silently turn cli-cold warm.
    env.pop("GV_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    # One BLAS thread: on a shared 2-core machine, idle BLAS threads spinning
    # beside the process made its time depend on the other core's load.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def check_origin(module_file):
    if not Path(module_file).resolve().is_relative_to(SRC / "gaussvariants"):
        raise BenchError(f"gaussvariants was imported from {module_file}, not from {SRC}")


@dataclass
class Child:
    start: float
    end: float
    code: int
    cpu_s: float
    rss_kb: int


def run_child(argv, cwd, log_path, env):
    """Run `python argv...` to completion; its output goes to log_path."""
    with open(log_path, "wb") as log:
        start = now()
        argv = [repr(start) if a is SPAWN_T else a for a in argv]
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=env,
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start, end, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def _log_tail(path):
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


def setup(workload, cache, work):
    """Bring the workload to its starting state; returns (seconds, environment).

    The starting state is an empty cache dir (for cli-warm, one holding every
    table the operations read) and a package that a fresh interpreter imports
    from SRC.  The set-up child imports the package, reports where from, and
    for cli-warm builds the tables into the emptied cache.  The import check
    stays inside the timed set-up on purpose: emptying the directory alone
    takes a millisecond or less, and that time varies many-fold from run to
    run, far beyond setup_s's bound.
    """
    start = now()
    reset(cache)
    tables = [f"{label}:{n}" for label, n in CLI_TABLES] if workload.warm else []
    log = work / "setup.log"
    child = run_child([str(HERE / "setup_child.py"), str(cache), *tables], work, log, child_env())
    elapsed = now() - start
    if child.code != 0:
        raise BenchError(f"set-up exited {child.code}: {_log_tail(log)}")
    env = json.loads(log.read_text(encoding="utf-8").splitlines()[0])
    check_origin(env["module"])
    return elapsed, env


def _snapshot(cache):
    return sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns) for p in cache.iterdir())


@dataclass
class Pass:
    out: Path
    logs: Path
    children: dict = field(default_factory=dict)  # op name -> Child
    failures: dict = field(default_factory=dict)  # op name -> problem

    @property
    def wall_s(self):
        runs = list(self.children.values())
        return runs[-1].end - runs[0].start

    @property
    def cpu_s(self):
        return sum(c.cpu_s for c in self.children.values())

    @property
    def peak_rss_mb(self):
        return max(c.rss_kb for c in self.children.values()) / 1024.0


def run_pass(workload, seed, cache, out, traced):
    logs = out.with_name(out.name + "-logs")
    reset(out)
    reset(logs)
    env = child_env()
    result = Pass(out, logs)
    cached = _snapshot(cache)
    for op in workload.ops:
        gv = op_argv(op, seed, str(cache), op.name)
        if traced:
            spans = str(logs / f"{op.name}.spans.json")
            argv = [str(HERE / "trace_child.py"), spans, SPAWN_T, *gv]
        else:
            argv = ["-m", "gaussvariants.cli", *gv]
        log = logs / f"{op.name}.log"
        child = run_child(argv, out, log, env)
        result.children[op.name] = child
        if child.code != 0:
            result.failures[op.name] = f"exit {child.code}: {_log_tail(log)}"
        elif workload.warm and _snapshot(cache) != cached:
            result.failures[op.name] = "wrote a cache file on cli-warm: CLI_TABLES is stale"
            cached = _snapshot(cache)
    for op in workload.ops:
        if op.name not in result.failures:
            problem = verify.check_op(op.name, out)
            if problem:
                result.failures[op.name] = problem
    return result


def compare_outputs(plain, traced):
    """Ops whose traced outputs differ from the untraced ones, byte for byte."""
    names = sorted(p.name for p in plain.out.iterdir())
    if names != sorted(p.name for p in traced.out.iterdir()):
        return {"*": f"traced pass wrote {names} differently"}
    return {
        Path(name).stem: f"{name} differs between the traced and the untraced pass"
        for name in names
        if (plain.out / name).read_bytes() != (traced.out / name).read_bytes()
    }


def layer_metrics(traced, workload):
    """Per-layer metrics of one traced pass, and what it failed to trace."""
    self_s, calls, counts = {}, {}, {}
    startup = 0.0
    missing = set()
    for op in workload.ops:
        path = traced.logs / f"{op.name}.spans.json"
        if not path.is_file():
            continue  # the op failed; its failure is already recorded
        data = json.loads(path.read_text(encoding="utf-8"))
        check_origin(data["module"])
        startup += data["startup_s"]
        missing.update(f"{fn} is in trace_child.LAYERS but not in the program"
                       for fn in data["missing"])
        spans = data["spans"]
        covered = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for (group, t0, t1, _), inner in zip(spans, covered):
            self_s[group] = self_s.get(group, 0.0) + (t1 - t0 - inner)
            calls[group] = calls.get(group, 0) + 1
        for name, n in data["counts"].items():
            counts[name] = counts.get(name, 0) + n
    metrics = {f"{g}_s": v for g, v in self_s.items()}
    metrics.update({f"{g}_calls": v for g, v in calls.items()})
    metrics.update(counts)
    lookups = calls.get("cli.cached_table", 0)
    hits = lookups - counts.get("cli.cached_table_misses", 0)
    metrics["cli.cached_table_hits"] = hits
    metrics["cli.cached_table_hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["cli.self_s"] = self_s.get("cli.main", 0.0) + self_s.get("cli.cached_table", 0.0)
    metrics["cli.startup_s"] = startup
    missing.update(f"no spans from layer {layer}"
                   for layer in workload.layers - {g.split(".")[0] for g in self_s})
    return metrics, missing


def known_layer_metrics():
    """Every per-layer metric name run.py can produce, for any workload."""
    groups = {g for fns in trace_child.LAYERS.values() for g in fns.values()} | {"cli.main"}
    names = {f"{g}_s" for g in groups} | {f"{g}_calls" for g in groups}
    names |= {counter for counter, _ in trace_child.COUNTS.values()}
    names |= {"cli.cached_table_hits", "cli.cached_table_misses", "cli.cached_table_hit_ratio",
              "cli.self_s", "cli.startup_s", "trace.overhead_s"}
    names |= {f"op.{op.name}_s" for w in WORKLOADS.values() for op in w.ops}
    return names


def quartiles(values):
    """(median, q1, q3, n) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3, len(values)


def source_identity():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        top, head = git.stdout.split()
        if git.returncode == 0 and Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass  # not a git checkout: the source hash identifies the code
    return commit, digest.hexdigest()


def measure(workload, seed, seconds, trace):
    work = WORK / workload.name
    reset(work)
    cache, plain_out, traced_out = work / "cache", work / "out", work / "out-traced"
    setups, plain, traced, layers = [], [], [], []
    env = None

    def set_up():
        nonlocal env
        elapsed, env = setup(workload, cache, work)
        setups.append(elapsed)

    if not workload.warm:
        for _ in range(SETUPS - 1):
            set_up()
    measured = 0.0  # seconds spent in passes
    while measured < seconds or len(setups) < SETUPS:
        # cli-warm spreads its set-ups over the run, so that its passes sample
        # the machine's speed over the whole run rather than one stretch of it
        if not workload.warm or measured >= len(setups) * seconds / SETUPS:
            set_up()
        plain.append(run_pass(workload, seed, cache, plain_out, traced=False))
        measured += plain[-1].wall_s
        if trace:
            if not workload.warm:
                set_up()
            run = run_pass(workload, seed, cache, traced_out, traced=True)
            for op, problem in compare_outputs(plain[-1], run).items():
                run.failures.setdefault(op, problem)
            layers.append(layer_metrics(run, workload))
            traced.append(run)
            measured += run.wall_s
    return setups, plain, traced, layers, env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "gaussvariants" / "cli.py").is_file() or not bench_file.is_file():
        print(f"perfbench: no gaussvariants sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    declared = {m["name"] for m in bench["per_layer"]}
    mapped = json.loads((HERE / "interactions.json").read_text(encoding="utf-8"))["per_layer"]
    if declared - known_layer_metrics() or declared != mapped.keys():
        print("perfbench: the per-layer metrics of BENCHMARK.json, run.py and "
              "interactions.json disagree", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        setups, plain, traced, layers, env = measure(workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    per_pass = {
        "wall_s": [p.wall_s for p in plain],
        "cpu_s": [p.cpu_s for p in plain],
        "peak_rss_mb": [p.peak_rss_mb for p in plain],
        "setup_s": setups,
    }
    if args.trace:
        for op in workload.ops:
            per_pass[f"op.{op.name}_s"] = [p.children[op.name].end - p.children[op.name].start
                                           for p in plain]
        for name in {n for metrics, _ in layers for n in metrics}:
            per_pass[name] = [metrics.get(name, 0) for metrics, _ in layers]
        per_pass["trace.overhead_s"] = [
            statistics.median(t.wall_s for t in traced) - statistics.median(per_pass["wall_s"])
        ]
    passes = plain + traced
    attempted = sum(len(p.children) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    missing = sorted({gap for _, gaps in layers for gap in gaps})

    commit, src_hash = source_identity()
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(plain)}+{len(traced)} traced")
    print(f"env: python {env['python']} ({env['implementation']}), "
          f"numpy {env['numpy']}, blas {env['blas']}, nproc {env['nproc']}, "
          f"commit {commit}, src sha256 {src_hash}")
    print("env: cache reads are page-cache reads; the file cache is never dropped, "
          "so disk behaviour is not measured")
    for p in passes:
        for op, problem in p.failures.items():
            print(f"FAILED {op}: {problem}")
    for gap in missing:
        print(f"FAILED trace: {gap}")
    print(f"fail_share {failed}/{attempted} = {failed / attempted:g} (operations)")
    metrics = {}
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    for m in spec:
        values = per_pass.get(m["name"], [0])
        median, q1, q3, n = quartiles(values)
        print(f"{m['name']:<44} {median:>14.6f} {m['unit']:<6} "
              f"q1 {q1:<14.6f} q3 {q3:<14.6f} n={n}")
        metrics[m["name"]] = {"value": median, "unit": m["unit"]}
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

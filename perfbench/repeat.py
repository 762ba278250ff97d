"""Run the benchmark several times per workload and report the spread.

Usage, from the root of a checkout:

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1] [--trace 0|1]
        [--out FILE]

Run i of each workload of BENCHMARK.json uses seed first-seed + i, for
run_seconds seconds as BENCHMARK.json sets.  For every metric this prints
the median, the quartiles (statistics.quantiles, n=4) and their distance as
a share of the median, next to the metric's bound.  With --out it also
writes these numbers, the environment lines of the first run, and every
run's result, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    env = [line for line in lines if line.startswith("env:")]
    return json.loads(lines[-1]), env


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "iqr_share": (q3 - q1) / median if median else 0.0}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"runs": {}, "summary": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for i in range(args.runs):
            result, env = run_once(workload, args.first_seed + i, bench["run_seconds"], args.trace)
            report.setdefault("environment", env)
            results.append(result)
            print(f"{workload} seed {args.first_seed + i}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        report["runs"][workload] = results
        summary = report["summary"][workload] = {}
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        summary["fail_share"] = {"failed": failed, "attempted": attempted}
        print(f"  {'fail_share':<44} {failed}/{attempted} operations")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            s = summary[name] = spread(values) if len(values) > 1 else {"median": values[0]}
            s["unit"] = first["unit"]
            bound = bounds.get(name)
            print(f"  {name:<44} {first['unit']:<6} median {s['median']:<12.6g}"
                  + (f" q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['iqr_share']:.4f}"
                     if len(values) > 1 else "")
                  + (f" bound {bound}" if bound is not None else ""), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

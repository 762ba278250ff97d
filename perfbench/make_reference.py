"""Rewrite reference/ from one pass of cli-cold and one of checks.

Usage, from the root of a checkout: python3 perfbench/make_reference.py

The files in reference/ define what verify.py accepts, so rewrite them only
for an intended change of gv's output, and review their diff.
"""

from __future__ import annotations

import shutil
import sys

import run
import verify
from workloads import WORKLOADS


def main():
    verify.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in ("cli-cold", "checks"):
        workload = WORKLOADS[name]
        work = run.WORK / "make-reference" / name
        run.reset(work)
        run.setup(workload, work / "cache", work)
        result = run.run_pass(workload, 0, work / "cache", work / "out", traced=False)
        for op, child in result.children.items():
            if child.code != 0:
                print(f"{op}: {result.failures[op]}", file=sys.stderr)
                return 1
        for path in sorted(result.out.iterdir()):
            if path.name not in verify.SEEDED:
                shutil.copyfile(path, verify.REFERENCE_DIR / path.name)
                print(f"wrote reference/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

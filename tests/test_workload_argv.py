"""Every operation of the benchmark parses as gv arguments.

`perfbench/workloads.py` lists the gv arguments of each workload's
operations, and `op_argv` adds --cache and --out to every one.  A change
that drops or renames an option the benchmark passes fails here first, not
in a benchmark run.  Loading the file runs no package code.
"""

import pytest
from conftest import load_workloads

from gaussvariants import cli

workloads = load_workloads()
OPS = {op.name: op for w in workloads.WORKLOADS.values() for op in w.ops}


@pytest.mark.parametrize("name", list(OPS))
def test_op_argv_parses(name):
    op = OPS[name]
    argv = workloads.op_argv(op, 1, "cache", op.name)
    args = cli.build_parser().parse_args(argv)
    assert (args.subcommand, args.cache, args.out) == (argv[0], "cache", op.name)

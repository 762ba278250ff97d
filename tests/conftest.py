"""Shared session fixtures, the child-process guard and the acceptance-criteria
summary table."""

import importlib.util
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussvariants import arith, cuspform, lattice
from gaussvariants.selection import TableSelection

ACCEPTANCE_REPORTS = []

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    """`perfbench/workloads.py`, the operations of the benchmark, loaded from
    its file without changing it; loading it runs no package code."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # this process has no children
        return
    pytest.fail(f"the test left a child process behind ({'still running' if pid == 0 else pid})")


def shell_entries(table, h, n_top):
    """The entries r(m^2 + h) of ``table`` that the hyperboloid sums over the
    shells 2m^2 + h <= n_top read: what those sums take."""
    last = lattice.hyperboloid_index(h, n_top)
    return TableSelection(last, lattice.shell_indices(h, last)).apply(table)


def exact_count_integral(values, X):
    """int_0^X (C_n - pi r)^2 dr by the piece formula of ``mean_square_P2``,
    with C_n the running sums of the r_2 entries ``values`` taken as Python
    ints and each rounded once."""
    top = math.ceil(X)
    counts = np.array([float(c) for c in itertools.accumulate(values[:top])])
    left = np.arange(top, dtype=np.float64)
    right = np.minimum(left + 1.0, X)
    piece = ((counts - math.pi * left) ** 3 - (counts - math.pi * right) ** 3) / (3 * math.pi)
    return math.fsum(piece.tolist())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_REPORTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_REPORTS):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def r2_big():
    # covers: Bessel series (1e6 terms), mean square to 2^18, sharp
    # hyperboloid counts to R = 2^20, smoothed hyperboloids to X = 2^16
    return arith.r_d_table(2, 1_400_000)


@pytest.fixture(scope="session")
def r2_nonzero(r2_big):
    # the nonzero entries of r2_big: what the circle functions take
    return TableSelection(1_400_000).apply(r2_big)


@pytest.fixture(scope="session")
def tau():
    # covers the smoothed second moment at X = 2^12 (needs 40 X) and the
    # short-interval grid to 2^16 + window
    return cuspform.tau_table(164_000)


def delta_form(n_max):
    """The weight-12 form with tau coefficients to n_max, folded with the
    Rankin series and the floats, so that every sum of ``cuspform`` reads it."""
    return cuspform.CuspFold(n_max, rankin=True, floats=True).apply(cuspform.tau_table(n_max))


@pytest.fixture(scope="session")
def delta(tau):
    # tau folded with everything the sums read, as ``delta_form`` folds it
    return cuspform.CuspFold(tau.n_max, rankin=True, floats=True).apply(tau)


@pytest.fixture(scope="session")
def divisor_tables():
    d_all, d_odd = arith.divisor_counts(200 * 200 + 1)
    return d_all, d_odd


@pytest.fixture(scope="session")
def r_small():
    # r_d(n) for d = 1..6, n <= 500 (criterion 1 grid)
    return {d: arith.r_d_table(d, 500) for d in range(1, 7)}

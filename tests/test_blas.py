"""No pinned bit depends on BLAS: OpenBLAS threads float and complex dots
past about 10^4 terms, and a threaded dot rounds differently."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from gaussvariants import kernels

PACKAGE = Path(kernels.__file__).resolve().parent

# a dense weighted sum of 2 * 10^6 floats, printed as its exact bits
DENSE_SUM = """
import numpy as np
from gaussvariants import kernels
b = np.random.default_rng(7).random(2_000_000) * 100.0
n = np.arange(1, len(b) + 1)
print(kernels.apply_kernel(n, b, kernels.KernelSpec("exponential"), 2.0**20).hex())
"""

# the files and functions allowed a BLAS product: the least-squares fits,
# and the Gauss-sum dot, which takes its products in pieces of 10^4 terms
BLAS_ALLOWED = {("fit.py", None), ("charsums.py", "_roots_of_unity_dot")}
BLAS_NAMES = {"dot", "vdot", "matmul"}


def dense_sum_hex(blas_threads):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    env.pop("OMP_NUM_THREADS", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    done = subprocess.run(
        [sys.executable, "-c", DENSE_SUM], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_apply_kernel_bits_do_not_depend_on_blas_threads():
    assert dense_sum_hex(1) == dense_sum_hex(None)


def blas_products(path):
    """(line, code) of each np.dot, matmul or @ in the file, outside the
    functions BLAS_ALLOWED names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) in BLAS_ALLOWED:
            allowed.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        matmul = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        named = isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES
        called = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in BLAS_NAMES
        )
        if matmul or named or called:
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_blas_product_outside_the_fits_and_the_gauss_sum_dot():
    found = {
        path.name: blas_products(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if (path.name, None) not in BLAS_ALLOWED
    }
    assert {name: uses for name, uses in found.items() if uses} == {}
    # the scan does see the products it exempts
    assert blas_products(PACKAGE / "fit.py")

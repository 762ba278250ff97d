"""Import gaussvariants, report the environment, and fill a table cache.

Usage: python setup_child.py CACHE_DIR [LABEL:N_MAX ...]

Prints one JSON object: where gaussvariants was imported from and the
interpreter, numpy and BLAS versions.  Then builds each LABEL:N_MAX table
through `cli.cached_table`, the path every gv subcommand uses, so the cache
holds exactly the files those subcommands look for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from gaussvariants import arith, cli, cuspform

BUILDERS = {
    "tau": cuspform.tau_table,
    "r_2": lambda n: arith.r_d_table(2, n),
}


def _blas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def main(argv):
    print(
        json.dumps(
            {
                "module": cli.__file__,
                "python": sys.version.split()[0],
                "implementation": sys.implementation.name,
                "numpy": np.__version__,
                "blas": _blas(),
                "nproc": len(os.sched_getaffinity(0)),
            }
        ),
        flush=True,
    )
    args = argparse.Namespace(cache=argv[0])
    for spec in argv[1:]:
        label, n_max = spec.split(":")
        cli.cached_table(args, label, BUILDERS[label], int(n_max))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

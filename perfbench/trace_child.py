"""Run one gv operation with spans around the calls into each layer.

Usage: python trace_child.py SPANS_JSON SPAWN_T <gv arguments...>

SPAWN_T is the parent's CLOCK_MONOTONIC reading just before it started this
process.  Before calling `cli.main`, the public functions listed in LAYERS
are rebound, on every gaussvariants module that holds them, to wrappers that
record a span (name, start, end, parent span) and the counts named in
COUNTS.  Spans stay in memory and are written to SPANS_JSON when `main`
returns, with the LAYERS functions that were not found.  The wrappers
return what the wrapped function returns, so the CSV and JSON the operation
writes are the same as without tracing.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# span group of each wrapped function, per module
LAYERS = {
    "arith": {
        "r_d_table": "arith.r_d_table",
        "divisor_counts": "arith.divisor_counts",
        "write_table_cache": "arith.write_table_cache",
        "read_table_cache": "arith.read_table_cache",
        "truncated_L": "arith.truncated_L",
        "smallest_prime_factors": "arith.smallest_prime_factors",
    },
    "cuspform": {
        "tau_table": "cuspform.tau_table",
        "partial_sums": "cuspform.moments",
        "smoothed_second_moment": "cuspform.moments",
        "rankin_constant": "cuspform.moments",
        "short_interval_average": "cuspform.moments",
        "sign_changes": "cuspform.moments",
    },
    "charsums": {
        "gauss_sum_g": "charsums.gauss_sum_g",
        "gauss_sum_H": "charsums.gauss_sum_H",
        "factorization_check": "charsums.factorization_check",
    },
    "kernels": {
        "cesaro_contour": "kernels.contour",
        "exp_contour": "kernels.contour",
        "concentrating_contour": "kernels.contour",
        "apply_kernel": "kernels.apply_kernel",
    },
    "lattice": {
        "points_on_unit_hyperboloid": "lattice.points_on_unit_hyperboloid",
        "hardy_identity": "lattice.hardy_identity",
        "hyperboloid_count": "lattice.hyperboloid",
        "hyperboloid_smoothed": "lattice.hyperboloid",
        "hyperboloid_short_interval": "lattice.hyperboloid",
        "hyperboloid_shell_table": "lattice.hyperboloid",
        "mean_square_P2": "lattice.mean_square_P2",
    },
    "fit": {
        "log_term_verdict": "fit.log_term_verdict",
        "estimate_exponent": "fit.estimate_exponent",
    },
    "cli": {
        "cached_table": "cli.cached_table",
        "write_csv": "cli.output",
        "write_json": "cli.output",
    },
}


def _file_bytes(path):
    return os.path.getsize(path) if path != "-" else 0


def _quad_points(args, kwargs):
    quad = kwargs.get("quad", args[-1])
    return quad.steps + 1  # the trapezoid evaluates steps + 1 nodes


# counter name and how to read its increment from (args, kwargs, result)
COUNTS = {
    "cuspform.tau_table": ("cuspform.tau_table_entries", lambda a, k, r: len(r)),
    "arith.r_d_table": ("arith.r_d_table_entries", lambda a, k, r: len(r)),
    "arith.write_table_cache": ("arith.write_table_cache_bytes", lambda a, k, r: _file_bytes(a[0])),
    "arith.read_table_cache": ("arith.read_table_cache_bytes", lambda a, k, r: _file_bytes(a[0])),
    "kernels.contour": ("kernels.contour_points", lambda a, k, r: _quad_points(a, k)),
    "cli.output": ("cli.output_bytes", lambda a, k, r: _file_bytes(a[0])),
}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.spans = []  # [group, start, end, parent index or -1]
        self.counts = {}
        self._open = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, group, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([group, _now(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = _now()
        counter = COUNTS.get(group)
        if counter:
            self.count(counter[0], counter[1](args, kwargs, result))
        return result

    def wrap(self, group, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(group, fn, *args, **kwargs)

        return traced


def _count_misses(tracer, cached_table):
    """cached_table, counting the lookups that had to build their table."""

    @functools.wraps(cached_table)
    def counting(args, label, builder, n_max):
        def counting_builder(n):
            tracer.count("cli.cached_table_misses")
            return builder(n)

        return cached_table(args, label, counting_builder, n_max)

    return counting


def install(tracer, modules):
    """Rebind each function in LAYERS on every module that refers to it.

    Returns the LAYERS functions that no longer exist, as module.name.
    """
    missing = []
    for module_name, functions in LAYERS.items():
        for fn_name, group in functions.items():
            original = getattr(modules[module_name], fn_name, None)
            if original is None:
                missing.append(f"{module_name}.{fn_name}")
                continue
            fn = _count_misses(tracer, original) if group == "cli.cached_table" else original
            traced = tracer.wrap(group, fn)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
    return missing


def main(argv):
    spans_path, spawn_t, gv_argv = argv[0], float(argv[1]), argv[2:]
    from gaussvariants import arith, charsums, cli, cuspform, fit, kernels, lattice

    modules = {
        "arith": arith,
        "charsums": charsums,
        "cuspform": cuspform,
        "fit": fit,
        "kernels": kernels,
        "lattice": lattice,
        "cli": cli,
    }
    tracer = Tracer()
    missing = install(tracer, modules)
    startup = _now() - spawn_t
    try:
        code = tracer.span("cli.main", cli.main, gv_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "module": cli.__file__,
                    "startup_s": startup,
                    "spans": tracer.spans,
                    "counts": tracer.counts,
                    "missing": missing,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

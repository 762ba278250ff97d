"""Command-line front end: one subcommand per empirical check.

Every run writes a CSV (the data; fixed columns per subcommand, described
in --help) and a JSON summary (fitted constants, residuals, verdicts,
pass/fail where --check applies).  Identical configurations, including
--seed, produce byte-identical CSV output.

Exit codes: 0 ok, 2 configuration error (or a table past 128 bits, or an
FFT product whose rounding margin cannot certify an exact table),
3 table-coverage error, 4 failed check under --check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import arith, checks, cuspform, fit, kernels, lattice

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COVERAGE = 3
EXIT_CHECK_FAILED = 4


# ---------------------------------------------------------------------------
# Small plumbing: grids, kernel specs, cache, output
# ---------------------------------------------------------------------------

def parse_grid(text):
    """Grid syntax: '2^a..2^b' (geometric, step x2) or 'a:b:s' (arithmetic)."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        if not (lo.startswith("2^") and hi.startswith("2^")):
            raise ValueError(f"geometric grids look like 2^a..2^b, got {text!r}")
        a, b = int(lo[2:]), int(hi[2:])
        if b < a:
            raise ValueError("empty grid")
        return [float(2**e) for e in range(a, b + 1)]
    if text.count(":") == 2:
        a, b, s = (float(part) for part in text.split(":"))
        if s <= 0 or b < a:
            raise ValueError("bad arithmetic grid")
        out = []
        x = a
        while x <= b + 1e-9:
            out.append(float(x))
            x += s
        return out
    raise ValueError(f"cannot parse grid {text!r}")


def parse_kernel(text):
    """Kernel syntax: exp | cesaro:k | conc:Y | compact:Y."""
    name, _, arg = text.partition(":")
    if name == "exp":
        return kernels.KernelSpec.exponential()
    if name == "cesaro":
        return kernels.KernelSpec.cesaro(int(arg))
    if name == "conc":
        return kernels.KernelSpec.concentrating(float(arg))
    if name == "compact":
        return kernels.KernelSpec.compact(float(arg))
    raise ValueError(f"unknown kernel {text!r}")


def cache_dir(args):
    return os.environ.get("GV_CACHE") or args.cache


def cached_table(args, label, builder, n_max):
    """Fetch a coefficient table from the cache dir, building on miss."""
    directory = cache_dir(args)
    if not directory:
        return builder(n_max)
    path = os.path.join(directory, f"{label}-{n_max}.gvct")
    if os.path.exists(path):
        table = arith.read_table_cache(path)
        if table.label == label and table.n_max >= n_max:
            return table
    table = builder(n_max)
    arith.write_table_cache(path, table)
    return table


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    if path == "-":
        sys.stdout.buffer.write(payload)
        return
    with open(path, "wb") as fh:
        fh.write(payload)


def write_json(path, summary):
    summary = dict(summary)
    summary["schemaVersion"] = SCHEMA_VERSION
    payload = (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode("utf-8")
    if path == "-":
        sys.stdout.buffer.write(payload)
        return
    with open(path, "wb") as fh:
        fh.write(payload)


def out_paths(args, stem):
    if args.out:
        base, ext = os.path.splitext(args.out)
        if ext.lower() == ".csv":
            return args.out, base + ".json"
        return args.out + ".csv", args.out + ".json"
    return f"{stem}.csv", f"{stem}.json"


class CheckFailure(Exception):
    """Raised when --check is set and the run's criterion fails."""


def _check(args, ok, message):
    if args.check and not ok:
        raise CheckFailure(message)
    return bool(ok)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_tau(args):
    table = cached_table(args, "tau", cuspform.tau_table, args.table_size)
    csv_path, json_path = out_paths(args, "tau")
    rows = [(n, table[n]) for n in range(1, min(table.n_max, args.table_size) + 1)]
    write_csv(csv_path, ("n", "tau"), rows)
    write_json(json_path, {"label": "tau", "nMax": table.n_max, "csv": csv_path})
    return EXIT_OK


def cmd_second_moment(args):
    form = cuspform.CuspFormSeries(
        12, cached_table(args, "tau", cuspform.tau_table, args.table_size), "delta"
    )
    grid = parse_grid(args.grid)
    C, tail = cuspform.rankin_constant(form, args.table_size)
    rows = []
    for X in grid:
        val = cuspform.smoothed_second_moment(form, X)
        rows.append((X, val, val / X**1.5, val / X**1.5 / C - 1.0))
    gap = abs(rows[-1][2] / C - 1.0)
    ok = _check(args, gap <= 0.05, f"relative gap {gap:.4f} exceeds 5%")
    csv_path, json_path = out_paths(args, "second-moment")
    write_csv(csv_path, ("X", "smoothedSecondMoment", "ratioX32", "relGapToC"), rows)
    write_json(
        json_path,
        {
            "constant": C,
            "constantTailBound": tail,
            "relativeGapAtMaxX": gap,
            "tolerance": 0.05,
            "pass": ok,
        },
    )
    return EXIT_OK


def cmd_sign_scan(args):
    form = cuspform.CuspFormSeries(
        12, cached_table(args, "tau", cuspform.tau_table, args.table_size), "delta"
    )
    series = cuspform.partial_sums(form, args.nu)
    rows = []
    all_nonempty = True
    for X in parse_grid(args.grid):
        changes = cuspform.sign_changes(series, int(X), args.r)
        rows.append((int(X), len(changes), changes[0] if changes else -1))
        all_nonempty = all_nonempty and bool(changes)
    ok = _check(args, all_nonempty, "a window produced no sign change")
    csv_path, json_path = out_paths(args, "sign-scan")
    write_csv(csv_path, ("X", "nChanges", "firstChange"), rows)
    write_json(
        json_path,
        {"nu": args.nu, "r": args.r, "allWindowsNonempty": all_nonempty, "pass": ok},
    )
    return EXIT_OK


def cmd_short_interval(args):
    form = cuspform.CuspFormSeries(
        12, cached_table(args, "tau", cuspform.tau_table, args.table_size), "delta"
    )
    rows = []
    worst = 0.0
    for X in parse_grid(args.grid):
        val = cuspform.short_interval_average(form, int(X))
        norm = val / X ** (form.weight - 0.5)
        worst = max(worst, norm)
        rows.append((int(X), val, norm))
    csv_path, json_path = out_paths(args, "short-interval")
    write_csv(csv_path, ("X", "windowAverage", "normalized"), rows)
    write_json(json_path, {"maxNormalized": worst})
    return EXIT_OK


def cmd_count_circle(args):
    table = cached_table(args, "r_2", lambda n: arith.r_d_table(2, n), args.table_size)
    rows = []
    for R in parse_grid(args.grid):
        count = lattice.count_ball(2, R, table)
        vol = lattice.ball_volume(2, R)
        rows.append((R, count, vol, count - vol))
    csv_path, json_path = out_paths(args, "count-circle")
    write_csv(csv_path, ("R", "count", "volume", "discrepancy"), rows)
    write_json(
        json_path,
        {"maxAbsDiscrepancyOverSqrtR": max(abs(r[3]) / math.sqrt(r[0]) for r in rows)},
    )
    return EXIT_OK


def cmd_mean_square_p2(args):
    table = cached_table(args, "r_2", lambda n: arith.r_d_table(2, n), args.table_size)
    grid = parse_grid(args.grid)
    rows = [(X, lattice.mean_square_P2(X, table)) for X in grid]
    series = lattice.count_series(grid, [r[1] for r in rows])
    slope = fit.estimate_exponent(series)
    ok = _check(args, abs(slope - 1.5) <= 0.05, f"slope {slope:.4f} not 1.5 +- 0.05")
    csv_path, json_path = out_paths(args, "mean-square-p2")
    write_csv(csv_path, ("X", "integral"), rows)
    write_json(json_path, {"slope": slope, "tolerance": 0.05, "pass": ok})
    return EXIT_OK


def cmd_hardy(args):
    table = cached_table(args, "r_2", lambda n: arith.r_d_table(2, n), args.table_size)
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for _ in range(args.count):
        # offsets stay in the middle band between integer shells, where the
        # truncated Bessel series is not Gibbs-limited by the count jumps
        R = float(rng.integers(10, 999)) + float(rng.uniform(0.3, 0.7))
        approx = lattice.hardy_identity(R, args.terms, table)
        exact = lattice.discrepancy(2, R, table)
        err = abs(approx - exact)
        worst = max(worst, err)
        rows.append((R, approx, exact, err))
    ok = _check(args, worst < 0.05, f"max |error| {worst:.4f} >= 0.05")
    csv_path, json_path = out_paths(args, "hardy")
    write_csv(csv_path, ("R", "besselSeries", "discrepancy", "absError"), rows)
    write_json(
        json_path,
        {"terms": args.terms, "maxAbsError": worst, "tolerance": 0.05, "pass": ok},
    )
    return EXIT_OK


_WITH_LOG = ((0.5, 1), (0.5, 0))
_WITHOUT_LOG = ((0.5, 0),)


def _hyperboloid_table(args, grid, reach, what):
    """The r_{d-1} table of a hyperboloid command, whose grid point X reads
    the shells below reach(X) for ``what``; a --table-size that falls short
    of one exits 3 before any table is built or cached."""
    if args.d < 3 or args.h < 1:
        raise ValueError("need d >= 3 and h >= 1")
    label = f"r_{args.d - 1}"
    for X in grid:
        need = lattice.hyperboloid_index(args.h, reach(X))
        arith.require_coverage(label, args.table_size, need, what.format(X=X, d=args.d, h=args.h))
    return cached_table(args, label, lambda n: arith.r_d_table(args.d - 1, n), args.table_size)


def cmd_count_hyperboloid(args):
    grid = parse_grid(args.grid)
    table = _hyperboloid_table(args, grid, lambda R: R, "N_{{{d},{h}}}({X:g})")
    rows = [(R, lattice.hyperboloid_count(args.d, args.h, R, table)) for R in grid]
    summary = {"d": args.d, "h": args.h}
    if args.d == 3:
        series = lattice.count_series(grid, [r[1] for r in rows])
        verdict = fit.log_term_verdict(series, _WITH_LOG, _WITHOUT_LOG, seed=args.seed)
        summary.update(
            {
                "verdict": verdict.verdict,
                "logCoefficient": verdict.log_coefficient,
                "logCoefficientSE": verdict.log_coefficient_se,
                "residualRatio": verdict.residual_ratio,
            }
        )
        root = math.isqrt(args.h)
        expected = "log" if root * root == args.h else "no-log"
        summary["expectedVerdict"] = expected
        _check(args, verdict.verdict == expected, f"verdict {verdict.verdict}")
        summary["pass"] = verdict.verdict == expected
    csv_path, json_path = out_paths(args, "count-hyperboloid")
    write_csv(csv_path, ("R", "count"), rows)
    write_json(json_path, summary)
    return EXIT_OK


def cmd_smooth_hyperboloid(args):
    kernel = parse_kernel(args.kernel)
    grid = parse_grid(args.grid)
    if kernel.kind == "exponential":
        table = _hyperboloid_table(args, grid, lambda X: 40.0 * X, "smoothed hyperboloid at X={X:g}")
    else:
        table = _hyperboloid_table(
            args, grid, lambda X: kernels.kernel_support(kernel, X), "hyperboloid shell table"
        )
    rows = []
    for X in grid:
        if kernel.kind == "exponential":
            val = lattice.hyperboloid_smoothed(args.d, args.h, X, table)
        else:
            shell = lattice.hyperboloid_shell_table(
                args.d, args.h, kernels.kernel_support(kernel, X), table
            )
            val = kernels.apply_kernel(shell, kernel, X)
        rows.append((X, val))
    csv_path, json_path = out_paths(args, "smooth-hyperboloid")
    write_csv(csv_path, ("X", "smoothed"), rows)
    series = lattice.count_series(grid, [r[1] for r in rows])
    write_json(
        json_path,
        {"d": args.d, "h": args.h, "kernel": args.kernel, "slope": fit.estimate_exponent(series)},
    )
    return EXIT_OK


def cmd_short_hyperboloid(args):
    grid = parse_grid(args.grid)
    table = _hyperboloid_table(  # each window |n - X| < X^(1 - lambda)
        args, grid, lambda X: X + X ** (1.0 - lattice.power_saving_exponent(args.d)),
        "short-interval window at X={X:g}",
    )
    rows = []
    worst = 0.0
    for X in grid:
        total, norm = lattice.hyperboloid_short_interval(args.d, args.h, X, table)
        worst = max(worst, norm)
        rows.append((X, total, norm))
    csv_path, json_path = out_paths(args, "short-hyperboloid")
    write_csv(csv_path, ("X", "windowSum", "normalized"), rows)
    write_json(
        json_path,
        {"d": args.d, "h": args.h, "lambda": lattice.power_saving_exponent(args.d), "maxNormalized": worst},
    )
    return EXIT_OK


def cmd_divisor_identity(args):
    n_needed = args.R * args.R + 1
    d_all, d_odd = arith.divisor_counts(n_needed)
    odd = lattice.divisor_identity_check(args.R, d_odd)
    comb = lattice.divisor_combination(args.R - args.R % 2, d_all)
    rows = [(R, "odd-divisor", a, b, int(e)) for R, a, b, e in zip(range(1, args.R + 1), *odd)]
    rows += [(R, "combination", a, b, int(e)) for R, a, b, e in zip(range(2, args.R + 1, 2), *comb)]
    all_equal = all(row[4] for row in rows)
    ok = _check(args, all_equal, "an exact divisor identity failed")
    csv_path, json_path = out_paths(args, "divisor-identity")
    write_csv(csv_path, ("R", "identity", "lhs", "rhs", "equal"), rows)
    write_json(json_path, {"maxR": args.R, "allEqual": all_equal, "pass": ok})
    return EXIT_OK


_GAUSS_SUITES = (
    ("H-multiplicative", checks.h_multiplicative),
    ("H-prime-eval", checks.h_prime_eval),
    ("H-vanishing", checks.h_vanishing),
    ("two-piece", checks.two_piece),
)


def cmd_gauss_sums(args):
    rows = []
    worst = {}
    for name, suite in _GAUSS_SUITES:
        for p in suite():
            rows.append((*p.params, p.value.real, p.value.imag, name, p.residual))
            worst[name] = max(worst.get(name, 0.0), p.residual)
    tol = checks.TOL
    ok = _check(args, max(worst.values()) < tol, "a Gauss-sum residual exceeded 1e-9")
    csv_path, json_path = out_paths(args, "gauss-sums")
    write_csv(csv_path, ("h", "modulus", "k", "re", "im", "check", "residual"), rows)
    write_json(json_path, {"tolerance": tol, "worstResiduals": worst, "pass": ok})
    return EXIT_OK


def cmd_eisenstein_check(args):
    rows = []
    worst_reduction = 0.0
    for p in checks.reduction():
        h, c, k = p.params
        rows.append((h, c, k, 0.0, p.residual, "reduction"))
        worst_reduction = max(worst_reduction, p.residual / (4 * c))
    fact_ok = True
    for p in checks.factorization(((2.0, args.terms), (1.75, args.terms))):
        rows.append((*p.params, p.residual, "factorization"))
        fact_ok = fact_ok and p.residual <= p.bound
    ok = _check(
        args,
        worst_reduction < checks.TOL and fact_ok,
        "an Eisenstein-coefficient identity failed",
    )
    csv_path, json_path = out_paths(args, "eisenstein-check")
    write_csv(csv_path, ("h", "cOrN", "k", "w", "residual", "check"), rows)
    write_json(
        json_path,
        {
            "worstReductionResidualOver4c": worst_reduction,
            "factorizationWithinTails": fact_ok,
            "pass": ok,
        },
    )
    return EXIT_OK


# suite name, its points and the format of its CSV params column
_KERNEL_SUITES = (
    ("cesaro", checks.cesaro, "Y={};k={}"),
    ("concentrating", checks.concentrating, "X={:g};Y={:g}"),
    ("exponential", checks.exponential, "x={:g}"),
    ("compact", checks.compact, "Y={:g};s={:g}"),
)


def cmd_kernels_verify(args):
    rows = []
    worst = {}
    within = True
    for name, suite, label in _KERNEL_SUITES:
        for p in suite():
            rows.append((name, label.format(*p.params), p.residual, p.bound))
            # compact reports its residual in units of its 2/Y bound
            scaled = p.residual * p.params[0] / 2.0 if name == "compact" else p.residual
            worst[name] = max(worst.get(name, 0.0), scaled)
            within = within and p.residual < p.bound
    ok = _check(args, within, "a kernel identity exceeded its tolerance")
    csv_path, json_path = out_paths(args, "kernels-verify")
    write_csv(csv_path, ("kernel", "params", "residual", "tolerance"), rows)
    write_json(json_path, {"maxResidualPerKernel": worst, "pass": ok})
    return EXIT_OK


def cmd_fit(args):
    data = np.loadtxt(args.data, delimiter=",", skiprows=1, ndmin=2)
    grid, values = data[:, 0], data[:, 1]
    model = []
    for term in args.model.split(","):
        a, _, b = term.partition(":")
        model.append((float(a), int(b or 0)))
    series = lattice.count_series(grid, values)
    result = fit.fit_model(series, model)
    csv_path, json_path = out_paths(args, "fit")
    write_csv(
        csv_path,
        ("exponent", "logPower", "coefficient"),
        [(a, b, c) for (a, b), c in zip(result.model, result.coefficients)],
    )
    write_json(
        json_path,
        {
            "residualNorm": result.residual_norm,
            "slopeEstimate": result.slope_estimate,
            "conditionNumber": result.condition_number,
        },
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="gv",
        description="Lattice counting for Gauss-circle variants: exact counts, "
        "Gauss sums, cutoff kernels, and asymptotic fits.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, table_size=None):
        p.add_argument("--out", help="output stem or .csv path (JSON goes beside it)")
        p.add_argument("--cache", help="coefficient cache directory (env GV_CACHE overrides)")
        p.add_argument("--check", action="store_true", help="exit 4 if the run's criterion fails")
        p.add_argument("--seed", type=int, default=0, help="seed for any randomized piece")
        if table_size is not None:
            p.add_argument("--table-size", type=int, default=table_size, help="coefficient table length")

    p = sub.add_parser("tau", help="build (and cache) the tau coefficient table; CSV: n,tau")
    common(p, table_size=1000)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser(
        "second-moment",
        help="smoothed second moment of delta partial sums vs its constant; "
        "CSV: X,smoothedSecondMoment,ratioX32,relGapToC",
    )
    common(p, table_size=164000)
    p.add_argument("--grid", default="2^8..2^12")
    p.set_defaults(func=cmd_second_moment)

    p = sub.add_parser(
        "sign-scan",
        help="sign changes of normalized partial sums in [X, X + X^r]; CSV: X,nChanges,firstChange",
    )
    common(p, table_size=21000)
    p.add_argument("--grid", default="2^4..2^13")
    p.add_argument("--nu", type=float, default=11 / 2 + 1 / 6 - 0.01)
    p.add_argument("--r", type=float, default=1.0)
    p.set_defaults(func=cmd_sign_scan)

    p = sub.add_parser(
        "short-interval",
        help="windowed second moment of delta partial sums; CSV: X,windowAverage,normalized",
    )
    common(p, table_size=70000)
    p.add_argument("--grid", default="2^10..2^16")
    p.set_defaults(func=cmd_short_interval)

    p = sub.add_parser(
        "count-circle", help="exact circle counts vs area; CSV: R,count,volume,discrepancy"
    )
    common(p, table_size=10000)
    p.add_argument("--grid", default="2^4..2^13")
    p.set_defaults(func=cmd_count_circle)

    p = sub.add_parser(
        "mean-square-p2",
        help="mean square of the circle discrepancy and its growth exponent; CSV: X,integral",
    )
    common(p, table_size=262200)
    p.add_argument("--grid", default="2^10..2^18")
    p.set_defaults(func=cmd_mean_square_p2)

    p = sub.add_parser(
        "hardy",
        help="Bessel-series discrepancy vs exact counts at random non-integer R; "
        "CSV: R,besselSeries,discrepancy,absError",
    )
    common(p, table_size=10**6)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--terms", type=int, default=10**6)
    p.set_defaults(func=cmd_hardy)

    p = sub.add_parser(
        "count-hyperboloid",
        help="sharp hyperboloid counts with the log-term verdict at d=3; CSV: R,count",
    )
    common(p, table_size=530000)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--grid", default="2^10..2^20")
    p.set_defaults(func=cmd_count_hyperboloid)

    p = sub.add_parser(
        "smooth-hyperboloid", help="kernel-smoothed hyperboloid counts; CSV: X,smoothed"
    )
    common(p, table_size=1_400_000)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--grid", default="2^8..2^16")
    p.add_argument("--kernel", default="exp", help="exp | cesaro:k | conc:Y | compact:Y")
    p.set_defaults(func=cmd_smooth_hyperboloid)

    p = sub.add_parser(
        "short-hyperboloid",
        help="sharp window sums of width X^(1-lambda); CSV: X,windowSum,normalized",
    )
    common(p, table_size=600000)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--grid", default="2^10..2^14")
    p.set_defaults(func=cmd_short_hyperboloid)

    p = sub.add_parser(
        "divisor-identity",
        help="exact odd-divisor identities on X^2+Y^2=Z^2+1; CSV: R,identity,lhs,rhs,equal",
    )
    common(p)
    p.add_argument("--R", type=int, default=200)
    p.set_defaults(func=cmd_divisor_identity)

    p = sub.add_parser(
        "gauss-sums",
        help="Gauss-sum invariant suite; CSV: h,modulus,k,re,im,check,residual",
    )
    common(p)
    p.set_defaults(func=cmd_gauss_sums)

    p = sub.add_parser(
        "eisenstein-check",
        help="reduction and L-factorization identities; CSV: h,cOrN,k,w,residual,check",
    )
    common(p)
    p.add_argument("--terms", type=int, default=2000)
    p.set_defaults(func=cmd_eisenstein_check)

    p = sub.add_parser(
        "kernels-verify",
        help="contour quadrature vs closed forms for all kernels; CSV: kernel,params,residual,tolerance",
    )
    common(p)
    p.set_defaults(func=cmd_kernels_verify)

    p = sub.add_parser("fit", help="standalone least-squares fit of a CSV (X,value)")
    common(p)
    p.add_argument("--data", required=True, help="input CSV with header and X,value columns")
    p.add_argument("--model", required=True, help="comma list of exponent:logpower terms")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_CONFIG
    try:
        return args.func(args)
    except arith.TableCoverageError as exc:
        print(f"gv: table coverage: {exc}", file=sys.stderr)
        return EXIT_COVERAGE
    except CheckFailure as exc:
        print(f"gv: check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError, arith.TableOverflowError, arith.RoundingMarginError) as exc:
        print(f"gv: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

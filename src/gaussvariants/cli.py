"""Command-line front end: one subcommand per empirical check.

Every run writes a CSV (the data; fixed columns per subcommand, described
in --help) and a JSON summary (fitted constants, residuals, verdicts,
pass/fail where the subcommand has a criterion).  Identical
configurations, including --seed, produce byte-identical CSV output.

Each subcommand is declared once, beside its function, by ``subcommand``:
its name, help, CSV header, default --table-size, whether it takes --check
and --seed, and its own arguments.  The function returns (rows, summary,
failure), and ``main`` alone checks and writes, so a failed check leaves no
files.  Every subcommand takes --out and --cache.  --check (exit 4 when the
criterion fails) is taken by second-moment, sign-scan, mean-square-p2,
hardy, count-hyperboloid, divisor-identity, gauss-sums, eisenstein-check
and kernels-verify; --seed only by hardy and count-hyperboloid.

Each subcommand imports the package modules it uses as its first
statement, before it reads a table or draws a random number, so a process
loads only what its subcommand runs; of the package, this module itself
loads only ``arith``.

Exit codes: 0 ok, 2 configuration error (or an input that overflows, a
table past 128 bits among them, an FFT product whose rounding margin
cannot certify an exact table, or an allocation that fails), 3
table-coverage error, 4 failed check under --check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import arith

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COVERAGE = 3
EXIT_CHECK_FAILED = 4


# ---------------------------------------------------------------------------
# Small plumbing: grids, cache, output
# ---------------------------------------------------------------------------

_MAX_GRID_POINTS = 10**6


def parse_grid(text):
    """Grid syntax: '2^a..2^b' (geometric, step x2) or 'a:b:s' (arithmetic).

    A grid is finite and nonempty: 2^a..2^b needs -1074 <= a <= b <= 1023,
    so that every 2^e is a nonzero float, and a:b:s needs finite a <= b and
    s > 0, with each step advancing x and at most _MAX_GRID_POINTS points.
    """
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        if not (lo.startswith("2^") and hi.startswith("2^")):
            raise ValueError(f"geometric grids look like 2^a..2^b, got {text!r}")
        a, b = int(lo[2:]), int(hi[2:])
        if b < a:
            raise ValueError("empty grid")
        if a < -1074 or b > 1023:
            raise ValueError(f"grid {text!r}: 2^e is a nonzero float only for -1074 <= e <= 1023")
        return [float(2**e) for e in range(a, b + 1)]
    if text.count(":") == 2:
        a, b, s = (float(part) for part in text.split(":"))
        if not all(map(math.isfinite, (a, b, s))):
            raise ValueError(f"grid {text!r}: a, b and s must be finite")
        if s <= 0 or b < a:
            raise ValueError("bad arithmetic grid")
        out = []
        x = a
        while x <= b + 1e-9:
            if len(out) == _MAX_GRID_POINTS:
                raise ValueError(f"grid {text!r} holds more than {_MAX_GRID_POINTS} points")
            if x + s == x:
                raise ValueError(f"grid {text!r}: a step of {s:g} does not advance x = {x:g}")
            out.append(float(x))
            x += s
        return out
    raise ValueError(f"cannot parse grid {text!r}")


def cache_dir(args):
    return os.environ.get("GV_CACHE") or args.cache


def _smallest_cached(directory, label, n_max):
    """Path of the smallest cached table ``label-<N>.gvct`` with N >= n_max,
    or None; other labels, temporary files and other names are skipped."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return None
    pattern = re.compile(re.escape(label) + r"-(0|[1-9][0-9]*)\.gvct")
    sizes = [int(m[1]) for m in map(pattern.fullmatch, names) if m]
    reach = [N for N in sizes if N >= n_max]
    return os.path.join(directory, f"{label}-{min(reach)}.gvct") if reach else None


def cached_table(args, label, builder, n_max):
    """Table ``label`` to exactly n_max: the first n_max + 1 entries of the
    smallest cached table of that label that reaches n_max, read from the
    front of its file.  For a fold n_max (a ``selection.TableSelection`` or
    ``cuspform.CuspFold``) only what it keeps of 0..n_max is read: each r_d
    read selects, each cusp sum folds tau, and only `gv tau`, which prints
    every entry, reads a table whole.  On a miss the whole table is built
    and cached as ``label-<n_max>.gvct``, then the same fold is applied to
    it, so a cold and a warm run go on with the same entries; a cut is
    never written back.  A cached file whose header disagrees with
    its name raises ValueError naming it."""
    chosen = n_max if hasattr(n_max, "keep") else None  # a fold
    top = n_max if chosen is None else chosen.n_max
    directory = cache_dir(args)
    path = _smallest_cached(directory, label, top) if directory else None
    if path is not None:
        table = arith.read_table_cache(path, n_max)
        if table.label != label:
            raise ValueError(f"{path}: holds table '{table.label}', not '{label}'")
        return table
    table = builder(top)
    if directory:
        arith.write_table_cache(os.path.join(directory, f"{label}-{top}.gvct"), table)
    return table if chosen is None else chosen.apply(table)


def _read_table(args, label, builder, size, needs=(), named=None):
    """Table ``label`` as ``cached_table`` reads it to ``size``, once each
    (n, what) of ``needs``, from the ``cuspform`` or ``lattice`` function that
    reads it, is checked against --table-size in order, as table ``named``:
    a short table exits 3 with that function's message before any table is
    read or built.  tau is folded to --table-size, and r_2 read by its
    nonzero entries; their size is made first, so a bad --table-size exits
    2, not 3.
    The shells of a hyperboloid sum are read to the last need: ``size`` makes
    their selection from it."""
    top = 0
    for n, what in needs:
        arith.require_coverage(named or label, args.table_size, n, what)
        top = max(top, n)
    return cached_table(args, label, builder, size(top) if callable(size) else size)


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(payload)


def write_json(path, summary):
    summary = dict(summary)
    summary["schemaVersion"] = SCHEMA_VERSION
    payload = (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(payload)


def out_paths(args):
    """The CSV and JSON paths: --out as a stem or .csv path, else the
    subcommand's name as the stem."""
    if args.out:
        base, ext = os.path.splitext(args.out)
        if ext.lower() == ".csv":
            return args.out, base + ".json"
        return args.out + ".csv", args.out + ".json"
    return f"{args.subcommand}.csv", f"{args.subcommand}.json"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subcommand:
    """One gv subcommand, declared beside the function that runs it."""

    name: str
    help: str
    header: tuple  # the CSV columns
    run: object  # args -> (rows, summary, failure message or None)
    arguments: tuple  # (flags, add_argument keywords) of its own options
    table_size: int | None  # default --table-size; None: reads no table
    check: bool  # has a criterion, so takes --check
    seed: bool  # has a randomized piece, so takes --seed


SUBCOMMANDS = []  # in declaration order, which --help keeps


def subcommand(name, help, header, *arguments, table_size=None, check=False, seed=False):
    """Declare the decorated function as the gv subcommand ``name``."""

    def register(run):
        SUBCOMMANDS.append(Subcommand(name, help, header, run, arguments, table_size, check, seed))
        return run

    return register


def _arg(*flags, **kwargs):
    return flags, kwargs


_HYPERBOLOID_ARGS = (_arg("--d", type=int, default=3), _arg("--h", type=int, default=1))


@subcommand("tau", "build (and cache) the tau coefficient table", ("n", "tau"), table_size=1000)
def cmd_tau(args):
    from . import cuspform

    table = _read_table(args, "tau", cuspform.tau_table, cuspform.tau_size(args.table_size))
    rows = list(enumerate(table.tolist()))[1:]
    return rows, {"label": "tau", "nMax": table.n_max, "csv": out_paths(args)[0]}, None


@subcommand(
    "second-moment",
    "smoothed second moment of delta partial sums vs its constant",
    ("X", "smoothedSecondMoment", "ratioX32", "relGapToC"),
    _arg("--grid", default="2^8..2^12"),
    table_size=164000, check=True,
)
def cmd_second_moment(args):
    from . import checks, cuspform

    grid = parse_grid(args.grid)
    low = min(grid)
    if not (low > 0 and low**1.5 > 0):  # each moment is divided by X^(3/2)
        raise ValueError(f"second-moment needs X^(3/2) > 0, got X = {low!r}")
    needs = map(cuspform.second_moment_reach, grid)
    fold = cuspform.CuspFold(cuspform.tau_size(args.table_size), rankin=True)
    form = _read_table(args, "tau", cuspform.tau_table, fold, needs, "delta")
    C, tail = cuspform.rankin_constant(form)
    points = list(checks.second_moment(form, C, grid))
    rows = []
    for p in points:
        (X,) = p.params
        rows.append((X, p.value, p.value / X**1.5, p.value / X**1.5 / C - 1.0))
    last = points[-1]  # the criterion reads the largest X only
    ok = checks.holds(last)
    summary = {
        "constant": C,
        "constantTailBound": tail,
        "relativeGapAtMaxX": last.residual,
        "tolerance": last.bound,
        "pass": ok,
    }
    return rows, summary, None if ok else f"relative gap {last.residual:.4f} exceeds {100 * last.bound:g}%"


@subcommand(
    "sign-scan",
    "sign changes of normalized partial sums in [X, X + X^r]",
    ("X", "nChanges", "firstChange"),
    _arg("--grid", default="2^4..2^13"),
    _arg("--nu", type=float, default=11 / 2 + 1 / 6 - 0.01),
    _arg("--r", type=float, default=1.0),
    table_size=21000, check=True,
)
def cmd_sign_scan(args):
    from . import checks, cuspform

    grid = parse_grid(args.grid)
    cuspform.partial_sum_order(args.nu)  # before the read
    needs = (cuspform.sign_scan_reach(X, args.r) for X in grid)
    fold = cuspform.CuspFold(cuspform.tau_size(args.table_size), floats=args.nu > 0)
    form = _read_table(args, "tau", cuspform.tau_table, fold, needs, "delta")
    series = cuspform.partial_sums(form, args.nu)
    points = list(checks.sign_change_windows(series, grid, args.r))
    rows = [(*p.params, len(p.value), p.value[0] if p.value else -1) for p in points]
    all_nonempty = all(checks.holds(p) for p in points)
    summary = {"nu": args.nu, "r": args.r, "allWindowsNonempty": all_nonempty, "pass": all_nonempty}
    return rows, summary, None if all_nonempty else "a window produced no sign change"


@subcommand(
    "short-interval",
    "windowed second moment of delta partial sums",
    ("X", "windowAverage", "normalized"),
    _arg("--grid", default="2^10..2^16"),
    table_size=70000,
)
def cmd_short_interval(args):
    from . import cuspform

    grid = parse_grid(args.grid)
    needs = map(cuspform.short_interval_reach, grid)
    fold = cuspform.CuspFold(cuspform.tau_size(args.table_size))
    form = _read_table(args, "tau", cuspform.tau_table, fold, needs, "delta")
    rows = []
    worst = 0.0
    for X in grid:
        val = cuspform.short_interval_average(form, int(X))
        norm = val / X ** (form.weight - 0.5)
        worst = max(worst, norm)
        rows.append((int(X), val, norm))
    return rows, {"maxNormalized": worst}, None


@subcommand(
    "count-circle",
    "exact circle counts vs area",
    ("R", "count", "volume", "discrepancy"),
    _arg("--grid", default="2^4..2^13"),
    table_size=10000,
)
def cmd_count_circle(args):
    from . import lattice
    from .selection import TableSelection

    grid = parse_grid(args.grid)
    if min(grid) <= 0:
        raise ValueError(f"the discrepancy is normalized by sqrt(R): need R > 0, got {min(grid):g}")
    needs = (lattice.count_ball_reach(2, R) for R in grid)
    table = _read_table(args, "r_2", lambda n: arith.r_d_table(2, n), TableSelection(args.table_size), needs)
    rows = []
    for R in grid:
        count = lattice.count_ball(2, R, table)
        vol = lattice.ball_volume(2, R)
        rows.append((R, count, vol, count - vol))
    worst = max(abs(r[3]) / math.sqrt(r[0]) for r in rows)
    return rows, {"maxAbsDiscrepancyOverSqrtR": worst}, None


@subcommand(
    "mean-square-p2",
    "mean square of the circle discrepancy and its growth exponent",
    ("X", "integral"),
    _arg("--grid", default="2^10..2^18"),
    table_size=262200, check=True,
)
def cmd_mean_square_p2(args):
    from . import checks, fit, lattice  # fit: for checks.growth_exponent
    from .selection import TableSelection

    grid = parse_grid(args.grid)
    needs = map(lattice.mean_square_reach, grid)
    table = _read_table(args, "r_2", lambda n: arith.r_d_table(2, n), TableSelection(args.table_size), needs)
    rows = [(X, lattice.mean_square_P2(X, table)) for X in grid]
    (p,) = checks.growth_exponent(lattice.count_series(grid, [r[1] for r in rows]))
    ok = checks.holds(p)
    summary = {"slope": p.value, "tolerance": p.bound, "pass": ok}
    return rows, summary, None if ok else f"slope {p.value:.4f} not {p.params[0]:g} +- {p.bound:g}"


@subcommand(
    "hardy",
    "Bessel-series discrepancy vs exact counts at random non-integer R",
    ("R", "besselSeries", "discrepancy", "absError"),
    _arg("--count", type=int, default=20),
    _arg("--terms", type=int, default=10**6),
    table_size=10**6, check=True, seed=True,
)
def cmd_hardy(args):
    from . import _draws, checks, lattice  # lattice: for checks.bessel
    from .selection import TableSelection

    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    rng = _draws.Generator(args.seed)
    # offsets stay in the middle band between integer shells, where the
    # truncated Bessel series is not Gibbs-limited by the count jumps
    radii = [float(rng.integers(10, 999)) + float(rng.uniform(0.3, 0.7)) for _ in range(args.count)]
    # the series to --terms, then the exact count S_2(R) at each radius
    needs = [lattice.hardy_reach(args.terms), *(lattice.count_ball_reach(2, R) for R in radii)]
    table = _read_table(args, "r_2", lambda n: arith.r_d_table(2, n), TableSelection(args.table_size), needs)
    points = list(checks.bessel(radii, args.terms, table))
    rows = [(*p.params, *p.value, p.residual) for p in points]
    worst = max((p.residual for p in points), default=0.0)
    ok = all(checks.holds(p) for p in points)
    summary = {"terms": args.terms, "maxAbsError": worst, "tolerance": checks.BESSEL_TOL, "pass": ok}
    return rows, summary, None if ok else f"max |error| {worst:.4f} > {checks.BESSEL_TOL:g}"


def _shell_entries(args, needs):
    """The entries r_{d-1}(m^2 + h), an int64 index, that a hyperboloid
    command reads: ``needs`` holds the (n, what) of a ``lattice`` reach at
    each grid point, checked once --d and --h are, and only the shells up to
    the last n are read."""
    from . import lattice
    from .selection import TableSelection

    d, h = args.d, args.h
    if d < 3 or not 1 <= h < 2**63:
        raise ValueError(f"need --d >= 3 and 1 <= --h < 2^63, got --d {d} and --h {h}")
    return _read_table(
        args, f"r_{d - 1}", lambda n: arith.r_d_table(d - 1, n),
        lambda top: TableSelection(top, lattice.shell_indices(h, top)), needs,
    )


@subcommand(
    "count-hyperboloid",
    "sharp hyperboloid counts with the log-term verdict at d=3",
    ("R", "count"),
    *_HYPERBOLOID_ARGS,
    _arg("--grid", default="2^10..2^20"),
    table_size=530000, check=True, seed=True,
)
def cmd_count_hyperboloid(args):
    from . import checks, fit, lattice  # fit: for checks.log_term

    grid = parse_grid(args.grid)
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    table = _shell_entries(args, (lattice.hyperboloid_count_reach(args.d, args.h, R) for R in grid))
    rows = [(R, lattice.hyperboloid_count(args.d, args.h, R, table)) for R in grid]
    summary = {"d": args.d, "h": args.h}
    if args.d != 3:
        return rows, summary, None
    series = lattice.count_series(grid, [r[1] for r in rows])
    (p,) = checks.log_term({args.h: series}, seed=args.seed)
    verdict, (_, expected) = p.value, p.params
    ok = checks.holds(p)
    summary.update(
        {
            "verdict": verdict.verdict,
            "logCoefficient": verdict.log_coefficient,
            "logCoefficientSE": verdict.log_coefficient_se,
            "residualRatio": verdict.residual_ratio,
            "expectedVerdict": expected,
            "pass": ok,
        }
    )
    return rows, summary, None if ok else f"verdict {verdict.verdict}"


@subcommand(
    "smooth-hyperboloid",
    "kernel-smoothed hyperboloid counts",
    ("X", "smoothed"),
    *_HYPERBOLOID_ARGS,
    _arg("--grid", default="2^8..2^16"),
    _arg("--kernel", default="exp", help="exp | cesaro:k | conc:Y | compact:Y"),
    table_size=1_400_000,
)
def cmd_smooth_hyperboloid(args):
    from . import fit, kernels, lattice

    kernel = kernels.parse_kernel(args.kernel)
    grid = parse_grid(args.grid)
    table = _shell_entries(args, (lattice.hyperboloid_smoothed_reach(args.h, X, kernel) for X in grid))
    rows = [(X, lattice.hyperboloid_smoothed(args.d, args.h, X, table, kernel)) for X in grid]
    series = lattice.count_series(grid, [r[1] for r in rows])
    summary = {"d": args.d, "h": args.h, "kernel": args.kernel, "slope": fit.estimate_exponent(series)}
    return rows, summary, None


@subcommand(
    "short-hyperboloid",
    "sharp window sums of width X^(1-lambda)",
    ("X", "windowSum", "normalized"),
    *_HYPERBOLOID_ARGS,
    _arg("--grid", default="2^10..2^14"),
    table_size=600000,
)
def cmd_short_hyperboloid(args):
    from . import lattice

    grid = parse_grid(args.grid)
    table = _shell_entries(args, (lattice.hyperboloid_short_reach(args.d, args.h, X) for X in grid))
    rows = []
    worst = 0.0
    for X in grid:
        total, norm = lattice.hyperboloid_short_interval(args.d, args.h, X, table)
        worst = max(worst, norm)
        rows.append((X, total, norm))
    lam = lattice.power_saving_exponent(args.d)
    return rows, {"d": args.d, "h": args.h, "lambda": lam, "maxNormalized": worst}, None


@subcommand(
    "divisor-identity",
    "exact odd-divisor identities on X^2+Y^2=Z^2+1",
    ("R", "identity", "lhs", "rhs", "equal"),
    _arg("--R", type=int, default=200),
    check=True,
)
def cmd_divisor_identity(args):
    from . import checks, lattice  # lattice: for checks.divisor_identities

    d_all, d_odd = arith.divisor_counts(args.R * args.R + 1)
    points = checks.divisor_identities(args.R, d_all, d_odd)
    rows = [(*p.params, *p.value, int(checks.holds(p))) for p in points]
    all_equal = all(row[4] for row in rows)
    summary = {"maxR": args.R, "allEqual": all_equal, "pass": all_equal}
    return rows, summary, None if all_equal else "an exact divisor identity failed"


@subcommand(
    "gauss-sums",
    "Gauss-sum invariant suite",
    ("h", "modulus", "k", "re", "im", "check", "residual"),
    check=True,
)
def cmd_gauss_sums(args):
    from . import charsums, checks  # charsums: for the suites

    rows = []
    worst = {}
    ok = True
    for name, suite in (
        ("H-multiplicative", checks.h_multiplicative),
        ("H-prime-eval", checks.h_prime_eval),
        ("H-vanishing", checks.h_vanishing),
        ("two-piece", checks.two_piece),
    ):
        for p in suite():
            rows.append((*p.params, p.value.real, p.value.imag, name, p.residual))
            worst[name] = max(worst.get(name, 0.0), p.residual)
            ok = ok and checks.holds(p)
    summary = {"tolerance": checks.TOL, "worstResiduals": worst, "pass": ok}
    return rows, summary, None if ok else f"a Gauss-sum residual exceeded {checks.TOL:g}"


@subcommand(
    "eisenstein-check",
    "reduction and L-factorization identities",
    ("h", "cOrN", "k", "w", "residual", "check"),
    _arg("--terms", type=int, default=2000),
    check=True,
)
def cmd_eisenstein_check(args):
    from . import charsums, checks  # charsums: for the suites

    if args.terms < 1:  # before the reduction suite runs
        raise ValueError(f"--terms must be at least 1, got {args.terms}")
    rows = []
    worst_reduction = 0.0
    reduction_ok = True
    for p in checks.reduction():
        h, c, k = p.params
        rows.append((h, c, k, 0.0, p.residual, "reduction"))
        worst_reduction = max(worst_reduction, p.residual / (4 * c))
        reduction_ok = reduction_ok and checks.holds(p)
    fact_ok = True
    for p in checks.factorization(((2.0, args.terms), (1.75, args.terms))):
        rows.append((*p.params, p.residual, "factorization"))
        fact_ok = fact_ok and checks.holds(p)
    ok = reduction_ok and fact_ok
    summary = {
        "worstReductionResidualOver4c": worst_reduction,
        "factorizationWithinTails": fact_ok,
        "pass": ok,
    }
    return rows, summary, None if ok else "an Eisenstein-coefficient identity failed"


@subcommand(
    "kernels-verify",
    "contour quadrature vs closed forms for all kernels",
    ("kernel", "params", "residual", "tolerance"),
    check=True,
)
def cmd_kernels_verify(args):
    from . import checks, kernels  # kernels: for the suites

    rows = []
    worst = {}
    ok = True
    # suite name, its points and the format of its CSV params column
    for name, suite, label in (
        ("cesaro", checks.cesaro, "Y={};k={}"),
        ("concentrating", checks.concentrating, "X={:g};Y={:g}"),
        ("exponential", checks.exponential, "x={:g}"),
        ("compact", checks.compact, "Y={:g};s={:g}"),
    ):
        for p in suite():
            rows.append((name, label.format(*p.params), p.residual, p.bound))
            # compact reports its residual in units of its 2/Y bound
            scaled = p.residual * p.params[0] / 2.0 if name == "compact" else p.residual
            worst[name] = max(worst.get(name, 0.0), scaled)
            ok = ok and checks.holds(p)
    summary = {"maxResidualPerKernel": worst, "pass": ok}
    return rows, summary, None if ok else "a kernel identity exceeded its tolerance"


@subcommand(
    "fit",
    "standalone least-squares fit of a CSV (X,value)",
    ("exponent", "logPower", "coefficient"),
    _arg("--data", required=True, help="input CSV with header and X,value columns"),
    _arg("--model", required=True, help="comma list of exponent:logpower terms"),
)
def cmd_fit(args):
    from . import fit, lattice

    model = []
    for term in args.model.split(","):
        a, _, b = term.partition(":")
        model.append((float(a), int(b or 0)))
    try:  # each refusal of the data names its file
        with warnings.catch_warnings():  # numpy's empty-file warning; refused below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(args.data, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] == 0 or data.shape[1] < 2:
            raise ValueError("needs data rows with X,value columns")
        result = fit.fit_model(lattice.count_series(data[:, 0], data[:, 1]), model)
    except ValueError as exc:  # LinAlgError too
        raise ValueError(f"{args.data}: {exc}") from None
    rows = [(a, b, c) for (a, b), c in zip(result.model, result.coefficients)]
    summary = {
        "residualNorm": result.residual_norm,
        "slopeEstimate": result.slope_estimate,
        "conditionNumber": result.condition_number,
    }
    return rows, summary, None


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="gv",
        description="Lattice counting for Gauss-circle variants: exact counts, "
        "Gauss sums, cutoff kernels, and asymptotic fits.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for spec in SUBCOMMANDS:
        p = sub.add_parser(spec.name, help=f"{spec.help}; CSV: {','.join(spec.header)}")
        p.add_argument("--out", help="output stem or .csv path (JSON goes beside it)")
        p.add_argument("--cache", help="coefficient cache directory (env GV_CACHE overrides)")
        if spec.check:
            p.add_argument("--check", action="store_true", help="exit 4 if the run's criterion fails")
        if spec.seed:
            p.add_argument("--seed", type=int, default=0, help="seed for the randomized piece")
        if spec.table_size is not None:
            p.add_argument("--table-size", type=int, default=spec.table_size, help="coefficient table length")
        for flags, kwargs in spec.arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(spec=spec)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_CONFIG
    try:
        rows, summary, failure = args.spec.run(args)
        # only a subcommand with a criterion, and so with --check, fails
        if failure is not None and args.check:
            print(f"gv: check failed: {failure}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        csv_path, json_path = out_paths(args)
        write_csv(csv_path, args.spec.header, rows)
        write_json(json_path, summary)
        return EXIT_OK
    except arith.TableCoverageError as exc:
        print(f"gv: table coverage: {exc}", file=sys.stderr)
        return EXIT_COVERAGE
    except (ValueError, OSError, OverflowError, arith.RoundingMarginError) as exc:
        print(f"gv: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a table or sieve too large for this machine
        print(f"gv: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance gate: one test per criterion, at the stated tolerances.

Criteria 02-08, 10 and 11 read their checks from ``gaussvariants.checks``,
the suites the `gv` subcommands loop over too; each criterion keeps its own
grid, table, seed and time limit, and a point passes by ``checks.holds``.
Each test prints one `criterion-NN <name>: PASS/FAIL` line (visible under
pytest -s or in captured output on failure) along with the measured
quantities and its runtime.

Two criteria are implemented faithfully and are expected to fail; the
analysis is summarized here and in the README:

* criterion 10: at M = 1e6 terms the Bessel-series truncation error scales
  like R^(1/2) M^(-1/2) (~0.03 at R = 1e3) with multi-x spikes, so random
  draws over (10, 1e3) exceed the 0.05 tolerance with high probability;
* criterion 11: the over-normalized partial sums of the discriminant form
  keep one sign up to n = 315, so the windows [10, 20] and [100, 200]
  contain no sign change (the sign-change theorem applies for large X).
"""

import math
import time

import numpy as np
from conftest import ACCEPTANCE_REPORTS, shell_entries

from gaussvariants import arith, checks, cuspform, lattice


def report(num, name, ok, detail, t0, limit=math.inf):
    """Print and record the criterion's line; it passes when ``ok`` holds
    and it ran within ``limit`` seconds of ``t0``."""
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < limit
    line = f"criterion-{num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.1f}s)"
    print(line)
    ACCEPTANCE_REPORTS.append(line)  # echoed in the terminal summary
    return ok


def test_criterion_01_r_d_oracle_equivalence(r_small):
    t0 = time.perf_counter()
    mismatches = 0
    for d in range(1, 7):
        table = r_small[d]
        for n in range(0, 501):
            if table[n] != arith.r_d_bruteforce(d, n):
                mismatches += 1
    detail = f"d<=6, n<=500, {mismatches} mismatches"
    assert report(1, "r_d table vs enumeration oracle", mismatches == 0, detail, t0, 10.0)


def test_criterion_02_exact_divisor_identities(divisor_tables):
    t0 = time.perf_counter()
    points = list(checks.divisor_identities(200, *divisor_tables))
    bad = [p.params[0] for p in points if not checks.holds(p)]
    ok = not bad and len(points) == 300
    assert report(2, "exact divisor identities to R=200", ok, f"failures={bad}", t0, 60.0)


def test_criterion_03_kernel_identities():
    t0 = time.perf_counter()
    points = {name: list(getattr(checks, name)()) for name in ("cesaro", "concentrating", "exponential")}
    ok = all(checks.holds(p) for suite in points.values() for p in suite)
    detail = ", ".join(f"{k} {max(p.residual for p in v):.2e}" for k, v in points.items())
    assert report(3, "kernel contour identities", ok, detail, t0, 30.0)


def test_criterion_04_gauss_sum_lemma_suite():
    t0 = time.perf_counter()
    suites = (
        checks.h_multiplicative,
        checks.h_prime_eval,
        checks.h_vanishing,
        checks.d2_vanishing,
        checks.two_piece,
    )
    points = [p for suite in suites for p in suite()]
    reduction_ok = all(checks.holds(p) for p in checks.reduction())
    ok = all(checks.holds(p) for p in points) and reduction_ok
    detail = f"worst residual {max(p.residual for p in points):.2e}, reduction ok={reduction_ok}"
    assert report(4, "Gauss-sum lemma suite", ok, detail, t0, 60.0)


def test_criterion_05_half_integral_factorization():
    t0 = time.perf_counter()
    points = list(checks.factorization(((1.75, 5000), (2.0, 2000))))
    failures = [p.params[:1] + p.params[2:] for p in points if not checks.holds(p)]  # (h, k, w)
    worst_margin = max(p.residual / p.bound for p in points)
    detail = f"max residual/bound {worst_margin:.2e}, failures={failures}"
    assert report(5, "half-integral L-factorization", not failures, detail, t0, 300.0)


def test_criterion_06_smoothed_second_moment_constant(delta):
    t0 = time.perf_counter()
    C, _ = cuspform.rankin_constant(delta)
    (p,) = checks.second_moment(delta, C, [2.0**12])
    ratio = p.value / p.params[0] ** 1.5
    detail = f"C={C:.8f}, ratio={ratio:.8f}, measured gap {100 * p.residual:.2f}% (tol {100 * p.bound:g}%)"
    assert report(6, "smoothed second moment vs explicit constant", checks.holds(p), detail, t0, 300.0)


def test_criterion_07_exponent_checks(r2_nonzero, delta):
    t0 = time.perf_counter()
    grid = [2.0**e for e in range(10, 19)]
    (ms,) = checks.growth_exponent(
        lattice.count_series(grid, [lattice.mean_square_P2(x, r2_nonzero) for x in grid])
    )
    grid2 = [2.0**e for e in range(8, 13)]
    (sm,) = checks.growth_exponent(
        lattice.count_series(grid2, [cuspform.smoothed_second_moment(delta, x) for x in grid2]), tol=0.1
    )
    detail = (
        f"mean-square slope {ms.value:.4f} (tol {ms.bound:g}), "
        f"smoothed slope {sm.value:.4f} (tol {sm.bound:g})"
    )
    assert report(7, "growth exponents 3/2", checks.holds(ms) and checks.holds(sm), detail, t0)


def test_criterion_08_hyperboloid_dichotomy(r2_big):
    t0 = time.perf_counter()
    grid = [2.0**e for e in range(10, 21)]
    shells = {h: shell_entries(r2_big, h, grid[-1]) for h in (1, 2)}
    counts = {h: [lattice.hyperboloid_count(3, h, R, shells[h]) for R in grid] for h in (1, 2)}
    points = list(checks.log_term({h: lattice.count_series(grid, v) for h, v in counts.items()}))
    norm = {
        R: lattice.hyperboloid_count(3, 1, float(R), shells[1])
        / (math.sqrt(R) * math.log(R))
        for R in (10**4, 10**5, 10**6)
    }
    band = max(abs(v / norm[10**6] - 1.0) for v in norm.values())
    ok = all(checks.holds(p) for p in points) and band <= 0.15
    h1, h2 = (p.value.verdict for p in points)
    detail = f"h=1 -> {h1}, h=2 -> {h2}, band spread {100 * band:.1f}% (tol 15%)"
    assert report(8, "square/non-square log dichotomy", ok, detail, t0, 600.0)


def test_criterion_09_hyperboloid_oracle_equivalence(r2_big):
    t0 = time.perf_counter()
    tables = {3: r2_big, 4: arith.r_d_table(3, 300), 5: arith.r_d_table(4, 300)}
    mismatches = []
    for d in (3, 4, 5):
        for h in range(1, 6):
            shells = shell_entries(tables[d], h, 200)
            for R in range(h, 201):
                if lattice.hyperboloid_count(d, h, float(R), shells) != (
                    lattice.hyperboloid_bruteforce(d, h, float(R))
                ):
                    mismatches.append((d, h, R))
    detail = f"grid d in 3..5, h in 1..5, R <= 200, mismatches={mismatches[:3]}"
    assert report(9, "hyperboloid count vs enumeration oracle", not mismatches, detail, t0, 60.0)


def test_criterion_10_hardy_identity_random_radii(r2_nonzero):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    radii = []
    for _ in range(20):
        R = float(rng.uniform(10.0, 1000.0))
        if R == math.floor(R):  # almost surely not; the identity needs R off Z
            R += 0.5
        radii.append(R)
    points = list(checks.bessel(radii, 10**6, r2_nonzero))
    detail = (
        f"max |error| {max(p.residual for p in points):.4f} (tol {points[0].bound:g}); "
        f"truncation scale at M=1e6 is ~R^(1/2)M^(-1/2), see the module docstring"
    )
    ok = all(checks.holds(p) for p in points)
    assert report(10, "Bessel-series identity at random radii", ok, detail, t0, 120.0)


def test_criterion_10_supplementary_true_contract(r2_nonzero):
    # What does hold at M = 1e6: sub-tolerance agreement over (10, 300) with
    # margin, and a sub-0.02 median over the whole range (mid-band draws).
    rng = np.random.default_rng(2026)
    small = [float(rng.integers(10, 299)) + float(rng.uniform(0.3, 0.7)) for _ in range(20)]
    full = [float(rng.integers(10, 999)) + float(rng.uniform(0.3, 0.7)) for _ in range(40)]
    for p in checks.bessel(small, 10**6, r2_nonzero):
        assert checks.holds(p), p.params
    assert float(np.median([p.residual for p in checks.bessel(full, 10**6, r2_nonzero)])) < 0.02


def test_criterion_11_sign_changes(delta):
    t0 = time.perf_counter()
    nu = 11 / 2 + 1 / 6 - 0.01
    series = cuspform.partial_sums(delta, nu)
    points = checks.sign_change_windows(series, (10, 100, 1000, 10000))
    empty = [p.params[0] for p in points if not checks.holds(p)]
    detail = (
        f"windows without a change: {empty or 'none'} "
        f"(first change sits at n=315, see the module docstring)"
    )
    assert report(11, "sign changes in [X, 2X]", not empty, detail, t0, 30.0)


def test_criterion_11_supplementary_true_contract(delta):
    # The theorem's own regime: every window [X, 2X] from the first sign
    # change onward contains one (checked on a geometric ladder).
    nu = 11 / 2 + 1 / 6 - 0.01
    series = cuspform.partial_sums(delta, nu)
    for p in checks.sign_change_windows(series, (316, 500, 1000, 2000, 4000, 10000, 40000)):
        assert checks.holds(p), p.params

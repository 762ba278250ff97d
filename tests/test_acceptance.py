"""Acceptance gate: one test per criterion, at the stated tolerances.

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
import pytest
from conftest import ACCEPTANCE_REPORTS

from gaussvariants import arith, checks, cuspform, fit, lattice


def report(num, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    line = f"criterion-{num:02d} {name}: {status} ({detail}; {time.time() - t0:.1f}s)"
    print(line)
    ACCEPTANCE_REPORTS.append(line)  # echoed in the terminal summary
    return ok


def test_criterion_01_r_d_oracle_equivalence(r_small):
    t0 = time.time()
    mismatches = 0
    for d in range(1, 7):
        table = r_small[d]
        for n in range(0, 501):
            if table[n] != arith.r_d_bruteforce(d, n):
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 10.0
    assert report(
        1,
        "r_d table vs enumeration oracle",
        ok,
        f"d<=6, n<=500, {mismatches} mismatches",
        t0,
    )


def test_criterion_02_exact_divisor_identities(divisor_tables):
    t0 = time.time()
    d_all, d_odd = divisor_tables
    lhs, rhs, equal = lattice.divisor_identity_check(200, d_odd)
    bad = [R for R in range(1, 201) if not (equal[R - 1] and lhs[R - 1] == rhs[R - 1])]
    direct, combined, equal2 = lattice.divisor_combination(200, d_all)
    bad += [
        R
        for R in range(2, 201, 2)
        if not (equal2[R // 2 - 1] and direct[R // 2 - 1] == combined[R // 2 - 1])
    ]
    elapsed = time.time() - t0
    ok = not bad and len(equal) == 200 and len(equal2) == 100 and elapsed < 60.0
    assert report(2, "exact divisor identities to R=200", ok, f"failures={bad}", t0)


def test_criterion_03_kernel_identities():
    t0 = time.time()
    worst = {}
    within = True
    for name in ("cesaro", "concentrating", "exponential"):
        points = list(getattr(checks, name)())
        worst[name] = max(p.residual for p in points)
        within = within and all(p.residual < p.bound for p in points)
    elapsed = time.time() - t0
    ok = within and elapsed < 30.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    assert report(3, "kernel contour identities", ok, detail, t0)


def test_criterion_04_gauss_sum_lemma_suite():
    t0 = time.time()
    suites = (
        checks.h_multiplicative,
        checks.h_prime_eval,
        checks.h_vanishing,
        checks.d2_vanishing,
        checks.two_piece,
    )
    worst = max(p.residual for suite in suites for p in suite())
    reduction_ok = all(p.residual < p.bound for p in checks.reduction())
    elapsed = time.time() - t0
    ok = worst < checks.TOL and reduction_ok and elapsed < 60.0
    assert report(
        4,
        "Gauss-sum lemma suite",
        ok,
        f"worst residual {worst:.2e}, reduction ok={reduction_ok}",
        t0,
    )


def test_criterion_05_half_integral_factorization():
    t0 = time.time()
    failures = []
    worst_margin = 0.0
    for p in checks.factorization(((1.75, 5000), (2.0, 2000))):
        worst_margin = max(worst_margin, p.residual / p.bound)
        if p.residual > p.bound:
            h, _, k, w = p.params
            failures.append((h, k, w))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300.0
    assert report(
        5,
        "half-integral L-factorization",
        ok,
        f"max residual/bound {worst_margin:.2e}, failures={failures}",
        t0,
    )


def test_criterion_06_smoothed_second_moment_constant(delta):
    t0 = time.time()
    C, _ = cuspform.rankin_constant(delta, delta.n_max)
    X = 2.0**12
    ratio = cuspform.smoothed_second_moment(delta, X) / X**1.5
    gap = abs(ratio / C - 1.0)
    elapsed = time.time() - t0
    ok = gap <= 0.05 and elapsed < 300.0
    assert report(
        6,
        "smoothed second moment vs explicit constant",
        ok,
        f"C={C:.8f}, ratio={ratio:.8f}, measured gap {100 * gap:.2f}% (tol 5%)",
        t0,
    )


def test_criterion_07_exponent_checks(r2_big, delta):
    t0 = time.time()
    grid = [2.0**e for e in range(10, 19)]
    ms = lattice.count_series(grid, [lattice.mean_square_P2(x, r2_big) for x in grid])
    slope_ms = fit.estimate_exponent(ms)
    grid2 = [2.0**e for e in range(8, 13)]
    sm = lattice.count_series(grid2, [cuspform.smoothed_second_moment(delta, x) for x in grid2])
    slope_sm = fit.estimate_exponent(sm)
    ok = abs(slope_ms - 1.5) <= 0.05 and abs(slope_sm - 1.5) <= 0.1
    assert report(
        7,
        "growth exponents 3/2",
        ok,
        f"mean-square slope {slope_ms:.4f} (tol 0.05), smoothed slope {slope_sm:.4f} (tol 0.1)",
        t0,
    )


def test_criterion_08_hyperboloid_dichotomy(r2_big):
    t0 = time.time()
    grid = [2.0**e for e in range(10, 21)]
    verdicts = {}
    for h in (1, 2):
        vals = [lattice.hyperboloid_count(3, h, R, r2_big) for R in grid]
        series = lattice.count_series(grid, vals)
        verdicts[h] = fit.log_term_verdict(
            series, ((0.5, 1), (0.5, 0)), ((0.5, 0),)
        ).verdict
    norm = {
        R: lattice.hyperboloid_count(3, 1, float(R), r2_big)
        / (math.sqrt(R) * math.log(R))
        for R in (10**4, 10**5, 10**6)
    }
    band = max(abs(v / norm[10**6] - 1.0) for v in norm.values())
    elapsed = time.time() - t0
    ok = (
        verdicts[1] == "log"
        and verdicts[2] == "no-log"
        and band <= 0.15
        and elapsed < 600.0
    )
    assert report(
        8,
        "square/non-square log dichotomy",
        ok,
        f"h=1 -> {verdicts[1]}, h=2 -> {verdicts[2]}, band spread {100 * band:.1f}% (tol 15%)",
        t0,
    )


def test_criterion_09_hyperboloid_oracle_equivalence(r2_big):
    t0 = time.time()
    tables = {3: r2_big, 4: arith.r_d_table(3, 300), 5: arith.r_d_table(4, 300)}
    mismatches = []
    for d in (3, 4, 5):
        for h in range(1, 6):
            for R in range(h, 201):
                if lattice.hyperboloid_count(d, h, float(R), tables[d]) != (
                    lattice.hyperboloid_bruteforce(d, h, float(R))
                ):
                    mismatches.append((d, h, R))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 60.0
    assert report(
        9,
        "hyperboloid count vs enumeration oracle",
        ok,
        f"grid d in 3..5, h in 1..5, R <= 200, mismatches={mismatches[:3]}",
        t0,
    )


def test_criterion_10_hardy_identity_random_radii(r2_big):
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        R = float(rng.uniform(10.0, 1000.0))
        if R == math.floor(R):  # almost surely not; the identity needs R off Z
            R += 0.5
        err = abs(
            lattice.hardy_identity(R, 10**6, r2_big) - lattice.discrepancy(2, R, r2_big)
        )
        worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst < 0.05 and elapsed < 120.0
    assert report(
        10,
        "Bessel-series identity at random radii",
        ok,
        f"max |error| {worst:.4f} (tol 0.05); truncation scale at M=1e6 is "
        f"~R^(1/2)M^(-1/2), see the module docstring",
        t0,
    )


def test_criterion_10_supplementary_true_contract(r2_big):
    # What does hold at M = 1e6: sub-tolerance agreement over (10, 300) with
    # margin, and a sub-0.02 median over the whole range (mid-band draws).
    rng = np.random.default_rng(2026)
    errs_small = []
    for _ in range(20):
        R = float(rng.integers(10, 299)) + float(rng.uniform(0.3, 0.7))
        errs_small.append(
            abs(lattice.hardy_identity(R, 10**6, r2_big) - lattice.discrepancy(2, R, r2_big))
        )
    errs_full = []
    for _ in range(40):
        R = float(rng.integers(10, 999)) + float(rng.uniform(0.3, 0.7))
        errs_full.append(
            abs(lattice.hardy_identity(R, 10**6, r2_big) - lattice.discrepancy(2, R, r2_big))
        )
    assert max(errs_small) < 0.05
    assert float(np.median(errs_full)) < 0.02


def test_criterion_11_sign_changes(delta):
    t0 = time.time()
    nu = 11 / 2 + 1 / 6 - 0.01
    series = cuspform.partial_sums(delta, nu)
    empty = [
        X for X in (10, 100, 1000, 10000) if not cuspform.sign_changes(series, X, 1.0)
    ]
    elapsed = time.time() - t0
    ok = not empty and elapsed < 30.0
    assert report(
        11,
        "sign changes in [X, 2X]",
        ok,
        f"windows without a change: {empty or 'none'} "
        f"(first change sits at n=315, see the module docstring)",
        t0,
    )


def test_criterion_11_supplementary_true_contract(delta):
    # The theorem's own regime: every window [X, 2X] from the first sign
    # change onward contains one (checked on a geometric ladder).
    nu = 11 / 2 + 1 / 6 - 0.01
    series = cuspform.partial_sums(delta, nu)
    for X in (316, 500, 1000, 2000, 4000, 10000, 40000):
        assert cuspform.sign_changes(series, X, 1.0), X

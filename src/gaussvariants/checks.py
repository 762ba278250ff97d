"""Every pass/fail check of the reproduction, defined once.

A suite is a generator of one ``Point(params, value, residual, bound)`` per
grid point, and a point holds when ``holds`` says so: residual <= bound,
the one pass comparison.  ``value`` is what the point measured: a number,
the pair of compared sides where a caller reports both, a record, or None
where a check has only a residual.  A check that is not numeric (a
verdict, a window that must hold a sign change, an exact equality) has
residual 0.0 when it holds and 1.0 when it fails, against bound 0.5, so
residual / bound is finite at every point.

The suites, with the `gv` subcommand and acceptance criterion that loop
over each:

* ``divisor_identities``: `divisor-identity`, criterion 02;
* ``cesaro``, ``concentrating``, ``exponential``: `kernels-verify`,
  criterion 03; ``compact``: `kernels-verify`;
* ``h_multiplicative``, ``h_prime_eval``, ``h_vanishing``, ``two_piece``:
  `gauss-sums`, criterion 04; ``d2_vanishing``: criterion 04;
  ``reduction``: `eisenstein-check`, criterion 04;
* ``factorization``: `eisenstein-check`, criterion 05;
* ``second_moment``: `second-moment`, criterion 06;
* ``growth_exponent``: `mean-square-p2`, criterion 07;
* ``log_term``: `count-hyperboloid`, criterion 08;
* ``bessel``: `hardy`, criterion 10;
* ``sign_change_windows``: `sign-scan`, criterion 11.

The Gauss-sum and kernel suites carry their own grids; the others take
their table and grid as arguments, since each caller picks its own.  Each
suite imports the layer modules it calls, when it first runs, so a process
loads only the layers of the suites it runs; the `gv` commands import the
same modules first, before they read a table.  Layer functions are called
through their modules, so a wrapper rebound on a module sees every call.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import arith

TOL = 1e-9  # the Gauss-sum identities; the reduction bound is TOL * 4c
MOMENT_TOL = 0.05  # relative gap of the smoothed second moment to C X^{3/2}
EXPONENT = 1.5  # the growth exponent of both second moments
SLOPE_TOL = 0.05  # a fitted growth exponent against EXPONENT
BESSEL_TOL = 0.05  # the truncated Bessel series against the exact discrepancy

_HS = range(1, 9)
_ODD = range(3, 50, 2)
_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_SERIES_HS = (1, 2, 3, 4, 9)
_HALF = (0.5, 1.5)
_WITH_LOG = ((0.5, 1), (0.5, 0))
_WITHOUT_LOG = ((0.5, 0),)

Point = namedtuple("Point", "params value residual bound")


def holds(point):
    """Whether ``point`` passes: its residual is within its bound."""
    return bool(point.residual <= point.bound)


def _outcome(ok):
    """(residual, bound) of a check that is not numeric."""
    return (0.0 if ok else 1.0), 0.5


def h_multiplicative():
    """H_h(n1 n2) = H_h(n1) H_h(n2) for coprime odd 3 <= n1 < n2 < 50."""
    from . import charsums

    pairs = [(n1, n2) for i, n1 in enumerate(_ODD) for n2 in _ODD[i + 1 :] if math.gcd(n1, n2) == 1]
    # each modulus's characters and roots of unity are built once for every h
    H = {n: charsums._H_at_modulus(_HS, n) for n in {*_ODD, *(n1 * n2 for n1, n2 in pairs)}}
    for i, h in enumerate(_HS):
        for n1, n2 in pairs:
            prod = H[n1 * n2][i]
            res = abs(prod - H[n1][i] * H[n2][i])
            yield Point((h, n1 * n2, 0.5), prod, res, TOL)


def h_prime_eval():
    """H_h(p) = (-h/p) sqrt(p) for odd primes p < 100 not dividing h."""
    from . import charsums

    for p in _PRIMES:
        for h in _HS:
            if h % p:
                val = charsums.gauss_sum_H(h, p)
                res = abs(val - arith.kronecker(-h, p) * math.sqrt(p))
                yield Point((h, p, 0.5), val, res, TOL)


def h_vanishing():
    """H_h(p^j) = 0 for p in 3, 5, 7 and 2 <= j <= 4 unless p^(j-1) | h."""
    from . import charsums

    for h in _HS:
        for p in (3, 5, 7):
            for j in range(2, 5):
                if h % p ** (j - 1):
                    val = charsums.gauss_sum_H(h, p**j)
                    yield Point((h, p**j, 0.5), val, abs(val), TOL)


def d2_vanishing():
    """The 2-adic block vanishes at alpha = v2(h) + 4 and v2(h) + 5."""
    from . import charsums

    for h in _HS:
        v2, _ = arith.split_two(h)
        for k in (0.5, 1.5, 2.5):
            for alpha in (v2 + 4, v2 + 5):
                val = charsums.d2_sum(h, alpha, k)
                yield Point((h, alpha, k), val, abs(val), TOL)


def two_piece():
    """g_h(4c) = chi_k(c') d2 H_h(c') for c <= 30."""
    from . import charsums

    two_ks = [round(2 * k) for k in _HALF]
    # both sides of each modulus, for every h and weight at once
    by_c = {
        c: (charsums._g_at_modulus(_HS, 4 * c, two_ks), charsums._two_piece_at_modulus(_HS, 4 * c, two_ks))
        for c in range(1, 31)
    }
    for i, h in enumerate(_HS):
        for c, (g_rows, piece_rows) in by_c.items():
            for k, g_row, piece_row in zip(_HALF, g_rows, piece_rows):
                yield Point((h, 4 * c, k), g_row[i], abs(g_row[i] - piece_row[i]), TOL)


def reduction():
    """The full-integral character sum mod 4c against its closed form."""
    from . import charsums

    hs, ks = range(1, 21), (1, 2)
    by_c = {c: charsums.reduction_residuals(hs, c, ks) for c in range(1, 51)}
    for h in hs:
        for c, rows in by_c.items():
            for k, row in zip(ks, rows):
                yield Point((h, c, k), None, row[h - 1], TOL * (4 * c))


def factorization(terms_by_w):
    """The L-factorization of sum g_h(4c) (4c)^{-2w} at each (w, N) in
    ``terms_by_w``; params are (h, N, k, w), and the identity holds while
    the residual is <= the combined tail bound."""
    from . import charsums

    # every series of both weights in one pass over c, to the largest N
    series = charsums.gauss_sum_g_series(_SERIES_HS, _HALF, max(n for _, n in terms_by_w))
    for i, h in enumerate(_SERIES_HS):
        for j, k in enumerate(_HALF):
            for w, n in terms_by_w:
                res, bound = charsums.factorization_check(series[j, i, :n], h, w, k)
                yield Point((h, n, k, w), None, res, bound)


def cesaro():
    """Cesaro contours of orders 1-3 against (1/k!) (1 - 1/Y)^k."""
    from . import kernels

    ks = (1, 2, 3)
    for Ys, quad in (
        ((0.5,), kernels.Quadrature(30.0, 200.0, 20000)),
        ((1.5, 2.0, 10.0), kernels.Quadrature(0.5, 4000.0, 4_000_000)),
    ):
        for Y, row in zip(Ys, kernels.cesaro_contours(Ys, ks, quad)):
            for k, contour in zip(ks, row):
                yield Point((Y, k), contour, abs(contour - kernels.cesaro_closed(Y, k)), 1e-6)


def concentrating():
    """The Gaussian kernel's contour against its closed form."""
    from . import kernels

    for X in (1.0, math.e, 3.0, 10.0):
        for Y in (1.0, 2.0, 4.0):
            quad = kernels.Quadrature(2.0, 15.0 * Y, max(600, int(300 * Y)))
            val = kernels.concentrating_contour(X, Y, quad)
            yield Point((X, Y), val, abs(val - kernels.concentrating_closed(X, Y)), 1e-8)


def exponential():
    """The Gamma-kernel contour against e^{-x}."""
    from . import kernels

    for x in (0.1, 1.0, 5.0, 20.0, 50.0):
        val = kernels.exp_contour(x, kernels.Quadrature(2.0, 40.0, 4000))
        yield Point((x,), val, abs(val - math.exp(-x)), 1e-6)


def compact():
    """|Phi_Y(s) - 1/s| <= 2/Y at real s with |s| <= Y/2."""
    from . import kernels

    for Y in (10.0, 100.0):
        for sig in (0.5, 1.0, 2.0):
            s = complex(sig, 0.0)
            if abs(s) > Y / 2:
                continue
            val = kernels.compact_Phi(Y, s)
            yield Point((Y, sig), val, abs(val - 1.0 / s), 2.0 / Y)


def divisor_identities(R, d_all, d_odd):
    """The odd-divisor identity at every R' = 1..R and the divisor
    combination at every even R' <= R, exactly, from the divisor-count
    tables ``d_all`` and ``d_odd``; params are (R', identity) and value is
    (lhs, rhs)."""
    from . import lattice

    odd = lattice.divisor_identity_check(R, d_odd)
    comb = lattice.divisor_combination(R - R % 2, d_all)
    for name, step, sides in (("odd-divisor", 1, odd), ("combination", 2, comb)):
        for Rp, lhs, rhs in zip(range(step, R + 1, step), *sides):
            yield Point((Rp, name), (lhs, rhs), *_outcome(lhs == rhs))


def second_moment(form, C, grid):
    """The smoothed second moment M(X) of ``form`` at each X in ``grid``
    against C X^{3/2}; value is M(X), residual |M(X) / X^{3/2} / C - 1|."""
    from . import cuspform

    for X in grid:
        val = cuspform.smoothed_second_moment(form, X)
        yield Point((X,), val, abs(val / X**1.5 / C - 1.0), MOMENT_TOL)


def growth_exponent(series, tol=SLOPE_TOL):
    """One point: the log-log slope of ``series`` against EXPONENT +- tol."""
    from . import fit

    slope = fit.estimate_exponent(series)
    yield Point((EXPONENT,), slope, abs(slope - EXPONENT), tol)


def log_term(series_by_h, seed=0):
    """The log-term verdict on each h's d = 3 hyperboloid count series:
    "log" when h is a square, "no-log" otherwise.  params are
    (h, expected verdict) and value is the ``fit.VerdictRecord``."""
    from . import fit

    for h, series in series_by_h.items():
        record = fit.log_term_verdict(series, _WITH_LOG, _WITHOUT_LOG, seed=seed)
        root = math.isqrt(h)
        expected = "log" if root * root == h else "no-log"
        yield Point((h, expected), record, *_outcome(record.verdict == expected))


def bessel(radii, n_terms, table):
    """The Bessel series of ``n_terms`` terms against the exact circle
    discrepancy at each of ``radii``, from ``table``, the complete entries
    of a nonzero selection of r_2; value is (series, discrepancy)."""
    from . import lattice

    series = lattice.hardy_identity(radii, n_terms, table).tolist()
    for R, approx in zip(radii, series):
        exact = lattice.discrepancy(2, R, table)
        yield Point((R,), (approx, exact), abs(approx - exact), BESSEL_TOL)


def sign_change_windows(series, grid, r=1.0):
    """The sign changes of the partial sums ``series`` in each window
    [X, X + X^r], X in ``grid``; value is the list of their positions, and
    a window holds when it has one."""
    from . import cuspform

    for X in grid:
        changes = cuspform.sign_changes(series, int(X), r)
        yield Point((int(X),), changes, *_outcome(bool(changes)))

"""Each numerical check suite of the Gauss sums and the kernels, defined once.

A suite is a generator of one ``Point(params, value, residual, bound)`` per
grid point (``value`` is None where a check has only a residual).  `gv
gauss-sums`, `eisenstein-check`, `kernels-verify` and acceptance criteria
03-05 loop over them, so each grid and tolerance lives here only.  Layer
functions are called through their modules, so a wrapper rebound on a
module sees every call.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import arith, charsums, kernels

TOL = 1e-9  # the Gauss-sum identities; the reduction bound is TOL * 4c

_HS = range(1, 9)
_ODD = range(3, 50, 2)
_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_SERIES_HS = (1, 2, 3, 4, 9)
_HALF = (0.5, 1.5)

Point = namedtuple("Point", "params value residual bound")


def h_multiplicative():
    """H_h(n1 n2) = H_h(n1) H_h(n2) for coprime odd 3 <= n1 < n2 < 50."""
    for h in _HS:
        H = {n: charsums.gauss_sum_H(h, n) for n in _ODD}
        for i, n1 in enumerate(_ODD):
            for n2 in _ODD[i + 1 :]:
                if math.gcd(n1, n2) != 1:
                    continue
                prod = charsums.gauss_sum_H(h, n1 * n2)
                res = abs(prod - H[n1] * H[n2])
                yield Point((h, n1 * n2, 0.5), prod, res, TOL)


def h_prime_eval():
    """H_h(p) = (-h/p) sqrt(p) for odd primes p < 100 not dividing h."""
    for p in _PRIMES:
        for h in _HS:
            if h % p:
                val = charsums.gauss_sum_H(h, p)
                res = abs(val - arith.kronecker(-h, p) * math.sqrt(p))
                yield Point((h, p, 0.5), val, res, TOL)


def h_vanishing():
    """H_h(p^j) = 0 for p in 3, 5, 7 and 2 <= j <= 4 unless p^(j-1) | h."""
    for h in _HS:
        for p in (3, 5, 7):
            for j in range(2, 5):
                if h % p ** (j - 1):
                    val = charsums.gauss_sum_H(h, p**j)
                    yield Point((h, p**j, 0.5), val, abs(val), TOL)


def d2_vanishing():
    """The 2-adic block vanishes at alpha = v2(h) + 4 and v2(h) + 5."""
    for h in _HS:
        v2, _ = arith.split_two(h)
        for k in (0.5, 1.5, 2.5):
            for alpha in (v2 + 4, v2 + 5):
                val = charsums.d2_sum(h, alpha, k)
                yield Point((h, alpha, k), val, abs(val), TOL)


def two_piece():
    """g_h(4c) = chi_k(c') d2 H_h(c') for c <= 30."""
    for h in _HS:
        for c in range(1, 31):
            for k in _HALF:
                g = charsums.gauss_sum_g(h, 4 * c, k)
                res = abs(g - charsums.two_piece_product(h, 4 * c, k))
                yield Point((h, 4 * c, k), g, res, TOL)


def reduction():
    """The full-integral character sum mod 4c against its closed form."""
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
    # every series of both weights in one pass over c
    charsums.gauss_sum_g_series(_SERIES_HS, _HALF, max(n for _, n in terms_by_w))
    for h in _SERIES_HS:
        for k in _HALF:
            for w, n in terms_by_w:
                res, bound = charsums.factorization_check(h, w, k, n)
                yield Point((h, n, k, w), None, res, bound)


def cesaro():
    """Cesaro contours of orders 1-3 against (1/k!) (1 - 1/Y)^k."""
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
    for X in (1.0, math.e, 3.0, 10.0):
        for Y in (1.0, 2.0, 4.0):
            quad = kernels.Quadrature(2.0, 15.0 * Y, max(600, int(300 * Y)))
            val = kernels.concentrating_contour(X, Y, quad)
            yield Point((X, Y), val, abs(val - kernels.concentrating_closed(X, Y)), 1e-8)


def exponential():
    """The Gamma-kernel contour against e^{-x}."""
    for x in (0.1, 1.0, 5.0, 20.0, 50.0):
        val = kernels.exp_contour(x, kernels.Quadrature(2.0, 40.0, 4000))
        yield Point((x,), val, abs(val - math.exp(-x)), 1e-6)


def compact():
    """|Phi_Y(s) - 1/s| <= 2/Y at real s with |s| <= Y/2."""
    for Y in (10.0, 100.0):
        for sig in (0.5, 1.0, 2.0):
            s = complex(sig, 0.0)
            if abs(s) > Y / 2:
                continue
            val = kernels.compact_Phi(Y, s)
            yield Point((Y, sig), val, abs(val - 1.0 / s), 2.0 / Y)

"""The check suites: how many points each grid holds, and the residual and
bound of a check that is not numeric."""

import numpy as np
from conftest import delta_form

from gaussvariants import arith, charsums, checks, cuspform, kernels, lattice
from gaussvariants.selection import TableSelection

POINT_COUNTS = dict(
    h_multiplicative=1848, h_prime_eval=188, h_vanishing=68, d2_vanishing=48, two_piece=480,
    reduction=2000, cesaro=12, concentrating=12, exponential=5, compact=6,
)


def test_point_counts(monkeypatch):
    # the Gauss-sum series and the 4M-node Cesaro contours are stubbed:
    # only their grids are counted here, their values are checked elsewhere
    monkeypatch.setattr(
        charsums, "gauss_sum_g_series", lambda hs, ks, n: np.zeros((len(ks), len(hs), n), dtype=complex)
    )
    monkeypatch.setattr(charsums, "factorization_check", lambda g, h, w, k: (0.0, 1.0))
    monkeypatch.setattr(kernels, "cesaro_contours", lambda Ys, ks, quad: [[0.0] * len(ks) for _ in Ys])
    counts = {name: sum(1 for _ in getattr(checks, name)()) for name in POINT_COUNTS}
    assert counts == POINT_COUNTS
    for grid in (((2.0, 2000), (1.75, 2000)), ((1.75, 5000), (2.0, 2000))):
        assert sum(1 for _ in checks.factorization(grid)) == 20
    # the suites that take their table and grid, on small ones
    delta = delta_form(1000)
    grid = [2.0**e for e in range(4, 9)]
    series = lattice.count_series(grid, [x**0.5 * (1.0 + x**0.25) for x in grid])
    suites = (
        (checks.divisor_identities(20, *arith.divisor_counts(20 * 20 + 1)), 30),
        (checks.second_moment(delta, 1.0, (4.0, 8.0, 16.0)), 3),
        (checks.growth_exponent(series), 1),
        (checks.log_term({1: series, 2: series, 4: series}), 3),
        (checks.bessel([10.5, 20.5], 100, TableSelection(200).apply(arith.r_d_table(2, 200))), 2),
        (checks.sign_change_windows(cuspform.partial_sums(delta, 0.0), (16.0, 32.0, 64.0)), 3),
    )
    assert [sum(1 for _ in points) for points, _ in suites] == [n for _, n in suites]


def test_failing_window_has_residual_past_bound():
    # massively over-normalized sums keep one sign on small windows
    series = cuspform.partial_sums(delta_form(200), 30)
    points = list(checks.sign_change_windows(series, (16.0, 32.0)))
    assert [p.value for p in points] == [[], []]
    for p in points:
        assert (p.residual, p.bound) == (1.0, 0.5)
        assert p.residual > p.bound and not checks.holds(p)


def test_gauss_suites_build_each_modulus_once_for_every_h(monkeypatch):
    # each modulus's roots of unity, built beside its characters, are made
    # once for all eight h; the values stay those of the one-sum functions
    built = []
    real = charsums._roots_of_unity
    monkeypatch.setattr(charsums, "_roots_of_unity", lambda m: built.append(m) or real(m))
    points = list(checks.h_multiplicative())
    assert len(built) == len(set(built)) == len({p.params[1] for p in points} | set(range(3, 50, 2)))
    for p in points[::97]:
        h, n, _ = p.params
        assert p.value == charsums.gauss_sum_H(h, n)
    built.clear()
    points = list(checks.two_piece())
    assert len(built) <= 3 * 30  # 4c, 2^alpha and the odd part c' of each c <= 30
    for p in points[::37]:
        h, c4, k = p.params
        assert p.value == charsums.gauss_sum_g(h, c4, k)
        assert p.residual == abs(p.value - charsums.two_piece_product(h, c4, k))

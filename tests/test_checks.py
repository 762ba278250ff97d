"""The check suites: how many points each grid holds."""

from gaussvariants import charsums, checks, kernels

POINT_COUNTS = dict(
    h_multiplicative=1848, h_prime_eval=188, h_vanishing=68, d2_vanishing=48, two_piece=480,
    reduction=2000, cesaro=12, concentrating=12, exponential=5, compact=6,
)


def test_point_counts(monkeypatch):
    # the Gauss-sum series and the 4M-node Cesaro contours are stubbed:
    # only their grids are counted here, their values are checked elsewhere
    monkeypatch.setattr(charsums, "gauss_sum_g_series", lambda hs, ks, n: None)
    monkeypatch.setattr(charsums, "factorization_check", lambda h, w, k, n: (0.0, 1.0))
    monkeypatch.setattr(kernels, "cesaro_contours", lambda Ys, ks, quad: [[0.0] * len(ks) for _ in Ys])
    counts = {name: sum(1 for _ in getattr(checks, name)()) for name in POINT_COUNTS}
    assert counts == POINT_COUNTS
    for grid in (((2.0, 2000), (1.75, 2000)), ((1.75, 5000), (2.0, 2000))):
        assert sum(1 for _ in checks.factorization(grid)) == 20

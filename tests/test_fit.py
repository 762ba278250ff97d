"""Model fitting: coefficient recovery, exponent estimation, log verdicts."""

import numpy as np
import pytest
from conftest import shell_entries

from gaussvariants import fit, lattice

GRID = np.array([2.0**e for e in range(10, 21)])
WITH_LOG = ((0.5, 1), (0.5, 0))
WITHOUT_LOG = ((0.5, 0),)


def series_of(values):
    return lattice.count_series(GRID, values)


class TestFitModel:
    def test_exact_power_recovery(self):
        f = fit.fit_model(series_of(3.0 * GRID**1.5), [(1.5, 0)])
        assert f.coefficients[0] == pytest.approx(3.0, rel=1e-9)
        assert f.residual_norm < 1e-6

    def test_two_term_recovery(self):
        y = 2.0 * np.sqrt(GRID) * np.log(GRID) + 5.0 * np.sqrt(GRID)
        f = fit.fit_model(series_of(y), [(0.5, 1), (0.5, 0)])
        assert f.coefficients[0] == pytest.approx(2.0, rel=1e-6)
        assert f.coefficients[1] == pytest.approx(5.0, rel=1e-6)

    def test_smoothed_hyperboloid_leading_log_positive(self, r2_big):
        grid = [2.0**e for e in range(8, 17)]
        shells = shell_entries(r2_big, 1, 40 * grid[-1])
        vals = [lattice.hyperboloid_smoothed(3, 1, X, shells) for X in grid]
        s = lattice.count_series(grid, vals)
        f = fit.fit_model(s, [(0.5, 1), (0.5, 0)])
        assert f.coefficients[0] > 0

    def test_rank_deficiency_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            fit.fit_model(series_of(GRID**1.5), [(1.5, 0), (1.5, 0)])

    def test_needs_headroom(self):
        small = lattice.count_series(GRID[:3], GRID[:3] ** 1.5)
        with pytest.raises(ValueError):
            fit.fit_model(small, [(1.5, 0), (0.5, 0)])

    def test_deterministic_refit(self):
        y = GRID**1.5 * (1 + 0.01 * np.sin(GRID))
        a = fit.fit_model(series_of(y), [(1.5, 0), (1.0, 0)])
        b = fit.fit_model(series_of(y), [(1.5, 0), (1.0, 0)])
        assert a.coefficients == b.coefficients
        assert a.residual_norm == b.residual_norm


class TestEstimateExponent:
    def test_quadratic(self):
        assert fit.estimate_exponent(series_of(7.0 * GRID**2)) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_scale_invariance(self):
        y = GRID**1.3 * (1 + 0.01 * np.cos(GRID))
        a = fit.estimate_exponent(series_of(y))
        b = fit.estimate_exponent(series_of(1234.5 * y))
        assert a == pytest.approx(b, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit.estimate_exponent(series_of(GRID - 2000.0))


class TestLogTermVerdict:
    def test_planted_log_detected(self):
        rng = np.random.default_rng(0)
        hits = 0
        for trial in range(50):
            noise = 1 + 0.01 * rng.standard_normal(len(GRID))
            y = (2.0 * np.sqrt(GRID) * np.log(GRID) + 5.0 * np.sqrt(GRID)) * noise
            v = fit.log_term_verdict(series_of(y), WITH_LOG, WITHOUT_LOG, seed=trial)
            hits += v.verdict == "log"
        assert hits >= 45  # >= 90% agreement

    def test_planted_pure_power_rejected(self):
        rng = np.random.default_rng(1)
        hits = 0
        for trial in range(50):
            noise = 1 + 0.01 * rng.standard_normal(len(GRID))
            y = 5.0 * np.sqrt(GRID) * noise
            v = fit.log_term_verdict(series_of(y), WITH_LOG, WITHOUT_LOG, seed=trial)
            hits += v.verdict == "no-log"
        assert hits >= 45

    def test_noiseless_pure_power(self):
        v = fit.log_term_verdict(
            series_of(3.0 * GRID**1.5), ((1.5, 1), (1.5, 0)), ((1.5, 0),)
        )
        assert v.verdict == "no-log"

    def test_hyperboloid_dichotomy(self, r2_big):
        grid = [2.0**e for e in range(10, 21)]
        for h, expected in ((1, "log"), (2, "no-log")):
            shells = shell_entries(r2_big, h, grid[-1])
            vals = [lattice.hyperboloid_count(3, h, R, shells) for R in grid]
            s = lattice.count_series(grid, vals)
            v = fit.log_term_verdict(s, WITH_LOG, WITHOUT_LOG)
            assert v.verdict == expected, (h, v)

    def test_verdict_deterministic_under_seed(self, r2_big):
        grid = [2.0**e for e in range(10, 21)]
        shells = shell_entries(r2_big, 1, grid[-1])
        vals = [lattice.hyperboloid_count(3, 1, R, shells) for R in grid]
        s = lattice.count_series(grid, vals)
        a = fit.log_term_verdict(s, WITH_LOG, WITHOUT_LOG, seed=11)
        b = fit.log_term_verdict(s, WITH_LOG, WITHOUT_LOG, seed=11)
        assert a.log_coefficient_se == b.log_coefficient_se

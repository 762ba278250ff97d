"""Lattice counting: balls, the Bessel-series identity, hyperboloids,
and the exact odd-divisor identities."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import exact_count_integral, shell_entries

from gaussvariants import arith, lattice
from gaussvariants.selection import TableSelection


def nonzero_r(d, n_max):
    """The nonzero entries of r_d to n_max: what the circle functions take."""
    return TableSelection(n_max).apply(arith.r_d_table(d, n_max))


class TestCountBall:
    def test_examples(self):
        r2 = nonzero_r(2, 10)
        r3 = nonzero_r(3, 10)
        assert lattice.count_ball(2, 1.0, r2) == 5
        assert lattice.count_ball(2, 0.5, r2) == 1
        assert lattice.count_ball(3, 2.0, r3) == 19

    def test_monotone_nondecreasing(self, r2_nonzero):
        counts = [lattice.count_ball(2, R, r2_nonzero) for R in range(1, 400)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_matches_direct_pair_enumeration(self, r2_big):
        top = 10**4
        root = math.isqrt(top)
        side = np.arange(-root, root + 1, dtype=np.int64)
        norms = (side[:, None] ** 2 + side[None, :] ** 2).ravel()
        norms = norms[norms <= top]
        enumerated = np.cumsum(np.bincount(norms, minlength=top + 1))
        table_route = np.cumsum(r2_big.ints()[: top + 1])
        assert np.array_equal(enumerated, table_route)

    def test_coverage_error(self):
        r2 = nonzero_r(2, 10)
        with pytest.raises(arith.TableCoverageError):
            lattice.count_ball(2, 11.0, r2)


class TestDiscrepancy:
    def test_unit_circle(self):
        r2 = nonzero_r(2, 2)
        assert lattice.discrepancy(2, 1.0, r2) == pytest.approx(5 - math.pi)

    def test_small_radius_limit(self):
        r2 = nonzero_r(2, 2)
        assert lattice.discrepancy(2, 1e-9, r2) == pytest.approx(1.0, abs=1e-8)


class TestMeanSquare:
    def test_single_piece_antiderivative(self):
        r2 = nonzero_r(2, 2)
        expected = 1 - math.pi + math.pi**2 / 3
        assert lattice.mean_square_P2(1.0, r2) == pytest.approx(expected, rel=1e-14)

    def test_vanishes_at_zero_plus(self):
        r2 = nonzero_r(2, 2)
        assert lattice.mean_square_P2(1e-12, r2) == pytest.approx(0.0, abs=1e-11)

    def test_loglog_slope_three_halves(self, r2_nonzero):
        xs = [2.0**e for e in range(10, 19)]
        ys = [lattice.mean_square_P2(x, r2_nonzero) for x in xs]
        slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
        assert abs(slope - 1.5) < 0.05

    # 16384 = arith._BLOCK: the grid ends at, just past and one past two blocks
    @pytest.mark.parametrize("X", [2.0**18, 100_000.5, 3.25, 16384.0, 16384.5, 32769.0])
    def test_blocks_give_the_whole_array_formula(self, r2_big, r2_nonzero, X):
        top = math.ceil(X)
        counts = np.cumsum(r2_big.ints()[:top]).astype(np.float64)
        left = np.arange(top, dtype=np.float64)
        right = np.minimum(left + 1.0, X)
        piece = ((counts - math.pi * left) ** 3 - (counts - math.pi * right) ** 3) / (3 * math.pi)
        assert lattice.mean_square_P2(X, r2_nonzero) == math.fsum(piece.tolist())

    def test_needs_every_nonzero_entry(self):
        r2 = arith.r_d_table(2, 100)
        shells = TableSelection(100, lattice.shell_indices(1, 100)).apply(r2)
        with pytest.raises(ValueError, match="leave out nonzero"):
            lattice.mean_square_P2(50.5, shells)

    def test_wide_entries_take_the_exact_counts(self):
        # words entries: the counts pass 2^70 and come back to 13
        values = [1, 4, 0, 1 << 70, -(1 << 70), 8]
        entries = TableSelection(5).apply(arith.CoefficientTable("r_2", values))
        assert entries.values.ndim == 2
        assert lattice.mean_square_P2(5.5, entries) == exact_count_integral(values, 5.5)

    def test_counts_past_int64_do_not_wrap(self):
        # int64 entries whose counts reach 9 + 9 * 2^61 > 2^63: wrapped, the
        # count 9 + 2^64 on [10, 11) would read 9
        values = [1, 4, 4] + [1 << 61] * 9
        entries = TableSelection(11).apply(arith.CoefficientTable("r_2", values))
        assert entries.values.dtype == np.int64
        assert lattice.mean_square_P2(12.0, entries) == exact_count_integral(values, 12.0)


# J1 reference values, computed once with 30-digit arithmetic and frozen.
J1_REFERENCE = [
    (0.5, 0.2422684576748739),
    (1.0, 0.4400505857449335),
    (2.0, 0.5767248077568734),
    (5.0, -0.3275791375914652),
    (11.9, -0.2289832496619241),
    (12.1, -0.2157489733769248),
    (40.0, 0.126038318037585),
    (1000.0, 0.004728311907089524),
    (99995.5, -0.002069915206495097),
]


def j1_series_oracle(x, terms=30):
    half = x / 2.0
    term = half
    acc = term
    for j in range(1, terms):
        term *= -(half * half) / (j * (j + 1))
        acc += term
    return acc


class TestBesselJ1:
    def test_zero(self):
        assert lattice.bessel_J1(0.0) == 0.0

    def test_series_oracle_point(self):
        assert lattice.bessel_J1(1.0) == pytest.approx(j1_series_oracle(1.0), abs=1e-12)

    def test_first_zero_by_bisection(self):
        lo, hi = 3.0, 4.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if j1_series_oracle(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert abs(lattice.bessel_J1(root)) < 1e-6
        assert root == pytest.approx(3.8317059702, abs=1e-9)

    def test_frozen_reference_grid(self):
        for x, ref in J1_REFERENCE:
            assert abs(lattice.bessel_J1(x) - ref) < 1e-8, x

    def test_switch_point_continuity(self):
        xs = np.array([11.999999, 12.0, 12.000001])
        vals = lattice.bessel_J1(xs)
        assert abs(vals[2] - vals[0]) < 1e-5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lattice.bessel_J1(-1.0)

    @staticmethod
    def masked_formula(x):
        """J_1 as one masked pass: the series below the switch, the
        expansion above, each Horner sum started from zero."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        out = np.empty(x.shape)
        small = x <= 12.0
        if np.any(small):
            half = x[small] / 2.0
            term = half.copy()
            acc = term.copy()
            for j in range(1, 40):
                term = term * (-(half * half)) / (j * (j + 1))
                acc += term
            out[small] = acc
        if np.any(~small):
            xl = x[~small]
            inv2 = 1.0 / (xl * xl)
            p = np.zeros_like(xl)
            for c in reversed((1.0, 15.0 / 128.0, -4725.0 / 32768.0, 2837835.0 / 4194304.0)):
                p = p * inv2 + c
            q = np.zeros_like(xl)
            for c in reversed((3.0 / 8.0, -105.0 / 1024.0, 72765.0 / 262144.0, -468242775.0 / 234881024.0)):
                q = q * inv2 + c
            q = q / xl
            omega = xl - 0.75 * math.pi
            out[~small] = np.sqrt(2.0 / (math.pi * xl)) * (np.cos(omega) * p - np.sin(omega) * q)
        return out

    @pytest.mark.parametrize(
        "x",
        [
            2 * math.pi * np.sqrt(np.arange(1, 40_000) * 10.3),  # all past the switch
            np.linspace(0.0, 40.0, 20_001),  # both sides
            np.array([12.0, 12.0, 30.5]),  # exactly at the switch
            np.array([12.0]),
            np.array([12.0 + 2**-49, 1e5]),
            17.25,  # a scalar
        ],
        ids=["large", "mixed", "at-switch", "only-switch", "just-past", "scalar"],
    )
    def test_same_bits_as_masked_formula(self, x):
        got = np.atleast_1d(lattice.bessel_J1(x))
        assert got.view(np.uint64).tolist() == self.masked_formula(x).view(np.uint64).tolist()


class TestHardyIdentity:
    def test_modest_radius(self, r2_nonzero):
        err = abs(
            lattice.hardy_identity(10.5, 10**5, r2_nonzero)
            - lattice.discrepancy(2, 10.5, r2_nonzero)
        )
        assert err < 0.05

    def test_tiny_radius(self, r2_nonzero):
        val = lattice.hardy_identity(0.5, 10**4, r2_nonzero)
        assert abs(val - (1 - math.pi / 2)) < 0.05

    def test_error_trend_in_cesaro_mean(self, r2_nonzero):
        # non-monotone pointwise, decreasing in windowed mean as M grows 10x
        R = 500.25
        exact = lattice.discrepancy(2, R, r2_nonzero)

        def window_mean(M):
            samples = np.linspace(M, 1.1 * M, 12)
            return float(
                np.mean(
                    [
                        abs(lattice.hardy_identity(R, int(m), r2_nonzero) - exact)
                        for m in samples
                    ]
                )
            )

        assert window_mean(10**6) < window_mean(10**5)

    def test_rejects_integer_radius(self, r2_nonzero):
        with pytest.raises(ValueError):
            lattice.hardy_identity(10.0, 100, r2_nonzero)
        with pytest.raises(ValueError):
            lattice.hardy_identity(np.array([10.5, 11.0]), 100, r2_nonzero)

    def test_array_of_radii_is_the_scalar_calls(self, r2_nonzero):
        radii = np.array([0.5, 10.5, 123.37, 998.6])
        got = lattice.hardy_identity(radii, 10**5, r2_nonzero)
        assert isinstance(got, np.ndarray) and got.shape == radii.shape
        assert got.tolist() == [lattice.hardy_identity(R, 10**5, r2_nonzero) for R in radii.tolist()]
        assert isinstance(lattice.hardy_identity(10.5, 100, r2_nonzero), float)

    @pytest.mark.parametrize("n_terms", [10**6, 54_321])
    def test_blocks_give_the_whole_array_formula(self, r2_big, r2_nonzero, n_terms):
        r2 = r2_big.floats()[1 : n_terms + 1]
        mask = r2 != 0
        n = np.arange(1, n_terms + 1, dtype=np.float64)[mask]
        r2 = r2[mask]
        radii = [10.5, 123.37, 998.6]
        root_n = np.sqrt(n)
        whole = [
            math.sqrt(R) * float(np.sum(lattice.bessel_J1(2 * math.pi * np.sqrt(n * R)) * r2 / root_n))
            for R in radii
        ]
        assert lattice.hardy_identity(np.array(radii), n_terms, r2_nonzero).tolist() == whole

    def test_holds_one_block_of_bessel_temporaries(self, r2_nonzero):
        # the 216 341 nonzero terms to 10^6 take about 8.7 MB as five vectors;
        # each leaf makes 2^13 terms at a time
        radii = np.array([10.5, 500.25])
        tracemalloc.start()
        try:
            lattice.hardy_identity(radii, 10**6, r2_nonzero)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestHyperboloidCounts:
    def test_examples(self, r2_big):
        shells = shell_entries(r2_big, 1, 1)
        assert lattice.hyperboloid_count(3, 1, 1.0, shells) == 4
        assert lattice.hyperboloid_count(3, 1, 0.5, shells) == 0

    def test_oracle_equivalence_spot(self):
        r3 = shell_entries(arith.r_d_table(3, 300), 2, 20)
        assert lattice.hyperboloid_count(4, 2, 20.0, r3) == lattice.hyperboloid_bruteforce(4, 2, 20.0)
        r4 = shell_entries(arith.r_d_table(4, 300), 1, 30)
        assert lattice.hyperboloid_count(5, 1, 30.0, r4) == lattice.hyperboloid_bruteforce(5, 1, 30.0)

    def test_below_shift_is_empty(self):
        assert lattice.hyperboloid_bruteforce(3, 5, 4.0) == 0

    def test_guard(self):
        with pytest.raises(ValueError):
            lattice.hyperboloid_bruteforce(3, 1, 2000.0)

    def test_shell_table_marginals(self, r2_big):
        shells = shell_entries(r2_big, 1, 1000)
        shell = lattice.hyperboloid_shell_table(3, 1, 1000, shells)
        vals = shell.ints()
        # b(2m^2+1) carries r_2(m^2+1) once at m=0 and twice otherwise
        assert vals[1] == r2_big[1]
        assert vals[3] == 2 * r2_big[2]
        assert vals[9] == 2 * r2_big[5]
        assert int(vals.sum()) == lattice.hyperboloid_count(3, 1, 1000.0, shells)

    def test_oh_shah_band(self, r2_big):
        shells = shell_entries(r2_big, 1, 10**6)
        norm = {
            R: lattice.hyperboloid_count(3, 1, float(R), shells)
            / (math.sqrt(R) * math.log(R))
            for R in (10**4, 10**5, 10**6)
        }
        ref = norm[10**6]
        assert all(abs(v / ref - 1.0) < 0.15 for v in norm.values())


class TestHyperboloidSmoothed:
    def test_square_shift_log_normalization_stabilizes(self, r2_big):
        shells = shell_entries(r2_big, 1, 40 * 2.0**16)  # e^{-n/X} is summed to n = 40X
        vals = [
            lattice.hyperboloid_smoothed(3, 1, 2.0**e, shells)
            / (2.0 ** (e / 2) * (e * math.log(2)))
            for e in range(8, 17)
        ]
        assert max(vals) / min(vals) < 1.2

    def test_vanishes_at_tiny_X(self, r2_big):
        assert lattice.hyperboloid_smoothed(3, 1, 1e-6, shell_entries(r2_big, 1, 1)) == 0.0

    @pytest.mark.parametrize("d, h", [(3, 1), (4, 2)])
    def test_exponential_keeps_its_bits(self, r2_big, d, h):
        # the e^{-n/X} sum over the shells 2m^2 + h <= 40X, written out
        table = r2_big if d == 3 else arith.r_d_table(3, 20000)
        shells = shell_entries(table, h, 40 * 512.25)
        for X in [2.0**e for e in range(4, 10)] + [100.0, 300.5, 512.25]:
            m_top = math.isqrt((int(math.floor(40.0 * X)) - h) // 2)
            m = np.arange(m_top + 1, dtype=np.int64)
            r = table.values[m * m + h]
            n, b = 2 * m * m + h, np.where(m == 0, r, 2 * r)
            expected = float(np.sum(b.astype(np.float64) * np.exp(-n / X)))
            assert lattice.hyperboloid_smoothed(d, h, X, shells) == expected, X

    def test_coverage_enforced(self):
        # e^{-n/X} is summed to n = 40X = 2000, whose shells read r_2 to 31^2 + 1
        short = shell_entries(arith.r_d_table(2, 100), 1, 200)  # to 9^2 + 1
        with pytest.raises(arith.TableCoverageError):
            lattice.hyperboloid_smoothed(3, 1, 50.0, short)

    def test_short_interval_lambda(self):
        assert lattice.power_saving_exponent(3) == pytest.approx(1 / 44)

    def test_short_interval_normalized_recorded_ceiling(self, r2_big):
        # each window |n - 2^14| < 2^14 (1 - lambda) ends below 2^15
        r2 = shell_entries(r2_big, 1, 2**15)
        r3 = shell_entries(arith.r_d_table(3, 40000), 1, 2**15)
        for e in (10, 12, 14):
            _, norm3 = lattice.hyperboloid_short_interval(3, 1, 2.0**e, r2)
            assert norm3 < 40.0  # recorded ceiling from this computation
            _, norm4 = lattice.hyperboloid_short_interval(4, 1, 2.0**e, r3)
            assert norm4 < 12.0

    def test_empty_window(self, r2_big):
        assert lattice.hyperboloid_short_interval(3, 1, 0.25, shell_entries(r2_big, 1, 1)) == (0, 0.0)


class TestHyperboloidInputs:
    """h < 1 would read the r table from its end; d < 3 has no power saving."""

    @pytest.mark.parametrize("h", [0, -5])
    def test_every_hyperboloid_sum_rejects_h_below_one(self, h):
        r2 = shell_entries(arith.r_d_table(2, 200), 1, 200)
        with pytest.raises(ValueError):
            lattice.hyperboloid_count(3, h, 64.0, r2)
        with pytest.raises(ValueError):
            lattice.hyperboloid_smoothed(3, h, 16.0, r2)
        with pytest.raises(ValueError):
            lattice.hyperboloid_short_interval(3, h, 64.0, r2)
        with pytest.raises(ValueError):
            lattice.hyperboloid_shell_table(3, h, 50, r2)

    def test_short_interval_rejects_dimension_two(self):
        r1 = shell_entries(arith.r_d_table(1, 200), 1, 200)
        with pytest.raises(ValueError):
            lattice.hyperboloid_short_interval(2, 1, 64.0, r1)

    @pytest.mark.parametrize(
        "selection",
        [
            TableSelection(2000),  # every nonzero entry, from r_2(0)
            TableSelection(2000, lattice.shell_indices(2, 2000)),  # the shells of h = 2
            TableSelection(2000, lattice.shell_indices(1, 22**2 + 1)),  # stops at 22^2 + 1
        ],
        ids=["nonzero", "other h", "short index"],
    )
    def test_every_hyperboloid_sum_refuses_other_entries(self, selection):
        # the sums to 2000 read r_2(m^2 + 1) at positions m = 0..31
        entries = selection.apply(arith.r_d_table(2, 2000))
        with pytest.raises(ValueError, match=r"table 'r_2' are not the shells m\^2 \+ 1 to m = 31"):
            lattice.hyperboloid_count(3, 1, 2000.0, entries)
        with pytest.raises(ValueError, match="table 'r_2'"):
            lattice.hyperboloid_smoothed(3, 1, 50.0, entries)
        with pytest.raises(ValueError, match="table 'r_2'"):
            lattice.hyperboloid_short_interval(3, 1, 1000.0, entries)
        with pytest.raises(ValueError, match="table 'r_2'"):
            lattice.hyperboloid_shell_table(3, 1, 2000, entries)

    def test_every_hyperboloid_sum_refuses_a_short_table(self):
        short = shell_entries(arith.r_d_table(2, 2000), 1, 1000)  # to 22^2 + 1
        with pytest.raises(arith.TableCoverageError, match="r_2"):
            lattice.hyperboloid_count(3, 1, 2000.0, short)
        with pytest.raises(arith.TableCoverageError, match="r_2"):
            lattice.hyperboloid_short_interval(3, 1, 1000.0, short)
        with pytest.raises(arith.TableCoverageError, match="r_2"):
            lattice.hyperboloid_shell_table(3, 1, 2000, short)


class TestHyperboloidBeyondInt64:
    """r_12 fits int64 to n = 3970, but N_{13,1}(7939) does not."""

    @staticmethod
    def python_int_sum(table, h, lo, hi):
        """Plain Python-int sum of r(m^2 + h) over m in Z with lo < 2m^2 + h < hi."""
        return sum(
            (1 if m == 0 else 2) * table[m * m + h]
            for m in range(math.isqrt(table.n_max - h) + 1)
            if lo < 2 * m * m + h < hi
        )

    def test_count_and_window_exact(self):
        r12 = arith.r_d_table(12, 3970)
        shells = shell_entries(r12, 1, 7939)
        expected = self.python_int_sum(r12, 1, -math.inf, 7940)
        assert expected == 100180679812738477896 > 2**63
        assert lattice.hyperboloid_count(13, 1, 7939.0, shells) == expected
        X = 4500.0
        width = X ** (1.0 - lattice.power_saving_exponent(13))
        total, _ = lattice.hyperboloid_short_interval(13, 1, X, shells)
        assert total == self.python_int_sum(r12, 1, X - width, X + width) > 2**63


class TestDivisorIdentities:
    def test_conventions_reported_small_R(self, divisor_tables):
        _, d_odd = divisor_tables
        lhs, rhs = lattice.divisor_identity_check(5, d_odd)
        assert lhs == rhs
        # per-Z counts r_2(Z^2 + 1) and r_2(4Z^2 + 1); lhs sums Z = 1..R'
        assert lattice.points_on_unit_hyperboloid(5).tolist() == [4, 4, 8, 8, 8, 8]
        assert lattice.points_on_unit_hyperboloid(4, even_z=True).tolist() == [4, 8, 8, 8, 16]
        assert lhs == [4, 12, 20, 28, 36]
        # the Z = 0 shell holds exactly 4 points, pairing with n = 0
        assert lattice.points_on_unit_hyperboloid(5)[0] == 4

    def test_combination_odd_R_rejected(self, divisor_tables):
        d_all, _ = divisor_tables
        with pytest.raises(ValueError):
            lattice.divisor_combination(7, d_all)


class TestCountSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            lattice.count_series([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            lattice.count_series([2.0, 1.0], [1.0, 2.0])

    def test_sharp_counts_nondecreasing_invariant(self, r2_big):
        grid = [2.0**e for e in range(10, 17)]
        shells = shell_entries(r2_big, 1, grid[-1])
        vals = [lattice.hyperboloid_count(3, 1, R, shells) for R in grid]
        series = lattice.count_series(grid, vals)
        arr = series.value_array
        assert np.all(np.diff(arr) >= 0)


class TestSmoothedSeriesInvariant:
    def test_positive_and_increasing_in_X(self, r2_big):
        grid = [2.0**e for e in range(8, 17)]
        shells = shell_entries(r2_big, 2, 40 * grid[-1])
        vals = [lattice.hyperboloid_smoothed(3, 2, X, shells) for X in grid]
        series = lattice.count_series(grid, vals)
        arr = series.value_array
        assert np.all(arr > 0)
        assert np.all(np.diff(arr) > 0)

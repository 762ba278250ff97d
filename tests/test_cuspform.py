"""Tau engine, partial sums, moment statistics, sign scans."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from conftest import delta_form

from gaussvariants import arith, cuspform


class TestTauTable:
    def test_first_six(self):
        assert cuspform.tau_table(6).tolist()[1:] == [1, -24, 252, -1472, 4830, -6048]

    def test_leading_coefficient(self):
        assert cuspform.tau_table(1)[1] == 1

    def test_matches_product_expansion_to_50(self):
        assert cuspform.tau_table(50).tolist() == cuspform.tau_bruteforce(50).tolist()

    def test_multiplicativity_all_coprime_pairs_to_100(self, tau):
        for m in range(2, 101):
            for n in range(m + 1, 101):
                if math.gcd(m, n) != 1:
                    continue
                assert tau[m * n] == tau[m] * tau[n], (m, n)
        assert tau[6] == tau[2] * tau[3]

    def test_hecke_recursion_at_two(self, tau):
        for j in range(1, 13):
            assert tau[2 ** (j + 1)] == tau[2] * tau[2**j] - 2**11 * tau[2 ** (j - 1)]

    def test_deligne_bound_all_tabulated(self, delta):
        d_all, _ = arith.divisor_counts(delta.n_max)
        a = np.abs(delta.floats[1:])
        n = np.arange(1, delta.n_max + 1, dtype=np.float64)
        bound = d_all.floats()[1:] * n**5.5 * (1 + 1e-9)
        assert np.all(a <= bound)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            cuspform.tau_table(10**6 + 1)

    def test_eta_cube_support_is_its_definition(self):
        # m = 100 is the first with m(m+1)/2 = 5050 past every degree, so
        # each triangular boundary to 5000 is crossed
        terms = [(m * (m + 1) // 2, (-1) ** m * (2 * m + 1)) for m in range(101)]
        for degree in range(5001):
            exps, coeffs = cuspform._eta_cube_support(degree)
            assert exps.dtype == coeffs.dtype == np.int64
            kept = [t for t in terms if t[0] <= degree]
            assert list(zip(exps.tolist(), coeffs.tolist())) == kept, degree


class TestPartialSums:
    def test_exact_prefix_at_nu_zero(self, delta):
        s = cuspform.partial_sums(delta, 0.0)
        assert s.values[1] == 1.0
        assert s.values[3] == 1 - 24 + 252 == 229.0
        assert s.values.tobytes() == delta.prefix.tobytes()
        with pytest.raises(ValueError):
            s.values[3] = 0.0

    @pytest.mark.parametrize("nu", [0.0, 5.5])
    def test_read_only_at_every_nu(self, nu):
        s = cuspform.partial_sums(delta_form(100), nu)
        with pytest.raises(ValueError):
            s.values[3] = 0.0
        with pytest.raises(AttributeError):  # frozen, as the form it sums
            s.values = s.values.copy()

    def test_first_two_terms_at_nu(self, delta):
        s = cuspform.partial_sums(delta, 5.5)
        assert s.values[2] == pytest.approx(1 - 24 / 2**5.5, rel=1e-14)

    def test_increments_recover_terms(self, tau, delta):
        nu = 5.5
        s = cuspform.partial_sums(delta, nu)
        for n in (2, 17, 568, 9999, 100_000, delta.n_max):
            term = tau[n] / n**nu
            assert s.values[n] - s.values[n - 1] == pytest.approx(term, rel=1e-12)

    def test_exact_prefix_holds_one_block_of_sums_and_one_piece(self, tau, delta):
        # the sums of the wide tau(164 000) table: at most one block of them
        # as Python ints, 48 B a sum with its pointer, and one piece of
        # entries as Python ints with their temporaries, 256 B an entry; a
        # whole block of such temporaries would take about 4 MB.  The table
        # is made before tracing starts; a second block held, 0.8 MB more,
        # exceeds the bound
        tracemalloc.start()
        try:
            prefix = cuspform.CuspFold(tau.n_max).apply(tau).prefix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tau.values.ndim == 2
        assert prefix.tobytes() == delta.prefix.tobytes()
        bound = prefix.nbytes + 48 * arith._BLOCK + 256 * arith._PIECE
        assert peak < bound, (peak, bound)


# The correctly rounded doubles of the exact truncated sum
# Gamma(3/2)/(4 pi^2) sum_{n <= N} tau(n)^2 / n^{12.5}, cross-checked against
# the exact integer sum below (0x1.23b95ec0ef929p-5 and 0x1.23ee825d896d4p-5).
# rankin_constant uses only correctly rounded operations plus fsum, so it
# must give these bits on every IEEE-754 platform.
RANKIN_C_AT_164000 = 0.03561085230420453
RANKIN_C_AT_1E6 = 0.035636191005591705


def _exact_rankin_constant(tau, n_trunc, bits=200):
    """Gamma(3/2)/(4 pi^2) sum_{n <= N} tau(n)^2 / n^{12.5} to about 55 digits.

    Shares nothing with the float path: term n is the exact integer
    tau(n)^2 floor(sqrt(n) 2^bits) // n^13, each low by less than 2 units of
    2^-bits, so the fixed-point sum is within 2N units; mpmath supplies pi.
    """
    mpmath = pytest.importorskip("mpmath")
    total = 0
    for n in range(1, n_trunc + 1):
        t = tau[n]
        total += t * t * math.isqrt(n << (2 * bits)) // n**13
    with mpmath.workdps(60):
        series = mpmath.ldexp(total, -bits)
        return series * mpmath.sqrt(mpmath.pi) / (8 * mpmath.pi**2)


def rankin_at(tau, n_trunc):
    """The Rankin constant and tail of the form folded from tau to n_trunc."""
    return cuspform.rankin_constant(cuspform.CuspFold(n_trunc, rankin=True).apply(tau))


@pytest.fixture(scope="module")
def tau_1e6():
    return cuspform.tau_table(10**6)


class TestRankinConstant:
    def test_single_term(self, tau):
        C, _ = rankin_at(tau, 1)
        assert C == pytest.approx(math.gamma(1.5) / (4 * math.pi**2), rel=1e-15)

    def test_frozen_regression(self, delta):
        C, _ = cuspform.rankin_constant(delta)
        assert delta.n_max == 164_000
        assert C == RANKIN_C_AT_164000  # bit-stable across runs

    def test_pin_is_exact_sum_correctly_rounded(self, tau):
        exact = _exact_rankin_constant(tau.tolist(), 164_000)
        assert float(exact) == RANKIN_C_AT_164000

    def test_tail_bound_monotone(self, tau):
        tails = [rankin_at(tau, n)[1] for n in (10**3, 10**4, 10**5)]
        assert tails[0] > tails[1] > tails[2] > 0

    def test_tail_bound_covers_observed_gap(self, tau, delta):
        C_small, tail = rankin_at(tau, 10**4)
        C_ref, _ = cuspform.rankin_constant(delta)
        assert abs(C_ref - C_small) < tail

    @pytest.mark.parametrize("n_trunc", [1, 7, 1024, 1025, 16384, 16385, 100_000, 163_999, 164_000])
    def test_terms_are_those_of_the_per_term_formula(self, tau, n_trunc):
        # the terms one at a time from Python ints, as a generator: each is
        # correctly rounded and fsum is order-free, so the bits are equal
        values = tau.tolist()
        terms = (float(c * c) / (float(n**12) * math.sqrt(n)) for n, c in enumerate(values[1 : n_trunc + 1], 1))
        C, _ = rankin_at(tau, n_trunc)
        assert C == math.sqrt(math.pi) / 2 / (4 * math.pi * math.pi) * math.fsum(terms)

    def test_reads_its_terms_one_block_at_a_time(self, tau):
        # the fold makes the terms a piece at a time beside the prefix it
        # keeps; a list of all 164 000 wide entries would take 1.25 MB
        tracemalloc.start()
        try:
            form = cuspform.CuspFold(tau.n_max, rankin=True).apply(tau)
            C, _ = cuspform.rankin_constant(form)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert C == RANKIN_C_AT_164000
        assert peak < form.prefix.nbytes + 2**19, peak


@pytest.mark.slow
def test_rankin_regression_at_1e6(tau_1e6):
    C, _ = rankin_at(tau_1e6, 10**6)
    assert C == RANKIN_C_AT_1E6


@pytest.mark.slow
def test_rankin_pin_at_1e6_is_exact_sum_correctly_rounded(tau_1e6):
    exact = _exact_rankin_constant(tau_1e6.tolist(), 10**6)
    assert float(exact) == RANKIN_C_AT_1E6


class TestSmoothedSecondMoment:
    def test_ratio_converges_to_constant(self, delta):
        C, _ = cuspform.rankin_constant(delta)
        gaps = []
        for e in (10, 11, 12):
            v = cuspform.smoothed_second_moment(delta, 2.0**e)
            gaps.append(abs(v / 2.0 ** (1.5 * e) / C - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]  # monotone-in-gap toward C
        assert gaps[-1] < 0.05

    def test_doubling_scales_like_x32(self, delta):
        v1 = cuspform.smoothed_second_moment(delta, 256.0)
        v2 = cuspform.smoothed_second_moment(delta, 512.0)
        assert abs(math.log2(v2 / v1) - 1.5) < 0.1

    def test_table_too_short(self, delta):
        with pytest.raises(arith.TableCoverageError):
            cuspform.smoothed_second_moment(delta, delta.n_max)

    # X = 2^9 needs 20 480 terms, more than one leaf of 2^14
    @pytest.mark.parametrize("X", [2.0**9, 100.5])
    def test_leaves_give_the_whole_array_formula(self, X):
        form = delta_form(21_000)
        top = math.ceil(40 * X)
        S = form.prefix[1 : top + 1]
        n = np.arange(1, top + 1, dtype=np.float64)
        whole = float(np.sum(S * S * n ** (1 - form.weight) * np.exp(-n / X)))
        assert cuspform.smoothed_second_moment(form, X) == whole

    def test_holds_one_leaf_of_temporaries(self, delta):
        # 163 840 terms; five whole vectors of them would take 6.25 MB
        tracemalloc.start()
        try:
            cuspform.smoothed_second_moment(delta, 4096.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSignChanges:
    def test_window_at_1000_nonempty(self, delta):
        nu = 5.5 + 1 / 6 - 0.01
        s = cuspform.partial_sums(delta, nu)
        assert cuspform.sign_changes(s, 1000, 1.0)

    def test_constant_sign_series_empty(self, delta):
        ones = arith.CoefficientTable("ones", [0] + [1] * 100)
        form = cuspform.CuspFold(100, weight=2).apply(ones)
        s = cuspform.partial_sums(form, 0.0)
        assert cuspform.sign_changes(s, 10, 1.0) == []

    def test_unnormalized_delta_oscillates_early(self, delta):
        s = cuspform.partial_sums(delta, 0.0)
        assert cuspform.sign_changes(s, 10, 1.0)

    def test_zero_bridging(self, delta):
        vals = np.array([0.0, 9.0, 1.0, 0.0, -1.0, -2.0, 3.0, 3.0])
        series = cuspform.PartialSumSeries(delta, 0.0, vals)
        # the zero at index 3 bridges + -> -, attributed to the last nonzero
        # position; the change back lands on index 5
        assert cuspform.sign_changes(series, 2, 1.0) == [2]
        assert cuspform.sign_changes(series, 3, 1.0) == [5]

    def test_one_pass_is_the_loop_it_replaced(self, delta):
        # random windows over runs of zeros, +-0.0, subnormals, infinities
        # and NaN, some starting or ending on a zero, at r < 1 and r = 1
        def loop(vals, X, hi):
            changes = []
            prev_sign = 0
            prev_n = None
            for n in range(X, hi + 1):
                v = vals[n]
                if v == 0.0:
                    continue
                sign = 1 if v > 0 else -1
                if prev_sign and sign != prev_sign:
                    changes.append(prev_n)
                prev_sign = sign
                prev_n = n
            return changes

        rng = np.random.default_rng(2017)
        pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, -1.0, 1.0, np.inf, -np.inf, np.nan])
        for _ in range(2000):
            size = int(rng.integers(3, 200))
            vals = np.where(rng.random(size) < 0.5, rng.choice(pool, size), rng.standard_normal(size))
            for start in rng.integers(0, size, 3):
                vals[start : start + rng.integers(1, 20)] = rng.choice([0.0, -0.0])
            X = int(rng.integers(1, (size - 1) // 2 + 1))
            r = float(rng.choice([0.25, 0.5, 0.9, 1.0]))
            hi, _ = cuspform.sign_scan_reach(X, r)
            ends = rng.integers(4)
            if ends & 1:
                vals[X] = 0.0
            if ends & 2:
                vals[hi] = -0.0
            changes = cuspform.sign_changes(cuspform.PartialSumSeries(delta, 0.0, vals), X, r)
            assert changes == loop(vals, X, hi), (vals.tolist(), X, r)
            assert all(type(n) is int for n in changes)

    def test_window_exceeding_table(self, delta):
        s = cuspform.partial_sums(delta, 0.0)
        with pytest.raises(arith.TableCoverageError):
            cuspform.sign_changes(s, delta.n_max, 1.0)

    def test_table_ending_at_window_end(self, tau):
        # the window [512, 1024] reads S(n) for n <= 1024 and no further
        nu = 5.5 + 1 / 6 - 0.01

        def scan(n_max):
            series = cuspform.partial_sums(cuspform.CuspFold(n_max, floats=True).apply(tau), nu)
            return cuspform.sign_changes(series, 512, 1.0)

        assert scan(1024) == scan(tau.n_max)
        with pytest.raises(arith.TableCoverageError):
            scan(1023)

    def test_first_change_position_pinned(self, delta):
        # the over-normalized series stays positive until n = 316; see the
        # acceptance module for the criterion this blocks
        nu = 5.5 + 1 / 6 - 0.01
        s = cuspform.partial_sums(delta, nu)
        assert cuspform.sign_changes(s, 2, 1.0) == []
        assert cuspform.sign_changes(s, 150, 1.0) == []
        changes = cuspform.sign_changes(s, 300, 1.0)
        assert changes and changes[0] == 315


class TestSharpAverages:
    def test_short_interval_bounded(self, delta):
        # ceiling recorded from this computation across X = 2^10..2^16
        for e in range(10, 17):
            v = cuspform.short_interval_average(delta, 2**e)
            assert v / (2.0**e) ** 11.5 < 10.0

    def test_short_interval_zero_series(self, delta):
        zeros = arith.CoefficientTable("zero", [0] * 5000)
        form = cuspform.CuspFold(4999).apply(zeros)
        assert cuspform.short_interval_average(form, 1024) == 0.0

    def test_determinism_fresh_vs_fixture(self, delta):
        fresh = delta_form(3000)
        a = cuspform.short_interval_average(fresh, 1024)
        b = cuspform.short_interval_average(delta, 1024)
        assert a == b


class TestCuspFormSeriesInvariants:
    def test_prefix_floats_in_blocks_are_the_whole_cumsum(self, tau, delta):
        assert len(tau) > 3 * arith._BLOCK
        whole = [float(s) for s in itertools.accumulate(tau.tolist())]
        assert delta.prefix.tolist() == whole

    def test_delta_normalization_enforced(self):
        bad = arith.CoefficientTable("tau", [0, 2, -48])
        with pytest.raises(ValueError, match="tau"):
            cuspform.CuspFold(2).apply(bad)

    def test_positive_weight_required(self):
        with pytest.raises(ValueError):
            cuspform.CuspFold(10, weight=0)

    def test_sums_refuse_what_the_fold_left_out(self, tau):
        form = cuspform.CuspFold(100).apply(tau)
        assert form.rankin is None and form.floats is None
        with pytest.raises(ValueError, match="rankin=True"):
            cuspform.rankin_constant(form)
        with pytest.raises(ValueError, match="floats=True"):
            cuspform.partial_sums(form, 5.5)

    def test_external_form_via_cache_format(self, tmp_path, tau, delta):
        # other forms load through the shared cache format, folded as read
        path = tmp_path / "form.gvct"
        arith.write_table_cache(path, tau)
        loaded = arith.read_table_cache(path, cuspform.CuspFold(tau.n_max))
        assert cuspform.smoothed_second_moment(
            loaded, 64.0
        ) == cuspform.smoothed_second_moment(delta, 64.0)


def test_warm_fold_holds_only_what_the_sums_read(tmp_path, tau, delta):
    # a warm second-moment: tau(164 000) folded as its file streams, then
    # the constant and a moment from what the fold kept.  Beside the float
    # prefix sums it holds one block of the body's words and one piece of
    # Python ints with their temporaries, 256 B an entry; the table's own
    # (low, high) words alone would take 2.6 MB
    path = tmp_path / "tau-164000.gvct"
    arith.write_table_cache(path, tau)
    tracemalloc.start()
    try:
        form = arith.read_table_cache(path, cuspform.CuspFold(tau.n_max, rankin=True))
        C, _ = cuspform.rankin_constant(form)
        M = cuspform.smoothed_second_moment(form, 4096.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(form, cuspform.CuspFormSeries) and form.floats is None
    assert form.prefix.tobytes() == delta.prefix.tobytes()
    assert (C, M) == (RANKIN_C_AT_164000, cuspform.smoothed_second_moment(delta, 4096.0))
    bound = form.prefix.nbytes + 16 * arith._BLOCK + 256 * arith._PIECE
    assert peak <= bound, (peak, bound)


def test_wide_cache_read_holds_its_words_and_little_more(tmp_path, tau):
    # the read makes the words, then the table checks whether they fit int64
    # only up to the first block that does not, with no array-sized temporary
    path = tmp_path / "tau-164000.gvct"
    arith.write_table_cache(path, tau)
    tracemalloc.start()
    try:
        table = arith.read_table_cache(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table == tau and table.values.ndim == 2
    assert peak < table.values.nbytes + 2**20, (peak, table.values.nbytes)


def test_smoothed_second_moment_vanishes_at_tiny_X(delta):
    assert cuspform.smoothed_second_moment(delta, 1e-4) == pytest.approx(0.0, abs=1e-300)


def test_ramanujan_congruence_mod_691(tau):
    # tau(n) = sigma_11(n) mod 691 (Ramanujan 1916) for every tabulated n.
    # The Rankin pins sum tau(n)^2 and cannot see a sign; this can, and the
    # divisor sieve below shares nothing with either tau builder.
    n_max = tau.n_max
    sigma = np.zeros(n_max + 1, dtype=np.int64)
    for d in range(1, n_max + 1):
        sigma[d::d] += pow(d, 11, 691)
    residues = np.array([t % 691 for t in tau.tolist()])
    assert np.array_equal(residues[1:], sigma[1:] % 691)

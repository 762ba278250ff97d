"""Exact arithmetic: representation counts, symbols, divisors, L-series."""

import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from gaussvariants import arith


def brute_residue_symbol(a, p):
    """Legendre symbol by brute-force squares mod p (odd prime p)."""
    a %= p
    if a == 0:
        return 0
    squares = {(i * i) % p for i in range(1, p)}
    return 1 if a in squares else -1


class TestKronecker:
    def test_nonresidue_example(self):
        assert arith.kronecker(-1, 3) == brute_residue_symbol(-1, 3) == -1

    def test_bottom_one(self):
        assert arith.kronecker(5, 1) == 1

    def test_residue_example(self):
        assert arith.kronecker(2, 7) == brute_residue_symbol(2, 7) == 1

    def test_matches_legendre_on_odd_primes(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            for a in range(-8, 9):
                assert arith.kronecker(a, p) == brute_residue_symbol(a, p), (a, p)

    def test_multiplicative_in_bottom(self):
        rng = random.Random(7)
        for _ in range(200):
            m = 2 * rng.randrange(1, 500) + 1
            n = 2 * rng.randrange(1, 500) + 1
            a = rng.randrange(1, 1000)
            assert arith.kronecker(a, m * n) == arith.kronecker(a, m) * arith.kronecker(a, n)

    def test_multiplicative_in_top(self):
        rng = random.Random(11)
        for _ in range(200):
            a = rng.randrange(1, 1000)
            b = rng.randrange(1, 1000)
            n = 2 * rng.randrange(1, 500) + 1
            assert arith.kronecker(a * b, n) == arith.kronecker(a, n) * arith.kronecker(b, n)

    def test_array_matches_scalar(self):
        n = np.arange(701)
        for a in range(-60, 61):
            got = arith.kronecker_array(a, n)
            assert got.dtype == np.int8
            assert got.tolist() == [arith.kronecker(a, m) for m in range(701)], a

    def test_array_with_a_prime_top_past_the_tables(self):
        # 10^9 + 7 is prime: no Legendre table of that length is built
        n = np.arange(300)
        for a in (10**9 + 7, -12 * (10**9 + 7)):
            assert arith.kronecker_array(a, n).tolist() == [arith.kronecker(a, m) for m in range(300)]
        assert 10**9 + 7 not in arith._QR_TABLES


class TestEpsilon:
    def test_values(self):
        assert arith.epsilon(1) == 1
        assert arith.epsilon(3) == 1j
        assert arith.epsilon(7) == 1j  # 7 = 3 mod 4

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            arith.epsilon(4)


class TestRdTables:
    def test_r2_small(self):
        assert arith.r_d_table(2, 5).tolist() == [1, 4, 4, 0, 4, 8]

    def test_r1_is_squares_indicator(self):
        assert arith.r_d_table(1, 4).tolist() == [1, 2, 0, 0, 2]

    def test_r3_small(self):
        t = arith.r_d_table(3, 2)
        assert (t[1], t[2]) == (6, 12)

    def test_invariants_nonneg_even(self, r_small):
        for d, table in r_small.items():
            vals = table.ints()
            assert vals[0] == 1
            assert np.all(vals[1:] >= 0)
            assert np.all(vals[1:] % 2 == 0), f"r_{d} parity"

    def test_convolution_consistency(self, r_small):
        # r_{a+b}(n) = sum_j r_a(j) r_b(n-j) for a, b in {1,2,3}, n <= 300
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                conv = np.convolve(r_small[a].ints(), r_small[b].ints())[:301]
                assert np.array_equal(conv, r_small[a + b].ints()[:301]), (a, b)

    def test_gauss_area_heuristic(self, r2_big):
        X = 10**6
        count = int(np.sum(r2_big.ints()[: X + 1]))
        assert abs(count / (math.pi * X) - 1.0) < 0.01


class TestBruteforceOracle:
    def test_examples(self):
        assert arith.r_d_bruteforce(2, 25) == 12
        assert arith.r_d_bruteforce(4, 0) == 1
        assert arith.r_d_bruteforce(3, 7) == 0

    def test_guard(self):
        with pytest.raises(ValueError):
            arith.r_d_bruteforce(9, 10)
        with pytest.raises(ValueError):
            arith.r_d_bruteforce(7, 5000)


class TestDivisorCounts:
    def test_small(self):
        d_all, d_odd = arith.divisor_counts(8)
        assert d_all.tolist()[1:7] == [1, 2, 2, 3, 2, 4]
        assert d_odd.tolist()[1:7] == [1, 1, 2, 1, 2, 2]
        assert d_all[1] == 1
        assert d_odd[8] == 1

    def test_matches_naive_counts(self):
        # every table length to 400 crosses the isqrt split differently
        naive_all = [0] + [sum(1 for k in range(1, n + 1) if n % k == 0) for n in range(1, 401)]
        naive_odd = [0] + [
            sum(1 for k in range(1, n + 1, 2) if n % k == 0) for n in range(1, 401)
        ]
        for n_max in range(401):
            d_all, d_odd = arith.divisor_counts(n_max)
            assert d_all.tolist() == naive_all[: n_max + 1], n_max
            assert d_odd.tolist() == naive_odd[: n_max + 1], n_max

    def test_odd_part_relation(self):
        d_all, d_odd = arith.divisor_counts(500)
        for n in range(1, 501):
            m = n
            while m % 2 == 0:
                m //= 2
            assert d_odd[n] == d_all[m]


class TestFactorize:
    def test_small_numbers(self):
        spf = arith.smallest_prime_factors(2000)
        for n in range(1, 2001):
            factors = arith.factorize(n)
            assert math.prod(p**e for p, e in factors) == n
            assert all(spf[p] == p and e > 0 for p, e in factors)
            assert [p for p, _ in factors] == sorted({p for p, _ in factors})

    def test_large_semiprime_needs_no_sieve(self):
        before = len(arith._SPF)
        assert arith.factorize(999983 * 1000003) == [(999983, 1), (1000003, 1)]
        assert len(arith._SPF) == before


# Euler product over the first 1e4 primes; frozen oracle for zeta(2).
ZETA2_EULER_10K_PRIMES = 1.6449328112720727
# Alternating-series oracle sum (-1)^k/(2k+1)^2 to 1e6 terms.
CATALAN_ALTERNATING = 0.9159655941770940


def test_zeta2_euler_oracle_value():
    spf = arith.smallest_prime_factors(104_729)  # the 10^4-th prime
    primes = [p for p in range(2, 104_730) if spf[p] == p]
    assert len(primes) == 10**4
    prod = 1.0
    for p in primes:
        prod /= 1.0 - p**-2.0
    assert abs(prod - ZETA2_EULER_10K_PRIMES) < 1e-12


def test_catalan_alternating_oracle_value():
    k = np.arange(10**6, dtype=np.float64)
    val = math.fsum(((-1.0) ** k / (2 * k + 1) ** 2).tolist())
    assert abs(val - CATALAN_ALTERNATING) < 1e-12


def character_oracle(top, removed_primes, n):
    """chi(n) from the scalar Kronecker symbol: 0 at 0 and at multiples of
    the removed primes, (top/n) elsewhere."""
    if n == 0 or any(n % p == 0 for p in removed_primes):
        return 0
    return arith.kronecker(top, n)


class TestTruncatedL:
    def test_zeta2_within_tail(self):
        value, tail = arith.truncated_L(2.0, arith.character_values(1, 10**6))
        assert abs(value - ZETA2_EULER_10K_PRIMES) < tail

    def test_single_term(self):
        value, tail = arith.truncated_L(3.0, arith.character_values(1, 1))
        assert value == 1.0
        assert tail == pytest.approx(0.5)

    def test_catalan_within_tail(self):
        value, tail = arith.truncated_L(2.0, arith.character_values(-4, 10**5))
        assert abs(value - CATALAN_ALTERNATING) < tail

    def test_rejects_left_of_one(self):
        with pytest.raises(ValueError):
            arith.truncated_L(1.0, arith.character_values(1, 100))

    def test_rejects_an_empty_series(self):
        with pytest.raises(ValueError):
            arith.truncated_L(2.0, arith.character_values(1, 0))

    @pytest.mark.parametrize("s", [2 + 3j, 1.5 - 7j])
    def test_complex_s_within_tail(self, s):
        # the np.sum branch, against zeta and L(s, (-4/.)) from mpmath
        mpmath = pytest.importorskip("mpmath")
        for top, exact in ((1, mpmath.zeta(s)), (-4, mpmath.dirichlet(s, [0, 1, 0, -1]))):
            value, tail = arith.truncated_L(s, arith.character_values(top, 10**5))
            assert abs(value - complex(exact)) < tail, top

    def test_tail_bound_honest_under_doubling(self):
        rng = random.Random(3)
        chis = [(1, ()), (1, {2}), (-4, ()), (5, {2}), (-8, ())]
        for i in range(20):
            s = 1.5 + rng.random() * 2.5
            top, removed = chis[i % len(chis)]
            n = rng.randrange(500, 5000)
            v1, tail1 = arith.truncated_L(s, arith.character_values(top, n, removed))
            v2, _ = arith.truncated_L(s, arith.character_values(top, 2 * n, removed))
            assert abs(v2 - v1) < tail1

    def test_removed_primes_zero_out(self):
        chi = arith.character_values(5, 10, removed_primes={2, 3})
        assert chi[6] == 0 and chi[9] == 0 and chi[10] == 0
        assert chi[7] == arith.kronecker(5, 7)

    def test_values_match_pointwise_at_every_index(self):
        for top, removed in ((1, ()), (1, {2, 3}), (-1, ()), (-3, {5}), (8, ()), (-20, {2, 7})):
            vals = arith.character_values(top, 300, removed)
            assert vals.dtype == np.int8
            assert vals.tolist() == [character_oracle(top, removed, n) for n in range(301)], top

    def test_character_sieve_matches_pointwise(self):
        for top, removed in ((-4, ()), (12, {2})):
            vals = arith.character_values(top, 500, removed)
            for n in range(1, 501):
                assert vals[n] == character_oracle(top, removed, n), n


# Entries that cross every word boundary of the signed 128-bit cache format.
EDGE_VALUES = [0, -1, 2**63 - 1, -(2**63), 2**63, 2**64, 2**127 - 1, -(2**127)]

# The version-1 file of CoefficientTable("pin", EDGE_VALUES): magic, version,
# label length and label, n_max, then (low word, high word) per entry.
EDGE_FILE_HEX = (
    "47564354" "0100" "0300" "70696e" "0700000000000000"
    "0000000000000000" "0000000000000000"
    "ffffffffffffffff" "ffffffffffffffff"
    "ffffffffffffff7f" "0000000000000000"
    "0000000000000080" "ffffffffffffffff"
    "0000000000000080" "0000000000000000"
    "0000000000000000" "0100000000000000"
    "ffffffffffffffff" "ffffffffffffff7f"
    "0000000000000000" "0000000000000080"
)


class TestCoefficientTable:
    def test_overflow_rejected(self):
        with pytest.raises(OverflowError):
            arith.CoefficientTable("too-big", [0, 1 << 127])

    def test_big_entries_survive(self):
        vals = [0, -(1 << 100), (1 << 100) + 12345]
        t = arith.CoefficientTable("wide", vals)
        assert t.tolist() == vals

    def test_empty_rejected_by_name(self):
        for values in ([], np.array([], dtype=np.int64)):
            with pytest.raises(ValueError, match="table 'nothing' is empty"):
                arith.CoefficientTable("nothing", values)

    def test_coverage_error(self):
        t = arith.r_d_table(2, 10)
        with pytest.raises(arith.TableCoverageError):
            t.require(11)

    def test_non_integer_entries_rejected(self):
        floats = ([0.5, 2.7], [1, 2.0], np.array([0.5, 2.7]), np.array([1, 2.5], dtype=object))
        for values in floats:
            with pytest.raises(TypeError):
                arith.CoefficientTable("x", values)

    def test_unsigned_entries_keep_their_values(self):
        t = arith.CoefficientTable("u", np.array([2**64 - 1, 2**63, 7], dtype=np.uint64))
        assert t.tolist() == [2**64 - 1, 2**63, 7]
        assert t[1] == 2**63
        small = arith.CoefficientTable("u", np.array([2**63 - 1, 7], dtype=np.uint64))
        assert small.ints().tolist() == [2**63 - 1, 7]

    def test_object_array_accepted_and_downcast(self):
        t = arith.CoefficientTable("o", np.array([0, -3, 2**62], dtype=object))
        assert t.ints().dtype == np.int64
        assert t.tolist() == [0, -3, 2**62]
        wide = arith.CoefficientTable("o", np.array([0, 2**63], dtype=object))
        assert wide.tolist() == [0, 2**63]
        with pytest.raises(arith.TableOverflowError):
            wide.ints()

    def test_wide_floats_correctly_rounded(self):
        vals = EDGE_VALUES + [(1 << 100) + 12345, 3**70]
        t = arith.CoefficientTable("wide", vals)
        assert t.floats().tolist() == [float(v) for v in vals]


class TestCacheFile:
    def test_round_trip_small(self, tmp_path):
        table = arith.r_d_table(3, 1000)
        path = tmp_path / "r3.gvct"
        arith.write_table_cache(path, table)
        back = arith.read_table_cache(path)
        assert back == table

    def test_round_trip_wide_values(self, tmp_path):
        table = arith.CoefficientTable("wide", EDGE_VALUES + [-(1 << 90), 7, (1 << 126) - 1])
        path = tmp_path / "wide.gvct"
        arith.write_table_cache(path, table)
        assert arith.read_table_cache(path) == table

    def test_format_pinned(self, tmp_path):
        path = tmp_path / "pin.gvct"
        arith.write_table_cache(path, arith.CoefficientTable("pin", EDGE_VALUES))
        assert path.read_bytes().hex() == EDGE_FILE_HEX
        assert arith.read_table_cache(path).tolist() == EDGE_VALUES

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.gvct"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            arith.read_table_cache(path)

    def test_bad_version_rejected(self, tmp_path):
        table = arith.r_d_table(1, 4)
        path = tmp_path / "v.gvct"
        arith.write_table_cache(path, table)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            arith.read_table_cache(path)

    @pytest.mark.parametrize("n_max", [None, 3])
    @pytest.mark.parametrize("damage", ["truncated", "trailing", "cut in header"])
    def test_wrong_body_length_rejected(self, tmp_path, damage, n_max):
        path = tmp_path / "r2.gvct"
        arith.write_table_cache(path, arith.r_d_table(2, 20))
        blob = path.read_bytes()
        damaged = {
            "truncated": blob[:-1],
            "trailing": blob + b"\x00",
            "cut in header": blob[:11],
        }[damage]
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            arith.read_table_cache(path, n_max)

    def test_prefix_read(self, tmp_path):
        table = arith.r_d_table(3, 100)
        path = tmp_path / "r3.gvct"
        arith.write_table_cache(path, table)
        for n in (0, 1, 37, 100):
            assert arith.read_table_cache(path, n) == arith.CoefficientTable("r_3", table.values[: n + 1])

    def test_prefix_past_stored_table_rejected(self, tmp_path):
        path = tmp_path / "r3.gvct"
        arith.write_table_cache(path, arith.r_d_table(3, 100))
        with pytest.raises(ValueError, match="n <= 100"):
            arith.read_table_cache(path, 101)

    def test_wide_table_prefix_comes_back_int64(self, tmp_path):
        values = [3, -(1 << 62), (1 << 63) - 1, 1 << 100, -7]
        table = arith.CoefficientTable("wide", values)
        assert table.values.shape == (5, 2) and table.values.dtype == np.int64  # (low, high) words
        path = tmp_path / "wide.gvct"
        arith.write_table_cache(path, table)
        prefix = arith.read_table_cache(path, 2)
        assert prefix == arith.CoefficientTable("wide", values[:3])
        assert prefix.values.shape == (3,) and prefix.values.dtype == np.int64
        assert arith.read_table_cache(path, 3).values.shape == (4, 2)


    def test_streams_one_copy_plus_one_block(self, tmp_path):
        n = 10**6
        values = np.arange(n, dtype=np.int64) * 9_000_000_000_000 - 4 * 10**18
        table = arith.CoefficientTable("big", values)
        bound = 1.25 * 8 * n + 16 * arith._BLOCK
        path = tmp_path / "big.gvct"
        tracemalloc.start()
        try:
            arith.write_table_cache(path, table)
            _, wrote = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            back = arith.read_table_cache(path)
            _, read = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back == table
        assert wrote <= bound and read <= bound, (wrote, read)


class TestWideConvolutionPath:
    def test_high_dimension_exact_beyond_int64(self):
        # d = 24 drives entries past int64; the FFT products must run mod
        # enough 31-bit primes, join them by Garner's CRT into Python ints
        # (dtype object) and still satisfy r_24 = r_12 * r_12
        t = arith.r_d_table(24, 120)
        assert t[120] > 2**63
        half = arith.r_d_table(12, 120).tolist()
        conv = [sum(half[j] * half[n - j] for j in range(n + 1)) for n in range(121)]
        assert conv == t.tolist()


def stored(values, layout):
    """``values`` as a table stores them: int32 or int64 entries, or the
    cache body's (low, high) int64 words."""
    if layout != "words":
        return np.array(values, dtype=layout)
    low = np.array([v & (2**64 - 1) for v in values], dtype=np.uint64).view(np.int64)
    return np.stack((low, np.array([v >> 64 for v in values], dtype=np.int64)), axis=1)


def certified(values, count, layout):
    """Whether no sum of ``count`` of the entries can pass 2^62."""
    return layout != "words" and count * max(map(abs, values), default=0) <= 2**62


FOLDS = {
    "empty": [],
    "small": [1, -2, 3, 0, 2**31 - 1, -(2**31)],
    # with blocks of 3 the carry is 3 * 2^60 < 2^62 after one block and
    # 6 * 2^60 >= 2^62 after two, and the sums pass 2^63
    "carry past 2^62": [2**60] * 9,
    # the carry reaches 2^62 and comes back below it
    "carry back": [2**61, 2**61, -(2**61), -(2**61), 1, 1, 2, 3],
    "int64 edges": [2**63 - 1, -(2**63), 5, -(2**63), 2**63 - 1, -7],
    "past 2^127": [2**127 - 1] * 4 + [-(2**127)] * 3,
}


def layouts(values):
    if any(abs(v) >= 2**63 for v in values):
        return ["words"]
    return ["int64", "words"] + (["int32"] if all(abs(v) < 2**31 for v in values) else [])


class TestExactFolds:
    @pytest.mark.parametrize("layout, name", [(lay, n) for n, v in FOLDS.items() for lay in layouts(v)])
    @pytest.mark.parametrize("block", [1, 2, 3, arith._BLOCK])
    def test_prefix_blocks_are_the_exact_running_sums(self, monkeypatch, name, layout, block):
        values = FOLDS[name]
        monkeypatch.setattr(arith, "_BLOCK", block)
        pairs = list(arith.prefix_blocks(stored(values, layout)))
        assert [s for s, _ in pairs] == list(range(0, len(values), block))
        assert [v for _, sums in pairs for v in sums.tolist()] == list(itertools.accumulate(values))
        carry = 0
        for s, sums in pairs:
            part = values[s : s + block]
            int64 = abs(carry) < 2**62 and certified(part, len(part), layout)
            assert sums.dtype == (np.int64 if int64 else object), s
            carry += sum(part)

    @pytest.mark.parametrize("layout, name", [(lay, n) for n, v in FOLDS.items() for lay in layouts(v)])
    @pytest.mark.parametrize("count", [1, 2, 4, 2**40])
    def test_exact_ints_is_int64_exactly_when_certified(self, name, layout, count):
        values = FOLDS[name]
        got = arith.exact_ints(stored(values, layout), count)
        assert got.tolist() == values
        assert got.dtype == (np.int64 if certified(values, count, layout) else object)
        if got.dtype == object:
            assert {type(v) for v in got.tolist()} <= {int}

    def test_the_bound_is_2_62(self):
        # 2^63 - 1 and -2^63 pass 2^62, so not even one of them is certified
        assert arith.exact_ints(stored([2**62, -(2**62)], "int64"), 1).dtype == np.int64
        assert arith.exact_ints(stored([2**62 + 1], "int64"), 1).dtype == object
        assert arith.exact_ints(stored([-(2**63)], "int64"), 1).tolist() == [-(2**63)]


class TestPairwiseSum:
    # 128 floats is numpy's own leaf, the least leaf size allowed
    @pytest.mark.parametrize("leaf", [128, arith._BLOCK])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize(
        "m", [1, 7, 8, 127, 128, 129, "leaf-1", "leaf", "leaf+1", 20_001, 216_341, 1 << 20]
    )
    def test_leaves_give_np_sum(self, m, dtype, leaf):
        if isinstance(m, str):
            m = leaf + {"leaf-1": -1, "leaf": 0, "leaf+1": 1}[m]
        # magnitudes spanning 12 decades, so the rounding depends on the order
        rng = np.random.default_rng(m)
        x = rng.standard_normal(m) * 10.0 ** rng.integers(-6, 7, m)
        floats = 1
        if dtype == np.complex128:
            x, floats = x + 1j * rng.standard_normal(m), 2
        assert arith._pairwise_sum(lambda i, j: np.sum(x[i:j]), 0, m, leaf, floats) == np.sum(x)

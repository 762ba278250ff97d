"""The exact sparse power: small cases, input checks, int64 edges and the rounding guard."""

import random
import tracemalloc

import numpy as np
import pytest

from gaussvariants import arith, cuspform, powers


class TestSparsePower:
    def test_binomial_powers_truncated(self):
        out = powers.sparse_power([0, 1], [1, 1], 5, 3)
        assert out.dtype == np.int64
        assert out.tolist() == [1, 5, 10, 10]

    def test_first_power_and_exponents_past_n_max(self):
        assert powers.sparse_power([1, 3, 9], [4, -5, 7], 1, 4).tolist() == [0, 4, 0, -5, 0]
        assert powers.sparse_power([2, 5], [3, 1], 3, 0).tolist() == [0]

    def test_rejects_unsorted_or_negative_exponents(self):
        with pytest.raises(ValueError):
            powers.sparse_power([0, 2, 1], [1, 1, 1], 2, 5)
        with pytest.raises(ValueError):
            powers.sparse_power([-1, 2], [1, 1], 2, 5)
        with pytest.raises(ValueError):
            powers.sparse_power([0, 1], [1, 1], 0, 5)

    @pytest.mark.parametrize(
        "exps, coeffs, k, n_max",
        [
            ([0, 1, 2], [-(2**63), 2**63 - 1, -(2**63)], 2, 4),  # square
            ([0, 1], [2**63 - 1, -(2**63)], 3, 5),  # cube
            ([0, 9, 40], [2**63 - 1, 3, -(2**63)], 2, 60),  # sparse square, sum |c|^2 >= 2^53
        ],
    )
    def test_int64_edge_coefficients_match_naive_convolution(self, exps, coeffs, k, n_max):
        # cutting a limb off 2^63 - 1 or -2^63 must not wrap int64
        base = np.zeros(n_max + 1, dtype=object)
        base[exps] = coeffs
        want = base
        for _ in range(k - 1):
            want = np.convolve(want, base)[: n_max + 1]
        out = powers.sparse_power(exps, coeffs, k, n_max)
        assert arith._exact_list(out) == want.tolist()
        # int64 entries, or the fewest int64 words, low first, that hold each:
        # (low, high) pairs, as in the cache body, up to 128 bits
        words = min(w for w in range(1, 9) if all(-(2 ** (64 * w - 1)) <= v < 2 ** (64 * w - 1) for v in want))
        assert out.dtype == np.int64 and out.shape == (n_max + 1,) + ((words,) if words > 1 else ())

    def test_product_reaching_its_bound_fills_the_top_digit_row(self):
        # (C + C q + C q^2 + C q^3)^2 has 4 C^2 at q^3, the bound
        # a_max * b_max * nnz itself: the top digit row is nonzero, so a
        # diagonal cutoff one limb short must show
        c = 2**40 + 1
        base = np.full(4, c, dtype=np.int64)
        rows = powers._product(base, base, 3)
        assert rows.ndim == 2 and rows[-1].any()
        out = powers.sparse_power([0, 1, 2, 3], [c] * 4, 2, 3)
        assert out.dtype == np.int64 and out.shape == (4, 2)
        assert arith._exact_list(out) == [c * c, 2 * c * c, 3 * c * c, 4 * c * c]

    def test_random_wide_products_match_exact_convolution(self):
        # 20-63-bit coefficients give products past int64, which come back
        # as digit rows; a digit path that stops its diagonals short of the
        # product's bound drops the top of some of them
        def coefficients(n):
            return [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(20, 63)) for _ in range(n)]

        rng = random.Random(13)
        wide = 0
        for trial in range(1000):
            n = rng.randint(1, 12)
            a = coefficients(n)
            b = a if trial % 2 else coefficients(n)  # odd trials take the square path
            a_arr = np.array(a, dtype=np.int64)
            got = powers._product(a_arr, a_arr if b is a else np.array(b, dtype=np.int64), n - 1)
            if got.ndim == 2:
                wide += 1
                got = [sum(int(row[i]) << powers._DIGIT_BITS * j for j, row in enumerate(got)) for i in range(n)]
            else:
                got = got.tolist()
            assert got == [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)], trial
        assert wide > 900

    def test_product_reads_only_the_entries_that_reach_n_max(self):
        # an operand longer than n_max + 1 entries once wrapped around the
        # transform onto the low entries, which no rounding check sees:
        # (1 + 2q + ... + 10q^9)^2 to q^3 came out as 148, 168, 180, 184
        a = np.arange(1, 11, dtype=np.int64)
        assert powers._product(a, a, 3).tolist() == [1, 4, 10, 20]
        b = np.arange(30, 0, -3, dtype=np.int64)
        assert powers._product(a, b, 3).tolist() == np.convolve(a, b)[:4].tolist()
        wide = [x << 60 for x in range(1, 11)]  # digit rows, and a result past int64
        rows = powers._product(balanced_digit_rows(wide, 9), a, 2)
        assert value_of(rows) == [sum(wide[i] * (k - i + 1) for i in range(k + 1)) for k in range(3)]

    def test_margin_check_refuses_a_quarter(self):
        assert powers._rint_checked(np.array([3.2, -1.9, 0.0])).tolist() == [3, -2, 0]
        with pytest.raises(arith.RoundingMarginError):
            powers._rint_checked(np.array([3.0, -2.25]))
        with pytest.raises(arith.RoundingMarginError):
            powers._rint_checked(np.array([2.0**52]))  # no fraction can show
        with pytest.raises(arith.RoundingMarginError):
            powers._rint_checked(np.array([np.nan]))

    def test_rounding_guard_refuses_a_float_product_past_2_53(self, monkeypatch):
        # With the diagonal bound lifted, every limb is as wide as it can be
        # and products wider than 2^53 take one float64 FFT; the margin
        # check must raise, not round.
        monkeypatch.setattr(powers, "_DIAGONAL_BOUND", 1 << 200)
        with pytest.raises(arith.RoundingMarginError):
            powers.sparse_power([0, 1, 2], [2**30 + 1, 3 - 2**29, 2**30 - 7], 3, 20)
        with pytest.raises(arith.RoundingMarginError):
            cuspform.tau_table(3000)  # tau(n) passes 2^53 below n = 3000


def balanced_digit_rows(values, count):
    """values as count int8 rows of balanced 8-bit digits, low first."""
    rows = np.zeros((count, len(values)), dtype=np.int8)
    for i, v in enumerate(values):
        for j in range(count):
            rows[j, i] = d = (v + 128) % 256 - 128
            v = (v - d) >> 8
        assert v == 0
    return rows


def value_of(x):
    """int64 x or digit rows x as Python ints."""
    if x.ndim == 1:
        return x.tolist()
    return [sum(int(row[i]) << powers._DIGIT_BITS * j for j, row in enumerate(x)) for i in range(x.shape[1])]


def random_operand(rng, n, digits):
    """(values, operand): n random entries of 3 to 100 bits, some 0 and some
    at int64's own edges, as int64 or, with ``digits`` true or past int64,
    as balanced digit rows with up to two spare rows."""
    bits = rng.choice([3, 24, 40, 62, 63, 100])
    values = [rng.choice((-1, 1)) * rng.getrandbits(bits) if rng.random() < 0.8 else 0 for _ in range(n)]
    if bits == 63 and rng.random() < 0.5:  # int64's own edges, where a limb cut may wrap
        values[rng.randrange(n)] = rng.choice([-(2**63), 2**63 - 1])
    if bits <= 63 and not digits:
        return values, np.array(values, dtype=np.int64)
    count = powers._limb_count(max(map(abs, values)), powers._DIGIT_BITS) + rng.randint(0, 2)
    return values, balanced_digit_rows(values, count)


class TestSplitSquare:
    @staticmethod
    def kinds(rng, n):
        """(kind, n_max): a truncated result of n entries, a full one that
        reaches past the operands' 2n - 1, or one shorter than the operands."""
        kind = rng.randrange(3)
        return kind, (n - 1, rng.randint(n, 2 * n + 1), rng.randint(0, n - 2))[kind]

    def test_split_squares_match_exact_convolution(self, monkeypatch):
        # sum_i a_i^2 q^(2iw) + 2 sum_(i<j) a_i a_j q^((i+j)w), cut into 2, 3,
        # 5 or 8 blocks: dropping a pair, or adding a mirror pair once, leaves
        # a wrong value at some q^k, k >= w
        monkeypatch.setattr(powers, "_SPLIT_LENGTH", 2)
        rng = random.Random(23)
        seen, uneven = set(), 0
        for trial in range(640):
            blocks = (2, 3, 5, 8)[trial % 4]
            monkeypatch.setattr(powers, "_SPLIT_BLOCKS", blocks)
            n = rng.randint(2, 17)
            kind, n_max = self.kinds(rng, n)
            values, a = random_operand(rng, n, rng.random() < 1 / 3)
            got = powers._multiply(a, a, n_max)
            terms = [range(max(0, k - n + 1), min(k, n - 1) + 1) for k in range(n_max + 1)]
            assert value_of(got) == [sum(values[i] * values[k - i] for i in r) for k, r in enumerate(terms)], trial
            whole = powers._product(a, a, n_max)  # the same dtype, shape and bits
            assert got.dtype == whole.dtype and np.array_equal(got, whole), trial
            seen.add((blocks, kind, a.ndim, got.ndim))
            uneven += min(n, n_max + 1) % -(-min(n, n_max + 1) // blocks) != 0
        assert seen == {(blocks, kind, a, b) for blocks in (2, 3, 5, 8) for kind in range(3) for a in (1, 2) for b in (1, 2)}
        assert uneven > 100

    def test_split_products_match_exact_convolution(self, monkeypatch):
        # sum_(i,j) a_i b_j q^((i+j)w), for int64 operands and digit rows in any mix
        monkeypatch.setattr(powers, "_SPLIT_LENGTH", 2)
        rng = random.Random(29)
        seen = set()
        for trial in range(960):
            blocks = (2, 3, 5, 8)[trial % 4]
            monkeypatch.setattr(powers, "_SPLIT_BLOCKS", blocks)
            n = rng.randint(2, 12)
            kind, n_max = self.kinds(rng, n)
            (a_values, a), (b_values, b) = (random_operand(rng, n, rng.random() < 1 / 2) for _ in "ab")
            got = powers._multiply(a, b, n_max)
            terms = [range(max(0, k - n + 1), min(k, n - 1) + 1) for k in range(n_max + 1)]
            assert value_of(got) == [sum(a_values[i] * b_values[k - i] for i in r) for k, r in enumerate(terms)], trial
            whole = powers._product(a, b, n_max)
            assert got.dtype == whole.dtype and np.array_equal(got, whole), trial
            seen.add((blocks, kind, a.ndim, b.ndim, got.ndim))
        assert seen == {
            (blocks, kind, a, b, c) for blocks in (2, 3, 5, 8) for kind in range(3) for a in (1, 2) for b in (1, 2) for c in (1, 2)
        }

    def test_squares_split_from_the_split_length(self, monkeypatch):
        calls = []
        real = powers._product
        monkeypatch.setattr(
            powers, "_product", lambda a, b, n_max: calls.append((a.shape[-1], b.shape[-1], n_max, b is a)) or real(a, b, n_max)
        )
        monkeypatch.setattr(powers, "_SPLIT_LENGTH", 10)
        monkeypatch.setattr(powers, "_SPLIT_BLOCKS", 3)
        a = np.arange(1, 10, dtype=np.int64)
        assert powers._multiply(a, a, 8).tolist() == np.convolve(a, a)[:9].tolist()
        assert calls == [(9, 9, 8, True)]
        # ten entries are three blocks of 4, 4 and 2 at q^0, q^4 and q^8; the
        # pairs are taken row by row, each as far as it reaches q^9 and no
        # further than its own full length, and a square skips the mirror pairs
        a = np.arange(1, 11, dtype=np.int64)
        calls.clear()
        assert powers._multiply(a, a, 9).tolist() == np.convolve(a, a)[:10].tolist()
        assert calls == [(4, 4, 6, True), (4, 4, 5, False), (4, 2, 1, False), (4, 4, 1, True)]
        b = np.arange(20, 10, -1, dtype=np.int64)
        calls.clear()
        assert powers._multiply(a, b, 9).tolist() == np.convolve(a, b)[:10].tolist()
        assert [c[:3] for c in calls] == [(4, 4, 6), (4, 4, 5), (4, 2, 1), (4, 4, 5), (4, 4, 1), (2, 4, 1)]

    def test_tau_build_transforms_are_two_blocks_long(self, monkeypatch):
        # tau(164000) squares series of 164001 entries: whole, its longest
        # transform has 164025 points; in eight blocks of 20501, 41472
        lengths = []
        real = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda x, n=None: lengths.append(n) or real(x, n))
        cuspform.tau_table(164000)
        assert 0 < max(lengths) <= powers._SPLIT_LENGTH // 2, max(lengths)

    def test_tau_build_holds_one_block_product_at_a_time(self):
        # measured peaks: 15.9 MB with whole squares, 11.3 MB and 8.4-8.6 MB
        # for Karatsuba splits two and three levels deep, and 8.25 MB in
        # blocks of an eighth, each block product added into the result as
        # it is made; the bound leaves 0.9 MB for other numpy builds
        tracemalloc.start()
        try:
            cuspform.tau_table(164000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9.2e6, peak

    def test_tau_table_is_the_same_with_and_without_the_split(self, monkeypatch):
        # tau to 140001 squares series of 140001 entries, which split
        assert powers._SPLIT_LENGTH <= 140001
        split = cuspform.tau_table(140001)
        monkeypatch.setattr(powers, "_SPLIT_LENGTH", 1 << 18)
        whole = cuspform.tau_table(140001)
        assert split.values.shape == whole.values.shape == (140002, 2)
        assert split == whole

    def test_split_r_d_tables_match_unsplit_ones_and_divisor_sums(self, monkeypatch):
        # every square and every odd-power product by theta to 20000 splits
        # once the split length is 2^10; r_4 and r_8 are also the divisor
        # sums 8 sigma(n) - 32 sigma(n/4) and 16 sum_(delta | n) (-1)^(n + delta) delta^3
        n_max = 20000
        whole = {d: arith.r_d_table(d, n_max) for d in range(3, 9)}
        lengths = []
        real = powers._product
        monkeypatch.setattr(powers, "_product", lambda a, b, m: lengths.append(max(a.shape[-1], b.shape[-1])) or real(a, b, m))
        monkeypatch.setattr(powers, "_SPLIT_LENGTH", 1 << 10)
        for d in range(3, 9):
            split = arith.r_d_table(d, n_max)
            assert split.values.dtype == whole[d].values.dtype and np.array_equal(split.values, whole[d].values), d
        assert max(lengths) == 2501  # an eighth of 20001
        sigma = np.zeros(n_max + 1, dtype=np.int64)
        cubes = np.zeros(n_max + 1, dtype=np.int64)
        for delta in range(1, n_max + 1):
            n = np.arange(delta, n_max + 1, delta)
            sigma[n] += delta
            cubes[n] += np.where((n + delta) % 2, -(delta**3), delta**3)
        r4, r8 = 8 * sigma, 16 * cubes
        r4[4::4] -= 32 * sigma[1 : n_max // 4 + 1]
        r4[0] = r8[0] = 1
        assert np.array_equal(split.values, r8)
        assert np.array_equal(arith.r_d_table(4, n_max).values, r4)


class TestWords:
    def test_words_hold_each_entry_after_the_lead(self):
        # the fewest int64 words that hold every entry, low first, after
        # ``lead`` zero entries, whatever spare rows the digits carry
        rng = random.Random(31)
        for trial in range(480):
            n, count, lead = rng.randint(1, 30), rng.randint(1, 20), rng.randint(0, 2)
            top = 8 * count - 2
            values = [rng.randrange(-(2**top), 2**top) >> rng.randint(0, top) for _ in range(n)]
            words = powers._to_words(balanced_digit_rows(values, count), lead)
            assert arith._exact_list(words) == [0] * lead + values, trial
            fewest = min(w for w in range(1, 9) if all(-(2 ** (64 * w - 1)) <= v < 2 ** (64 * w - 1) for v in values))
            assert words.dtype == np.int64 and words.shape == (lead + n,) + ((fewest,) if fewest > 1 else ()), trial

    def test_words_are_made_one_block_at_a_time(self):
        # tau(164000) has 15 digit rows; the words were once made from
        # whole-length temporaries, 8.0 MB for 2.6 MB of words; now one
        # block's temporaries and the bound's pass take about 0.46 MB
        rows = np.random.default_rng(5).integers(-128, 128, size=(15, 164000), dtype=np.int8)
        tracemalloc.start()
        try:
            words = powers._to_words(rows, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert words.shape == (164001, 2)
        assert peak < words.nbytes + 0.7e6, peak

    def test_tau_table_does_not_copy_the_power(self, monkeypatch):
        # the words are made after tau's zero entry, not copied behind it
        monkeypatch.setattr(np, "concatenate", lambda *a, **k: pytest.fail("the power was copied"))
        table = cuspform.tau_table(3000)
        assert table.values.shape == (3001, 2)
        assert table[:5] == [0, 1, -24, 252, -1472]

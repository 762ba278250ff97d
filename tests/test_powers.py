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


class TestSplitSquare:
    def test_split_squares_match_exact_convolution(self, monkeypatch):
        # a0^2 + q^h ((a0 + a1)^2 - a0^2 - a1^2) + q^2h a1^2, one and two
        # levels deep: dropping any term leaves a wrong value at some q^k,
        # k >= h.  A full square (fewer than n_max + 1 entries) needs the
        # last term; a truncated one does not reach it
        monkeypatch.setattr(powers, "_SPLIT_LENGTH", 2)
        rng = random.Random(23)
        seen = set()
        for trial in range(400):
            levels = 1 + trial % 2
            monkeypatch.setattr(powers, "_SPLIT_LEVELS", levels)
            n = rng.randint(2, 17)  # odd and even lengths
            n_max = n - 1 if trial % 4 < 2 else rng.randint(n, 2 * n + 1)
            bits = rng.choice([3, 24, 40, 62, 63, 100])
            values = [rng.choice((-1, 1)) * rng.getrandbits(bits) if rng.random() < 0.8 else 0 for _ in range(n)]
            if bits == 63 and rng.random() < 0.5:  # int64's own edges, where a0 + a1 leaves int64
                values[rng.randrange(n)] = rng.choice([-(2**63), 2**63 - 1])
            if bits <= 63 and trial % 3:
                a = np.array(values, dtype=np.int64)
            else:
                count = powers._limb_count(max(map(abs, values)), powers._DIGIT_BITS) + rng.randint(0, 2)
                a = balanced_digit_rows(values, count)
            got = powers._square(a, n_max)
            terms = [range(max(0, k - n + 1), min(k, n - 1) + 1) for k in range(n_max + 1)]
            assert value_of(got) == [sum(values[i] * values[k - i] for i in r) for k, r in enumerate(terms)], trial
            whole = powers._product(a, a, n_max)  # the same dtype, shape and bits
            assert got.dtype == whole.dtype and np.array_equal(got, whole), trial
            seen.add((levels, n_max >= n, a.ndim, got.ndim))
        assert seen == {(levels, full, a, b) for levels in (1, 2) for full in (0, 1) for a in (1, 2) for b in (1, 2)}

    def test_squares_split_from_the_split_length(self, monkeypatch):
        calls = []
        real = powers._product
        monkeypatch.setattr(powers, "_product", lambda a, b, n_max: calls.append(a.shape[-1]) or real(a, b, n_max))
        monkeypatch.setattr(powers, "_SPLIT_LENGTH", 10)
        a = np.arange(1, 10, dtype=np.int64)
        assert powers._square(a, 8).tolist() == np.convolve(a, a)[:9].tolist()
        assert calls == [9]
        a = np.arange(1, 11, dtype=np.int64)
        assert powers._square(a, 9).tolist() == np.convolve(a, a)[:10].tolist()
        # a0^2 (a full square of 5 entries), (a0 + a1)^2 and a1^2 (truncated,
        # 5 entries each), each split once more into three of 2 or 3 entries
        assert calls == [9, 3, 3, 2, 3, 2, 2, 3, 2, 2]

    def test_tau_build_makes_no_transform_longer_than_the_split_length(self, monkeypatch):
        # tau(164000) squares series of 164000 entries: one level deep its
        # longest transform has 164025 points, two levels deep 82944
        lengths = []
        real = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda x, n=None: lengths.append(n) or real(x, n))
        cuspform.tau_table(164000)
        assert 0 < max(lengths) <= powers._SPLIT_LENGTH, max(lengths)

    def test_tau_build_holds_one_square_per_level(self):
        # measured peaks: 15.9 MB one level deep, 11.3 MB two levels deep
        # with each square folded into its level's result as it is made
        tracemalloc.start()
        try:
            cuspform.tau_table(164000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 13e6, peak

    def test_tau_table_is_the_same_with_and_without_the_split(self, monkeypatch):
        # tau to 140001 squares series of 140001 entries, which split
        assert powers._SPLIT_LENGTH <= 140001
        split = cuspform.tau_table(140001)
        monkeypatch.setattr(powers, "_SPLIT_LENGTH", 1 << 18)
        whole = cuspform.tau_table(140001)
        assert split.values.shape == whole.values.shape == (140002, 2)
        assert split == whole

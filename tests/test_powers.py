"""The exact sparse power: small cases, input checks, primes and the rounding guard."""

import math

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

    def test_fft_primes_are_distinct_primes_below_2_31(self):
        primes = powers._fft_primes(2**400)
        assert math.prod(primes) > 2**400
        assert len(set(primes)) == len(primes)
        for p in primes:
            assert p < 2**31
            assert all(p % q for q in range(2, math.isqrt(p) + 1))

    def test_margin_check_refuses_a_quarter(self):
        assert powers._rint_checked(np.array([3.2, -1.9, 0.0])).tolist() == [3, -2, 0]
        with pytest.raises(arith.RoundingMarginError):
            powers._rint_checked(np.array([3.0, -2.25]))
        with pytest.raises(arith.RoundingMarginError):
            powers._rint_checked(np.array([2.0**52]))  # no fraction can show
        with pytest.raises(arith.RoundingMarginError):
            powers._rint_checked(np.array([np.nan]))

    def test_rounding_guard_refuses_a_float_product_past_2_53(self, monkeypatch):
        # With the direct-float threshold lifted, products wider than 2^53
        # take one float64 FFT; the margin check must raise, not round.
        monkeypatch.setattr(powers, "_DIRECT_BOUND", 1 << 200)
        with pytest.raises(arith.RoundingMarginError):
            powers.sparse_power([0, 1, 2], [2**30 + 1, 3 - 2**29, 2**30 - 7], 3, 20)
        with pytest.raises(arith.RoundingMarginError):
            cuspform.tau_table(3000)  # tau(n) passes 2^53 below n = 3000

"""Gauss-sum lemmas: multiplicativity, prime evaluation, vanishing,
the two-piece decomposition, and the L-factorization."""

import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from gaussvariants import arith, charsums, checks

TOL = 1e-9


class TestGaussSumG:
    def test_h0_unit_sum(self):
        # two-term sum over units mod 4: eps_1 + eps_3 = 1 + i
        assert charsums.gauss_sum_g(0, 4, 0.5) == pytest.approx(1 + 1j, abs=1e-12)

    def test_two_piece_cross_check_small(self):
        g = charsums.gauss_sum_g(1, 4, 0.5)
        assert abs(g - charsums.two_piece_product(1, 4, 0.5)) < 1e-12

    def test_triangle_bound(self):
        for h in (0, 1, 2, 5):
            for c in (1, 2, 3, 7, 12):
                for k in (0.5, 1.5, 1, 2):
                    assert abs(charsums.gauss_sum_g(h, 4 * c, k)) <= 4 * c + 1e-9

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            charsums.gauss_sum_g(1, 6, 0.5)


class TestGaussSumH:
    def test_explicit_three(self):
        assert charsums.gauss_sum_H(1, 3) == pytest.approx(-math.sqrt(3), abs=TOL)

    def test_prime_square_vanishes(self):
        assert abs(charsums.gauss_sum_H(1, 9)) < TOL

    def test_identity_modulus(self):
        assert charsums.gauss_sum_H(1, 1) == 1

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            charsums.gauss_sum_H(1, 6)

    def test_multiplicative(self):
        for p in checks.h_multiplicative():
            assert p.bound == TOL and p.residual < p.bound, p.params

    def test_prime_evaluation(self):
        for p in checks.h_prime_eval():
            assert p.bound == TOL and p.residual < p.bound, p.params

    def test_vanishing_at_unsaturated_prime_powers(self):
        # H_h(p^j) = 0 whenever p^{j-1} does not divide h, j >= 2
        for p in checks.h_vanishing():
            assert p.bound == TOL and p.residual < p.bound, p.params


class TestD2Sum:
    def test_vanishing_examples(self):
        assert abs(charsums.d2_sum(1, 5, 0.5)) < TOL  # v2(1)=0, alpha >= 4
        assert abs(charsums.d2_sum(4, 7, 0.5)) < TOL  # v2(4)=2, alpha >= 6

    def test_alpha2_two_terms(self):
        assert charsums.d2_sum(1, 2, 0.5) == pytest.approx(1 + 1j, abs=1e-12)

    def test_vanishing_threshold_safe_side(self):
        for h in range(1, 65):
            v2 = 0
            m = h
            while m % 2 == 0:
                m //= 2
                v2 += 1
            for k in (0.5, 1.5, 2.5):
                for alpha in range(v2 + 4, v2 + 7):
                    assert abs(charsums.d2_sum(h, alpha, k)) < TOL, (h, alpha, k)

    def test_is_g_at_a_power_of_two(self):
        for h in range(-3, 21):
            for alpha in range(2, 9):
                for k in (0.5, 1.5, 2.5):
                    assert charsums.d2_sum(h, alpha, k) == charsums.gauss_sum_g(h, 2**alpha, k)

    def test_rejects_integer_weight(self):
        with pytest.raises(ValueError):
            charsums.d2_sum(1, 3, 1)

    def test_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            charsums.d2_sum(1, 1, 0.5)


class TestReductionCheck:
    def test_nondivisor_collapses_to_zero(self):
        assert charsums.reduction_residuals((3,), 2, (1,))[0][0] < TOL

    def test_divisor_even_weight(self):
        assert charsums.reduction_residuals((4,), 2, (2,))[0][0] < TOL

    def test_divisor_odd_weight(self):
        assert charsums.reduction_residuals((1,), 1, (1,))[0][0] < TOL

    def test_grid(self):
        for p in checks.reduction():
            assert p.bound == TOL * (4 * p.params[1]) and p.residual < p.bound, p.params

    @pytest.mark.parametrize("c", [1, 4, 6, 7, 50])
    def test_rows_are_the_single_residuals(self, c):
        hs, ks = range(1, 21), (1, 2)
        rows = charsums.reduction_residuals(hs, c, ks)
        # the residual is |g_h(4c) - closed form| with g_h(4c) from gauss_sum_g
        for k, row in zip(ks, rows):
            for h, res in zip(hs, row):
                closed = 0j
                if h % c == 0:
                    closed = c * (
                        cmath.exp(1j * math.pi * h / (2 * c))
                        + (-1) ** k * cmath.exp(3j * math.pi * h / (2 * c))
                    )
                assert res == abs(charsums.gauss_sum_g(h, 4 * c, k) - closed), (h, k)


class TestTwoPiece:
    @pytest.mark.parametrize("k", [0.5, 1.5])
    def test_decomposition_grid(self, k):
        points = [p for p in checks.two_piece() if p.params[2] == k]
        assert len(points) == 8 * 30
        for p in points:
            assert p.bound == TOL and p.residual < p.bound, p.params


class TestDtilde:
    def test_h1_is_two_adic_only(self):
        w = 1.3 + 0.2j
        expected = sum(
            2.0 ** (-2 * a * w) * charsums.d2_sum(1, a, 0.5) for a in (2, 3)
        )
        assert charsums.dtilde_half(1, w, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_h9_local_factor_depth(self):
        # p = 3 divides h = 9 with vp = 2; the local factor runs j <= 3
        w = 1.1
        val = charsums.dtilde_half(9, w, 0.5)
        mu = -1  # (-1)^(k + 1/2) at k = 1/2
        two_adic = sum(
            2.0 ** (-2 * a * w) * charsums.d2_sum(9, a, 0.5) for a in (2, 3)
        )
        local = sum(
            arith.kronecker(mu, 3) ** j
            * charsums.gauss_sum_H(9, 3**j)
            * 3.0 ** (-2 * j * w)
            for j in range(0, 4)
        )
        assert val == pytest.approx(two_adic * local, abs=1e-12)

    @pytest.mark.parametrize("h", [1, 4, 9, 12, 18])
    def test_extended_truncation_changes_nothing(self, h):
        w = 1.4
        k = 0.5
        base = charsums.dtilde_half(h, w, k)
        v2 = 0
        m = h
        while m % 2 == 0:
            m //= 2
            v2 += 1
        extended_two_adic = sum(
            2.0 ** (-2 * a * w) * charsums.d2_sum(h, a, k) for a in range(2, v2 + 6)
        )
        mu = -1
        extended = extended_two_adic
        for p, vp in arith.factorize(m) if m > 1 else []:
            local = sum(
                arith.kronecker(mu, p) ** j
                * charsums.gauss_sum_H(h, p**j)
                * float(p) ** (-2 * j * w)
                for j in range(0, vp + 4)
            )
            extended *= local
        assert base == pytest.approx(extended, abs=1e-10)


class TestFactorization:
    @pytest.mark.parametrize(
        "h,k,w,n", [(1, 0.5, 2.0, 2000), (4, 0.5, 2.0, 2000), (1, 1.5, 1.75, 5000)]
    )
    def test_examples(self, h, k, w, n):
        g = charsums.gauss_sum_g_series((h,), (k,), n)[0, 0]
        residual, bound = charsums.factorization_check(g, h, w, k)
        assert residual <= bound

    def test_rejects_outside_convergence(self):
        g = charsums.gauss_sum_g_series((1,), (0.5,), 100)[0, 0]
        with pytest.raises(ValueError):
            charsums.factorization_check(g, 1, 0.6, 0.5)

    def test_rejects_an_empty_row(self):
        with pytest.raises(ValueError):
            charsums.factorization_check(np.zeros(0, dtype=complex), 1, 2.0, 0.5)


class TestBatchedSeries:
    @pytest.mark.parametrize("k", [0.5, 1.5, 1, 2])
    def test_rows_are_the_single_sums(self, k):
        hs = tuple(range(1, 10))
        rows = charsums.gauss_sum_g_series(hs, (k,), 300)
        assert rows.shape == (1, 9, 300)
        for h, row in zip(hs, rows[0]):
            assert row.tolist() == [charsums.gauss_sum_g(h, 4 * c, k) for c in range(1, 301)]

    @pytest.mark.parametrize("ks", [(0.5, 1.5), (1, 2), (1.5, 2, 0.5)])
    def test_weights_in_one_pass_are_the_single_sums(self, ks):
        hs = (1, 2, 3, 4, 9)
        rows = charsums.gauss_sum_g_series(hs, ks, 200)
        assert rows.shape == (len(ks), 5, 200)
        for k, by_h in zip(ks, rows):
            for h, row in zip(hs, by_h):
                assert row.tolist() == [charsums.gauss_sum_g(h, 4 * c, k) for c in range(1, 201)]

    def test_duplicate_hs_give_identical_rows(self):
        rows = charsums.gauss_sum_g_series((2, 5, 2), (0.5, 1.5), 40)
        assert rows.flags.c_contiguous
        for by_h in rows:
            assert by_h[0].tolist() == by_h[2].tolist()
            assert by_h[0].tolist() != by_h[1].tolist()

    def test_no_moduli_give_empty_rows(self):
        rows = charsums.gauss_sum_g_series((1, 2), (0.5,), 0)
        assert rows.shape == (1, 2, 0) and rows.dtype == complex

    def test_long_rows_do_not_depend_on_blas_threads(self):
        # 4c > 10^4: a single complex dot this long runs on OpenBLAS's own
        # threads, whose partial sums would move the low bits
        script = (
            "import numpy as np\n"
            "from gaussvariants import charsums\n"
            "rows = [[charsums.gauss_sum_g(h, 4 * c, k) for c in range(2501, 2511)]\n"
            "        for h in (1, 2, 3) for k in (0.5, 1.5, 2)]\n"
            "print(np.array(rows).view(np.uint64).tolist())\n"
        )
        src = os.path.dirname(os.path.dirname(charsums.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0] == outputs[1]


def direct_H(h, c):
    """Term-by-term reference: eps_c sum (d/c) e(hd/c), scalar arithmetic."""
    import cmath

    eps = 1 if c % 4 == 1 else 1j
    total = 0j
    for d in range(c):
        total += arith.kronecker(d, c) * cmath.exp(2j * math.pi * h * d / c)
    return eps * total


def direct_g(h, c4, k):
    import cmath

    two_k = int(round(2 * k))
    total = 0j
    for d in range(1, c4, 2):
        if two_k % 2:
            eps = (1 if d % 4 == 1 else 1j) ** two_k
            chi = arith.kronecker(c4, d)
        else:
            eps = 1
            chi = arith.kronecker(-4, d) ** (two_k // 2)
        total += eps * chi * cmath.exp(2j * math.pi * h * d / c4)
    return total


class TestDirectSummationOracle:
    def test_H_sample(self):
        for h, c in ((1, 3), (2, 9), (3, 35), (5, 49), (7, 121), (4, 225)):
            assert abs(charsums.gauss_sum_H(h, c) - direct_H(h, c)) < 1e-9, (h, c)

    def test_g_sample(self):
        for h in (1, 3, 8):
            for c in (1, 2, 6, 15, 28):
                for k in (0.5, 1.5, 1, 2):
                    lhs = charsums.gauss_sum_g(h, 4 * c, k)
                    assert abs(lhs - direct_g(h, 4 * c, k)) < 1e-9, (h, c, k)

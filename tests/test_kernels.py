"""Kernel identities: contour quadrature vs closed forms, cutoff behavior."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import shell_entries

from gaussvariants import arith, kernels, lattice

CESARO_GRID_QUAD = kernels.Quadrature(0.5, 4000.0, 4_000_000)
CESARO_SMALLY_QUAD = kernels.Quadrature(30.0, 200.0, 20_000)


class TestCesaro:
    def test_closed_form_values(self):
        assert kernels.cesaro_closed(2.0, 1) == 0.5
        assert kernels.cesaro_closed(0.5, 3) == 0.0
        assert kernels.cesaro_closed(1.0, 2) == 0.0
        assert kernels.cesaro_closed(10.0, 1) == pytest.approx(0.9)

    def test_reference_quadrature_point(self):
        quad = kernels.Quadrature(2.0, 200.0, 10**5)
        val = kernels.cesaro_contour(2.0, 3, quad)
        assert abs(val - kernels.cesaro_closed(2.0, 3)) < 1e-6
        assert kernels.cesaro_closed(2.0, 3) == pytest.approx(1 / 48)

    @pytest.mark.parametrize("Y", [0.5, 1.5, 2.0, 10.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_contour_matches_closed_on_grid(self, Y, k):
        quad = CESARO_SMALLY_QUAD if Y < 1 else CESARO_GRID_QUAD
        val = kernels.cesaro_contour(Y, k, quad)
        closed = kernels.cesaro_closed(Y, k)
        assert abs(val - closed) < 1e-6, (Y, k)
        assert abs(val - closed) <= kernels.cesaro_tail_bound(Y, k, quad)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            kernels.cesaro_contour(2.0, 1, kernels.Quadrature(-1.0, 10.0, 100))

    @pytest.mark.parametrize("Y", [0.5, 1.5])
    def test_batched_orders_are_the_single_contours(self, Y):
        # more than 2^20 steps, so the nodes span two chunks of the trapezoid
        quad = kernels.Quadrature(0.5 if Y > 1 else 30.0, 400.0, (1 << 20) + 4096)
        single = [kernels.cesaro_contour(Y, k, quad) for k in (1, 2, 3)]
        assert kernels.cesaro_contours((Y,), (1, 2, 3), quad) == [single]
        assert kernels.cesaro_contours((Y,), (3, 1, 3), quad) == [[single[2], single[0], single[2]]]

    def test_batched_abscissae_are_the_single_contours(self):
        quad = kernels.Quadrature(0.5, 400.0, (1 << 20) + 4096)
        Ys, ks = (10.0, 1.5, 10.0), (3, 1)
        single = {(Y, k): kernels.cesaro_contour(Y, k, quad) for Y in Ys for k in ks}
        assert kernels.cesaro_contours(Ys, ks, quad) == [[single[Y, k] for k in ks] for Y in Ys]

    @pytest.mark.parametrize(
        "Ys, quad",
        [
            ((0.5,), kernels.Quadrature(30.0, 200.0, 20_000)),
            ((1.5, 2.0, 10.0), kernels.Quadrature(0.5, 400.0, 40_000)),
        ],
    )
    def test_contours_match_complex_power_oracle(self, Ys, quad):
        # the integrand by numpy's own Y ** s on all nodes at once, through
        # t = 0 (where sigma = 30 takes numpy's integer-power branch)
        t = np.linspace(-quad.T, quad.T, quad.steps + 1)
        assert 0.0 in t
        s = quad.sigma + 1j * t
        step = (t[1] - t[0]) / (2 * np.pi)
        n_nodes = quad.steps + 1
        got = kernels.cesaro_contours(Ys, (1, 2, 3), quad)
        for Y, row in zip(Ys, got):
            for k, val in zip((1, 2, 3), row):
                denom = s.copy()
                for j in range(1, k + 1):
                    denom = denom * (s + j)
                terms = Y**s / denom
                terms[[0, -1]] *= 0.5
                # both sides round each node's few operations and then
                # sum N terms, so each lies within N eps of the exact sum
                # relative to the trapezoid of |f|
                tol = n_nodes * np.finfo(float).eps * np.sum(np.abs(terms)) * step
                oracle = (np.sum(terms) * step).real
                assert abs(val - oracle) <= tol, (Y, k, val - oracle, tol)

    def test_long_contour_stays_small_in_memory(self):
        # the 4M-node contour of kernels-verify: blocks of 2^13 nodes, not
        # node arrays, set its peak
        tracemalloc.start()
        try:
            kernels.cesaro_contour(2.0, 3, CESARO_GRID_QUAD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


def _leaves(n):
    """The runs the trapezoid hands to its integrands for n nodes, in order."""
    runs = []
    for start in range(0, n, 1 << 20):
        m = min(1 << 20, n - start)
        arith._pairwise_sum(lambda i, j: runs.append((i, j)) or 0, start, m, kernels._BLOCK, 2)
    return runs


class TestBlockedTrapezoid:
    @pytest.mark.parametrize(
        "m", [1, kernels._BLOCK - 1, kernels._BLOCK, kernels._BLOCK + 1, 20_001, 854_273, 1 << 20]
    )
    def test_pairwise_join_is_np_sum(self, m):
        rng = np.random.default_rng(m)
        x = rng.standard_normal(m) * 10.0 ** rng.integers(-6, 7, m) + 1j * rng.standard_normal(m)
        # the trapezoid's leaves: blocks of kernels._BLOCK complex values
        assert arith._pairwise_sum(lambda i, j: np.sum(x[i:j]), 0, m, kernels._BLOCK, 2) == np.sum(x)

    def test_leaves_tile_the_nodes(self):
        runs = _leaves(4_000_001)
        assert runs[0][0] == 0 and runs[-1][1] == 4_000_001
        assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
        assert max(j - i for i, j in runs) <= kernels._BLOCK

    @pytest.mark.parametrize(
        "quad",
        [
            kernels.Quadrature(30.0, 200.0, 20000),
            kernels.Quadrature(0.5, 4000.0, 4_000_000),
            kernels.Quadrature(2.0, 40.0, 4000),
        ]
        + [kernels.Quadrature(2.0, 15.0 * Y, max(600, int(300 * Y))) for Y in (1.0, 2.0, 4.0)],
    )
    def test_block_nodes_are_linspace(self, quad):
        # every Quadrature of the checks suites, bit for bit
        nodes = np.concatenate([kernels._nodes(quad, i, j) for i, j in _leaves(quad.steps + 1)])
        assert nodes.tobytes() == np.linspace(-quad.T, quad.T, quad.steps + 1).tobytes()


class TestExponential:
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0, 50.0])
    def test_contour_matches_exp(self, x):
        quad = kernels.Quadrature(2.0, 40.0, 4000)
        assert abs(kernels.exp_contour(x, quad) - math.exp(-x)) < 1e-6

    def test_larger_sigma_degrades_gracefully(self):
        # recorded diagnostic, not asserted tightly: moving the abscissa
        # right at fixed T keeps errors small for moderate x
        errs = []
        for sigma in (2.0, 6.0, 10.0):
            quad = kernels.Quadrature(sigma, 40.0, 4000)
            errs.append(abs(kernels.exp_contour(1.0, quad) - math.exp(-1.0)))
        assert max(errs) < 1e-3

    def test_gamma_against_exact_modulus_identities(self):
        # |Gamma(1+it)|^2 = pi t / sinh(pi t), |Gamma(1/2+it)|^2 = pi / cosh(pi t)
        for t in (0.5, 3.0, 10.0, 25.0):
            g = kernels.gamma_vertical(1 + 1j * t)
            exact = math.pi * t / math.sinh(math.pi * t)
            assert abs(abs(g) ** 2 - exact) / exact < 1e-10
            g = kernels.gamma_vertical(0.5 + 1j * t)
            exact = math.pi / math.cosh(math.pi * t)
            assert abs(abs(g) ** 2 - exact) / exact < 1e-10

    def test_gamma_real_axis(self):
        for x in (0.3, 1.0, 4.5, 12.0, 29.5):
            assert kernels.gamma_vertical(x) == pytest.approx(math.gamma(x), rel=1e-11)


class TestConcentrating:
    def test_closed_form_values(self):
        assert kernels.concentrating_closed(1.0, 7.0) == pytest.approx(1 / (2 * math.pi))
        assert kernels.concentrating_closed(math.e, 2.0) == pytest.approx(
            math.exp(-1 / math.pi) / (2 * math.pi)
        )
        assert kernels.concentrating_closed(math.exp(-1.0), 2.0) == pytest.approx(
            kernels.concentrating_closed(math.e, 2.0)
        )

    @pytest.mark.parametrize("X", [1.0, math.e, 3.0, 10.0])
    @pytest.mark.parametrize("Y", [1.0, 2.0, 4.0])
    def test_contour_matches_closed(self, X, Y):
        quad = kernels.Quadrature(2.0, 15.0 * Y, max(600, int(300 * Y)))
        val = kernels.concentrating_contour(X, Y, quad)
        assert abs(val - kernels.concentrating_closed(X, Y)) < 1e-8

    def test_truncation_at_ten_Y(self):
        quad = kernels.Quadrature(2.0, 20.0, 800)
        val = kernels.concentrating_contour(1.0, 1.0, quad)
        assert abs(val - 1 / (2 * math.pi)) < 1e-8

    def test_abscissa_shift_legality(self):
        q0 = kernels.Quadrature(0.0, 30.0, 1200)
        q2 = kernels.Quadrature(2.0, 30.0, 1200)
        a = kernels.concentrating_contour(3.0, 2.0, q0)
        b = kernels.concentrating_contour(3.0, 2.0, q2)
        assert abs(a - b) < 1e-8


class TestCompact:
    def test_plateau_and_support(self):
        Y = 50.0
        assert kernels.compact_phi(Y, 0.5) == 1.0
        assert kernels.compact_phi(Y, 1.0 + 2.0 / Y) == 0.0
        assert kernels.compact_phi(Y, 1.0 + 0.5 / Y) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_nonincreasing(self):
        Y = 10.0
        vals = kernels.compact_phi(Y, np.linspace(0.5, 1.3, 4001))
        assert np.all(np.diff(vals) <= 1e-14)

    def test_band_symmetry(self):
        Y = 25.0
        x = np.linspace(1.0 + 1e-9, 1.0 + 1.0 / Y - 1e-9, 200)
        total = kernels.compact_phi(Y, x) + kernels.compact_phi(Y, 2.0 + 1.0 / Y - x)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_Phi_near_inverse_s(self):
        val = kernels.compact_Phi(100.0, 1.0)
        assert abs(val - 1.0) <= 0.02
        trend = [abs(kernels.compact_Phi(Y, 2.0) - 0.5) for Y in (10.0, 100.0, 1000.0)]
        assert trend[0] > trend[1] > trend[2]

    def test_Phi_contract_within_half_Y(self):
        Y = 50.0
        for sig in (0.5, 2.0, 10.0):
            for t in (0.0, 5.0, 20.0):
                s = complex(sig, t)
                if abs(s) > Y / 2:
                    continue
                assert abs(kernels.compact_Phi(Y, s) - 1.0 / s) <= 2.0 / Y, s

    def test_Phi_decay_constant_recorded(self):
        # property: |Phi_Y(sigma + iT)| <= C (Y/(1+T))^2 / Y; the implied
        # constant is unstated, so record the measured one and keep a
        # generous ceiling pinned
        Y = 30.0
        measured = max(
            abs(kernels.compact_Phi(Y, complex(2.0, T))) * (1.0 + T) ** 2 / Y
            for T in (10.0, 50.0, 200.0, 1000.0)
        )
        assert measured < 20.0

    def test_Phi_derivative_diagnostic(self):
        # property: Phi'_Y(s) = -1/s^2 + O(1/Y); finite differences, with the
        # measured constant recorded rather than asserted from theory
        Y = 200.0
        s = 2.0 + 0.0j
        h = 1e-4
        deriv = (kernels.compact_Phi(Y, s + h) - kernels.compact_Phi(Y, s - h)) / (2 * h)
        measured = abs(deriv + 1.0 / s**2) * Y
        assert measured < 10.0

    def test_Phi_rejects_left_half_plane(self):
        with pytest.raises(ValueError):
            kernels.compact_Phi(10.0, -1.0 + 0j)


class TestApplyKernel:
    def test_exponential_direct_sum(self, r2_big):
        n = np.arange(1, int(100 * 27.7) + 1)
        val = kernels.apply_kernel(n, r2_big.ints()[n], kernels.KernelSpec("exponential"), 100.0)
        direct = float(np.sum(r2_big.floats()[1 : len(n) + 1] * np.exp(-n / 100.0)))
        assert val == pytest.approx(direct, rel=1e-12)

    def test_cesaro_hand_sum(self):
        val = kernels.apply_kernel(np.arange(1, 11), [1] * 10, kernels.KernelSpec("cesaro", k=1), 10.0)
        assert val == pytest.approx(4.5)

    def test_compact_reproduces_sharp_plus_band(self, r2_big):
        X, Y = 1000.0, 4.0
        spec = kernels.KernelSpec("compact", Y=Y)
        n = np.arange(1, kernels.kernel_support(spec, X) + 1)
        val = kernels.apply_kernel(n, r2_big.ints()[n], spec, X)
        sharp = float(np.sum(r2_big.floats()[1 : int(X) + 1]))
        band = float(np.sum(r2_big.floats()[int(X) + 1 : int(X * (1 + 1 / Y)) + 2]))
        assert sharp <= val <= sharp + band + 1e-9

    def test_concentrating_dominates_window_sums(self, r2_big):
        # positivity: the window sum times the minimum window weight is
        # bounded by the (truncated) smoothed sum
        shells = shell_entries(r2_big, 1, 40 * 2.0**14)
        for e in (10, 12, 14):
            X = 2.0**e
            Y = X ** (1.0 / 44.0)
            spec = kernels.KernelSpec("concentrating", Y=Y)
            n, b = lattice._hyperboloid_shells(1, (lattice.hyperboloid_index(1, 40 * X), "dominance"), shells)
            smoothed = kernels.apply_kernel(n, b, spec, X)
            window, _ = lattice.hyperboloid_short_interval(3, 1, X, shells)
            lam = lattice.power_saving_exponent(3)
            edges = [X - X ** (1 - lam), X + X ** (1 - lam)]
            w_min = float(np.min(kernels.kernel_weights(spec, edges, X)))
            assert window * w_min <= smoothed * (1 + 1e-12)


class TestSpecValidation:
    def test_kernel_spec_invariants(self):
        with pytest.raises(ValueError):
            kernels.KernelSpec("cesaro", k=0)
        with pytest.raises(ValueError):
            kernels.KernelSpec("cesaro", k=2.0)  # an order is an integer
        with pytest.raises(ValueError):
            kernels.KernelSpec("concentrating", Y=-1.0)
        with pytest.raises(ValueError):
            kernels.KernelSpec("compact", Y=1.5)

    @pytest.mark.parametrize(
        "text, spec",
        [
            ("exp", kernels.KernelSpec("exponential")),
            ("cesaro:2", kernels.KernelSpec("cesaro", k=2)),
            ("conc:4", kernels.KernelSpec("concentrating", Y=4.0)),
            ("compact:8", kernels.KernelSpec("compact", Y=8.0)),
            ("box:1", None),
            ("cesaro:x", None),
            ("cesaro:171", None),  # 171! is past the float range
            ("conc:nan", None),
            ("compact:1.5", None),
        ],
    )
    def test_parse_kernel(self, text, spec):
        if spec is None:
            with pytest.raises(ValueError):
                kernels.parse_kernel(text)
        else:
            assert kernels.parse_kernel(text) == spec


class TestTailBounds:
    # The bounds certify the truncation component of the error budget; for
    # the rapidly decaying kernels the trapezoid discretization dominates,
    # so the certificates must sit far below the advertised tolerances.

    def test_concentrating_truncation_negligible_past_ten_Y(self):
        for X, Y in ((1.0, 1.0), (3.0, 2.0), (10.0, 4.0)):
            quad = kernels.Quadrature(2.0, 12.0 * Y, max(600, int(300 * Y)))
            assert kernels.concentrating_tail_bound(X, Y, quad) < 1e-15
            err = abs(
                kernels.concentrating_contour(X, Y, quad)
                - kernels.concentrating_closed(X, Y)
            )
            assert err < 1e-8

    def test_exp_truncation_negligible_at_default_height(self):
        for x in (0.5, 1.0, 10.0):
            quad = kernels.Quadrature(2.0, 40.0, 4000)
            assert kernels.exp_tail_bound(x, quad) < 1e-12
            assert abs(kernels.exp_contour(x, quad) - math.exp(-x)) < 1e-6

    def test_cesaro_truncation_dominates_and_covers(self):
        # slow polynomial decay: here the certificate does bound the error
        quad = kernels.Quadrature(2.0, 200.0, 10**5)
        err = abs(kernels.cesaro_contour(2.0, 3, quad) - kernels.cesaro_closed(2.0, 3))
        assert err <= kernels.cesaro_tail_bound(2.0, 3, quad)

    def test_exp_bound_guards_small_T(self):
        with pytest.raises(ValueError):
            kernels.exp_tail_bound(1.0, kernels.Quadrature(2.0, 1.0, 100))

"""Gauss sums and the finite Dirichlet polynomials in Eisenstein coefficients.

The half-integral-weight Eisenstein coefficients carry the Gauss sums

    g_h(c)  = sum_{d mod c} eps_d^{2k} (c/d) e(hd/c),        4 | c,
    H_h(c)  = eps_c sum_{d mod c} (d/c) e(hd/c),             c odd,

together with the two-piece decomposition g_h(4c) = chi_k(c') * d2 * H_h(c')
(writing 4c = 2^alpha c'), the full-integral reduction
sum_{d mod 4c} (-4/d)^k e(hd/4c) = [c | h] c (e^{pi i h/2c} + (-1)^k e^{3 pi i h/2c}),
which gives each term of the finite Dirichlet sum D_inf^k(h, w), and the
factorization

    sum_{c>=1} g_h(4c) (4c)^{-2w}
        = L^(2)(2w - 1/2, chi_{k,h}) / zeta^(2h)(4w - 1) * Dtilde(h, w),

where chi_{k,h}(.) = ((-1)^{k-1/2} h / .) and Dtilde is a finite Dirichlet
polynomial assembled from d2 sums and H_h values at primes dividing h.

Every character-exponential sum here accumulates integer multiplicities of
roots of unity first and converts to floating complex exactly once, so the
10^-9 residual tolerances hold independently of the modulus.  The characters
live in ``arith`` only: arrays come from ``arith.kronecker_array`` and single
values from ``arith.kronecker``; this module defines no character of its own.
The loop of ``gauss_sum_g_series`` over its moduli is split across the
available CPUs; its bits do not depend on their count, and no option
controls the split.  The module holds no state: the series is returned to
the caller, which passes each row it sums to ``factorization_check``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ._split import split_map
from .arith import character_values, epsilon, factorize, kronecker, kronecker_array, split_two, truncated_L

# ---------------------------------------------------------------------------
# Roots of unity and the exact character-exponential dot
# ---------------------------------------------------------------------------

def _roots_of_unity(modulus):
    """e(j/modulus) for j = 0..modulus-1."""
    return np.exp(2j * np.pi * np.arange(modulus, dtype=np.float64) / modulus)


# OpenBLAS computes a complex dot longer than 10^4 on threads of its own,
# and then its bits depend on the thread count, so longer dots are taken
# in pieces of this length.
_DOT_PIECE = 10_000


def _roots_of_unity_dot(exponents, chi, phase):
    """sum_d chi(d) e(exponent_d/modulus): the integer multiplicity of each
    root of unity first (exact in float64), then one dot with ``phase``,
    as consecutive dots of at most _DOT_PIECE terms."""
    mult = np.bincount(exponents, weights=chi, minlength=len(phase))
    dot = np.dot(mult[:_DOT_PIECE], phase[:_DOT_PIECE])
    for s in range(_DOT_PIECE, len(phase), _DOT_PIECE):
        dot += np.dot(mult[s : s + _DOT_PIECE], phase[s : s + _DOT_PIECE])
    return complex(dot)


def _half_integer_times_two(k):
    """2k as an exact integer; accepts float halves or integers."""
    two_k = 2 * k
    two_k_int = int(round(two_k))
    if abs(two_k - two_k_int) > 1e-12:
        raise ValueError(f"weight {k} is neither integral nor half-integral")
    return two_k_int


# ---------------------------------------------------------------------------
# The sums themselves
# ---------------------------------------------------------------------------

def gauss_sum_g(h, c4, k):
    """g_h(c4) = sum_{d mod c4} eps_d^{2k} (c4/d) e(hd/c4) for 4 | c4.

    Half-integral k uses the eps twist; integral k routes to the
    (-4/d)^k character, matching the full-integral weighting factor.
    """
    return _g_at_modulus((int(h),), c4, (_half_integer_times_two(k),))[0][0]


def _g_at_modulus(hs, c4, two_ks):
    """[[g_h(c4) for h in hs] for 2k in two_ks]: d and the roots of unity
    depend on c4 only, and the character and eps twist on c4 and k, so each
    is built once for every h and weight."""
    c4 = int(c4)
    if c4 <= 0 or c4 % 4 != 0:
        raise ValueError(f"modulus must be a positive multiple of 4, got {c4}")
    d = np.arange(1, c4, 2, dtype=np.int64)
    phase = _roots_of_unity(c4)
    half_chi = kronecker_array(c4, d) if any(t % 2 for t in two_ks) else None
    rows = []
    for two_k in two_ks:
        if two_k % 2 == 1:
            chi = half_chi
            twist = np.where(d % 4 == 1, 0, two_k % 4) * (c4 // 4)
        else:  # (-4/d)^k, which is (1/d) = 1 for even k
            chi = kronecker_array(-4 if two_k // 2 % 2 else 1, d)
            twist = 0
        rows.append([_roots_of_unity_dot((h * d + twist) % c4, chi, phase) for h in hs])
    return rows


def gauss_sum_H(h, c):
    """H_h(c) = eps_c sum_{d mod c} (d/c) e(hd/c) for odd positive c.

    H_h(1) = 1 (the multiplicative identity; the d mod 1 sum is degenerate).
    """
    return _H_at_modulus((int(h),), c)[0]


def _H_at_modulus(hs, c):
    """[H_h(c) for h in hs]: d, the character and the roots of unity depend
    on c only, so each is built once for every h."""
    c = int(c)
    if c <= 0 or c % 2 == 0:
        raise ValueError(f"H_h needs an odd positive modulus, got {c}")
    if c == 1:
        return [complex(1, 0) for _ in hs]
    # (d/c) = (c*/d) with c* = (-1)^((c-1)/2) c, and the odd d < 2c run
    # over the residues mod c once each
    d = np.arange(1, 2 * c, 2, dtype=np.int64)
    chi = kronecker_array(c if c % 4 == 1 else -c, d)
    eps, phase = epsilon(c), _roots_of_unity(c)
    return [eps * _roots_of_unity_dot((h * d) % c, chi, phase) for h in hs]


def d2_sum(h, alpha, k):
    """The 2-adic block: sum over odd d mod 2^alpha of
    eps_d^{2k} (2^alpha/d) e(h d / 2^alpha), for alpha >= 2, half-integral k;
    that is g_h(2^alpha).

    Vanishes once alpha >= v2(h) + 4; integral k belongs to the
    (-4/d)^k route in ``gauss_sum_g``, not here.
    """
    alpha = int(alpha)
    if alpha < 2:
        raise ValueError(f"need alpha >= 2, got {alpha}")
    two_k = _half_integer_times_two(k)
    if two_k % 2 == 0:
        raise ValueError("the eps-twisted 2-adic sum is defined for half-integral k")
    return _g_at_modulus((int(h),), 1 << alpha, (two_k,))[0][0]


def reduction_residuals(hs, c, ks):
    """|direct sum - closed form| for the full-integral character sum

        sum_{d mod 4c} (-4/d)^k e(hd/4c)
            = [c | h] * c * (e^{pi i h/2c} + (-1)^k e^{3 pi i h/2c}),

    as rows [[residual at (h, c, k) for h in hs] for k in ks], from one build
    of the characters and roots of unity mod 4c.  Contract: each residual
    stays below 1e-9 * (4c).
    """
    hs, c, ks = [int(h) for h in hs], int(c), [int(k) for k in ks]
    if c < 1:
        raise ValueError("c must be positive")
    rows = _g_at_modulus(hs, 4 * c, [2 * k for k in ks])
    return [
        [abs(g - _reduction_closed(h, c, k)) for h, g in zip(hs, row)] for k, row in zip(ks, rows)
    ]


def _reduction_closed(h, c, k):
    if h % c:
        return 0j
    sign = -1 if k % 2 else 1
    phases = cmath.exp(1j * math.pi * h / (2 * c)) + sign * cmath.exp(3j * math.pi * h / (2 * c))
    return c * phases


def two_piece_product(h, c4, k):
    """g_h(4c) reassembled from its decoupled pieces:
    chi_k(c') * d2block(alpha) * H_h(c'), where 4c = 2^alpha c'."""
    return _two_piece_at_modulus((int(h),), c4, (_half_integer_times_two(k),))[0][0]


def _two_piece_at_modulus(hs, c4, two_ks):
    """[[two_piece_product(h, c4, k) for h in hs] for 2k in two_ks]: each
    piece's modulus is built once for every h and weight."""
    c4 = int(c4)
    if c4 % 4:
        raise ValueError("modulus must be a multiple of 4")
    if any(two_k % 2 == 0 for two_k in two_ks):
        raise ValueError("two-piece form applies to half-integral k")
    alpha, c_odd = split_two(c4)
    H = _H_at_modulus(hs, c_odd)
    rows = []
    for two_k, d2_row in zip(two_ks, _g_at_modulus(hs, 1 << alpha, two_ks)):
        chi_k_val = kronecker((-1) ** ((two_k + 1) // 2), c_odd)  # mu = (-1)^(k + 1/2)
        rows.append([chi_k_val * d2 * H_h for d2, H_h in zip(d2_row, H)])
    return rows


def dtilde_half(h, w, k):
    """The finite Dirichlet polynomial Dtilde(h, w) for half-integral k:

        [ sum_{2 <= alpha <= v2(h)+3} 2^{-2 alpha w} d2block(alpha) ]
      * prod_{odd p | h} sum_{0 <= j <= vp(h)+1} chi_k(p^j) H_h(p^j) p^{-2jw},

    with chi_k(.) = ((-1)^{k+1/2}/.).  Truncation indices sit one past the
    proven vanishing thresholds, so extending them changes nothing.
    """
    h = int(h)
    if h <= 0:
        raise ValueError("h must be positive")
    w = complex(w)
    two_k = _half_integer_times_two(k)
    if two_k % 2 == 0:
        raise ValueError("Dtilde is the half-integral-weight polynomial")
    v2, h_odd = split_two(h)
    two_adic = 0j
    for alpha in range(2, v2 + 4):
        two_adic += 2.0 ** (-2 * alpha * w) * d2_sum(h, alpha, k)
    mu = (-1) ** ((two_k + 1) // 2)
    total = two_adic
    for p, vp in factorize(h_odd):
        local = 0j
        for j in range(0, vp + 2):
            chi_val = kronecker(mu, p) ** j
            if chi_val == 0:
                continue
            local += chi_val * gauss_sum_H(h, p**j) * float(p) ** (-2 * j * w)
        total *= local
    return total


def gauss_sum_g_series(hs, ks, n_max):
    """g_h(4c) for c = 1..n_max: a C-contiguous array of one row per h in
    ``hs`` for each k in ``ks``, of shape (len(ks), len(hs), n_max).

    One pass over c builds every row, sharing each modulus's characters
    and roots of unity; each entry has gauss_sum_g's bits.  The moduli are
    split across the available CPUs, with the same bits whatever their
    count.  n_max = 0 gives empty rows.
    """
    two_ks = [_half_integer_times_two(k) for k in ks]
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError(f"series length must be nonnegative, got {n_max}")
    hs = [int(h) for h in hs]
    by_c = split_map(lambda c: _g_at_modulus(hs, 4 * c, two_ks), range(1, n_max + 1))
    by_c = np.array(by_c, dtype=complex).reshape(n_max, len(two_ks), len(hs))
    return np.ascontiguousarray(by_c.transpose(1, 2, 0))


def factorization_check(g, h, w, k):
    """Residual of the L-factorization of the Gauss-sum Dirichlet series.

    Compares sum_{c <= N} g_h(4c) (4c)^{-2w}, for the row g = g_h(4c),
    c = 1..N, of ``gauss_sum_g_series``, against
    L^(2)(2w-1/2, chi_{k,h}) / zeta^(2h)(4w-1) * Dtilde(h,w), both sides
    truncated at N.  Returns (residual, combined_tail_bound); the identity
    holds iff residual <= bound.  Needs N >= 1, Re(2w - 1/2) > 1 and
    Re(4w - 1) > 1.
    """
    h = int(h)
    w = complex(w)
    n_trunc = len(g)
    if n_trunc < 1:  # the c-tail bound divides by a power of N
        raise ValueError(f"the factorization check needs N >= 1, got {n_trunc}")
    two_k = _half_integer_times_two(k)
    if two_k % 2 == 0:
        raise ValueError("the factorization is the half-integral-weight one")
    s_L = 2 * w - 0.5
    s_Z = 4 * w - 1.0
    if s_L.real <= 1 or s_Z.real <= 1:
        raise ValueError("w outside the absolute-convergence region")

    c = np.arange(1, n_trunc + 1, dtype=np.float64)
    lhs = complex(np.sum(g * (4.0 * c) ** (-2 * w)))
    # |g_h(4c)| <= 2c (only odd d contribute), so the c-tail is bounded by
    # 2 * 4^(-2 Re w) * N^(2 - 2 Re w) / (2 Re w - 2).
    sigma2 = 2 * w.real
    lhs_tail = 2.0 * 4.0 ** (-sigma2) * n_trunc ** (2.0 - sigma2) / (sigma2 - 2.0)

    mu = (-1) ** ((two_k - 1) // 2)  # (-1)^(k - 1/2)
    chi_kh = character_values(mu * h, n_trunc, removed_primes=(2,))
    zeta_2h = character_values(1, n_trunc, removed_primes=[p for p, _ in factorize(2 * h)])
    L_val, L_tail = truncated_L(s_L, chi_kh)
    Z_val, Z_tail = truncated_L(s_Z, zeta_2h)
    dt = dtilde_half(h, w, k)
    rhs = L_val / Z_val * dt
    # |L/Z - Lhat/Zhat| <= (dL |Zhat| + |Lhat| dZ) / (|Zhat| (|Zhat| - dZ))
    z_abs = abs(Z_val)
    quotient_err = (L_tail * z_abs + abs(L_val) * Z_tail) / (z_abs * (z_abs - Z_tail))
    bound = lhs_tail + abs(dt) * quotient_err
    return abs(lhs - rhs), bound

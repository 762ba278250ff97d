"""Exact powers of sparse integer series.

``sparse_power`` raises sum c_i q^{e_i} to the k-th power, truncated at
q^N, exactly.  tau = q (eta^3)^8 and r_d = theta^d are both such powers.
The first square enumerates exponent pairs; every further product is a
float FFT (Pollard 1971), rounded directly when its coefficients are small
and otherwise taken mod 31-bit primes in 11-bit limbs and joined by
Garner's CRT (Garner 1959).  Every inverse transform checks its rounding
margin and raises ``arith.RoundingMarginError`` rather than round a wrong
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import RoundingMarginError

_INT64 = np.iinfo(np.int64)

# A product whose coefficients max|a| * max|b| * min(nnz) bounds below
# _DIRECT_BOUND is rounded from one float64 FFT; a wider one runs mod enough
# 31-bit primes, each as three balanced 11-bit limbs, for Garner's CRT.
_DIRECT_BOUND = 1 << 40
_LIMB_BITS = 11
_PAIR_CHUNK = 1 << 17  # exponent pairs per bincount, on average, in a sparse square


@dataclass
class _Wide:
    """Integers of absolute value <= bound, held as balanced mixed-radix
    digits: x = v_0 + p_0 (v_1 + p_1 (v_2 + ...)) with |v_i| < p_i / 2."""

    digits: list
    primes: list
    bound: int


def _fft_primes(bound):
    """The fewest of the largest primes below 2^31 whose product exceeds bound."""
    primes = []
    p = 1 << 31
    while math.prod(primes) <= bound:
        p -= 1
        # a Fermat test screens out most composites before trial division proves p prime
        if pow(2, p - 1, p) == 1 and np.all(p % np.arange(3, math.isqrt(p) + 1, 2)):
            primes.append(p)
    return primes


def _smooth_length(n):
    """Smallest 2^a 3^b 5^c >= n >= 1: a length numpy's FFT handles quickly."""
    top = range(n.bit_length())
    odd = [3**b * 5**c for b in top for c in top if 3**b * 5**c < 2 * n]
    return min(m << (-(-n // m) - 1).bit_length() for m in odd)


def _rint_checked(x):
    """rint(x) as int64, overwriting x.  Raises RoundingMarginError when an
    entry lies 1/4 or more from an integer, or is too large (>= 2^50) for a
    quarter to show."""
    r = np.rint(x)
    x -= r
    np.abs(x, out=x)
    margin = float(x.max(initial=0.0))
    top = float(np.abs(r).max(initial=0.0))
    if not (margin < 0.25 and top < 2.0**50):
        raise RoundingMarginError(
            f"FFT product rounding margin {margin:.3g} at magnitude {top:.3g}; "
            "an exact result needs a margin below 1/4 under 2^50"
        )
    return r.astype(np.int64)


def _extent(x):
    """(max |x|, nonzero count) as Python ints: a wide operand reports its bound."""
    if isinstance(x, _Wide):
        return x.bound, len(x.digits[0])
    return max(int(x.max()), -int(x.min())), int(np.count_nonzero(x))


def _residue(x, q):
    """x mod q in [0, q) as int64, by Horner's rule over the digits of a wide x."""
    if not isinstance(x, _Wide):
        return x % q
    t = 0
    for v, p in zip(reversed(x.digits), reversed(x.primes)):
        t = (t * p + v) % q  # t, p < 2^31 and |v| < 2^30: inside int64
    return t


def _limb_spectra(x, p, n_fft):
    """Spectra of the three balanced 11-bit limbs of x mod p, in (-p/2, p/2)."""
    r = _residue(x, p)
    r -= p * (r > p // 2)
    half = 1 << (_LIMB_BITS - 1)
    spectra = []
    for _ in range(3):
        limb = ((r + half) & (2 * half - 1)) - half
        spectra.append(np.fft.rfft(limb, n_fft))
        r = (r - limb) >> _LIMB_BITS
    return spectra


def _float_product(a, b, n_fft, n_max):
    """a * b to q^n_max from one float64 FFT, rounded under the margin check."""
    spec = np.fft.rfft(a, n_fft)
    spec *= spec if b is a else np.fft.rfft(b, n_fft)
    return _rint_checked(np.fft.irfft(spec, n_fft)[: n_max + 1])


def _mod_product(a, b, p, n_fft, n_max):
    """a * b mod p to q^n_max: five limb products, each rounded under the check."""
    A = _limb_spectra(a, p, n_fft)
    B = A if b is a else _limb_spectra(b, p, n_fft)
    spec = np.empty_like(A[0])
    term = np.empty_like(A[0])
    out = np.zeros(n_max + 1, dtype=np.int64)
    for k in range(5):
        spec[:] = 0
        for i in range(max(0, k - 2), min(k, 2) + 1):
            spec += np.multiply(A[i], B[k - i], out=term)
        c = _rint_checked(np.fft.irfft(spec, n_fft)[: n_max + 1])
        out += c % p * pow(2, _LIMB_BITS * k, p) % p
        out %= p
    return out


def _garner(residues, primes, bound):
    """The integers |x| <= bound with these residues (Garner 1959): the
    balanced digits are found in int64, and summed in wrapping int64 when
    bound < 2^63, which is then exact."""
    digits = []
    for i, (r, p) in enumerate(zip(residues, primes)):
        t = _residue(_Wide(digits, primes[:i], 0), p) if digits else 0
        v = (r - t) % p * pow(math.prod(primes[:i]), -1, p) % p
        v -= p * (v > p // 2)
        digits.append(v)
    if bound > _INT64.max:
        return _Wide(digits, list(primes), bound)
    x = np.zeros(len(digits[0]), dtype=np.int64)
    weight = 1
    for v, p in zip(digits, primes):
        x += v * np.int64((weight + (1 << 63)) % (1 << 64) - (1 << 63))
        weight *= p
    return x


def _product(a, b, n_max):
    """a * b to q^n_max, exactly, by float FFT (Pollard 1971)."""
    (a_max, a_nnz), (b_max, b_nnz) = _extent(a), _extent(b)
    bound = a_max * b_max * min(a_nnz, b_nnz)
    if bound == 0:
        return np.zeros(n_max + 1, dtype=np.int64)
    n_fft = _smooth_length(2 * n_max + 1)
    if bound < _DIRECT_BOUND:
        return _float_product(a, b, n_fft, n_max)
    primes = _fft_primes(2 * bound)
    return _garner([_mod_product(a, b, p, n_fft, n_max) for p in primes], primes, bound)


def _dense(exps, coeffs, n_max):
    base = np.zeros(n_max + 1, dtype=np.int64)
    base[exps] = coeffs
    return base


def _sparse_square(exps, coeffs, n_max):
    """(sum c_i q^e_i)^2 to q^n_max.

    When (sum |c_i|)^2 < 2^53, the pairs i <= j are enumerated one block of
    output exponents at a time and summed by bincount in float64, which is
    then exact: every partial sum is an integer below 2^53.  Otherwise this
    is one FFT product.
    """
    if sum(abs(c) for c in coeffs.tolist()) ** 2 >= 1 << 53:
        base = _dense(exps, coeffs, n_max)
        return _product(base, base, n_max)
    rows = np.arange(len(exps))
    pairs = int(np.maximum(np.searchsorted(exps, n_max - exps, side="right") - rows, 0).sum())
    width = max(1, _PAIR_CHUNK * (n_max + 1) // max(pairs, 1))
    out = np.empty(n_max + 1, dtype=np.int64)
    for lo in range(0, n_max + 1, width):
        hi = min(lo + width, n_max + 1)
        # row i pairs with j in [first_i, first_i + count_i): e_i + e_j in [lo, hi)
        first = np.maximum(rows, np.searchsorted(exps, lo - exps))
        count = np.maximum(np.searchsorted(exps, hi - exps) - first, 0)
        i = np.repeat(rows, count)
        j = np.repeat(first, count) + np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
        w = coeffs[i] * coeffs[j] * np.where(i == j, 1, 2)
        out[lo:hi] = np.bincount(exps[i] + exps[j] - lo, weights=w, minlength=hi - lo)
    return out


def sparse_power(exps, coeffs, k, n_max):
    """(sum_i c_i q^{e_i})^k truncated at q^n_max, exactly.

    ``exps`` strictly increasing nonnegative, ``coeffs`` int64.  Returns an
    int64 array of length n_max + 1, or an object array of Python ints when
    an entry is wider than int64.  Powers left to right in binary; raises
    RoundingMarginError if an FFT product cannot be rounded with certainty.
    """
    exps = np.asarray(exps, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.int64)
    k = int(k)
    n_max = int(n_max)
    if k < 1 or n_max < 0 or exps.shape != coeffs.shape or exps.ndim != 1:
        raise ValueError("need k >= 1, n_max >= 0 and one coefficient per exponent")
    if len(exps) and (exps[0] < 0 or np.any(exps[1:] <= exps[:-1])):
        raise ValueError("exponents must be nonnegative and strictly increasing")
    keep = exps <= n_max
    exps, coeffs = exps[keep], coeffs[keep]
    acc = None  # the base itself, until the first square
    for bit in bin(k)[3:]:
        acc = _sparse_square(exps, coeffs, n_max) if acc is None else _product(acc, acc, n_max)
        if bit == "1":
            acc = _product(acc, _dense(exps, coeffs, n_max), n_max)
    if acc is None:
        return _dense(exps, coeffs, n_max)
    if not isinstance(acc, _Wide):
        return acc
    out = np.empty(n_max + 1, dtype=object)
    for s in range(0, n_max + 1, 1 << 14):
        x = 0
        for v, p in zip(reversed(acc.digits), reversed(acc.primes)):
            x = x * p + v[s : s + (1 << 14)].astype(object)
        out[s : s + (1 << 14)] = x
    if _INT64.min <= out.min() and out.max() <= _INT64.max:
        return out.astype(np.int64)
    return out

"""Exact powers of sparse integer series.

``sparse_power`` raises sum c_i q^{e_i} to the k-th power, truncated at
q^N, exactly.  tau = q (eta^3)^8 and r_d = theta^d are both such powers.
The first square enumerates exponent pairs; every further product is a
float FFT over Z (Pollard 1971) in balanced signed limbs, as wide as keeps
each output diagonal sum_{i+j=k} A_i B_j below 2^40: one rfft per limb,
one irfft per diagonal, each checking its rounding margin and raising
``arith.RoundingMarginError`` rather than round a wrong value.

A square of at least ``_SPLIT_LENGTH`` entries, as is every FFT square
behind tau(164000) or tau(10^6), is split two levels deep (Karatsuba and
Ofman 1962): with a = a0 + q^h a1 it is a0^2, (a0 + a1)^2 and a1^2, each
of half the length and each split once more, so nine FFT products of a
quarter of the length.  Each square is folded into its level's result as
soon as it is made.  The longest transform, and with it every live
spectrum and the FFT library's buffers, is a quarter as long as one whole
square's; a tau(10^6) build takes about 1.3 times as long as with one
level.  The result has the same bits, dtype and digit rows as the one
square.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from ._words import narrow
from .arith import RoundingMarginError

_INT64 = np.iinfo(np.int64)

# Limbs are as wide as keeps every output diagonal, a sum of min(limb
# counts) * min(nnz) limb products, below this bound.
_DIAGONAL_BOUND = 1 << 40
# One limb of 51 bits holds every |x| < 2^50, all _rint_checked accepts;
# with 8-bit digits, every carry then stays below 2^57.
_MAX_WIDTH = 51
_DIGIT_BITS = 8  # a result that may pass int64 is held as int8 rows of balanced digits
_PAIR_CHUNK = 1 << 14  # exponent pairs per bincount, on average, in a sparse square
# A square of at least this many entries is split _SPLIT_LEVELS deep into
# nine squares of a quarter of its length; one spectrum of this length is 2 MB.
_SPLIT_LENGTH = 1 << 17
_SPLIT_LEVELS = 2


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
    """(bound on |x|, nonzero count) as Python ints, for int64 x or digit rows."""
    if x.ndim == 1:
        return max(int(x.max()), -int(x.min())), int(np.count_nonzero(x))
    bound = sum(max(int(row.max()), -int(row.min())) << _DIGIT_BITS * j for j, row in enumerate(x))
    return bound, int(np.count_nonzero(x.any(axis=0)))


def _limb_count(m, width):
    """The fewest balanced width-bit limbs that hold every |x| <= m."""
    count, top = 1, (1 << (width - 1)) - 1
    while top < m:
        count, top = count + 1, (top << width) + (1 << (width - 1)) - 1
    return count


def _limb_width(a_max, b_max, nnz):
    """The widest limb whose output diagonals stay below _DIAGONAL_BOUND."""
    for width in range(_MAX_WIDTH, 1, -1):
        half = 1 << (width - 1)
        terms = min(_limb_count(a_max, width), _limb_count(b_max, width))
        if terms * min(a_max, half) * min(b_max, half) * nnz < _DIAGONAL_BOUND:
            break
    return width


def _cut(acc, width):
    """Cut the low balanced width-bit limb, in [-2^(width-1), 2^(width-1)), off
    acc: returns it and leaves (acc - limb) / 2^width in acc, never leaving int64."""
    half = 1 << (width - 1)
    limb = acc & (2 * half - 1)
    limb ^= half
    limb -= half
    acc >>= width
    acc += limb < 0
    return limb


def _regroup(digits, src, dst, count):
    """The first count balanced dst-bit digits of sum_j digits[j] 2^(src j),
    low first, each as soon as it is final."""
    acc, have = 0, 0
    for d in digits:
        acc += np.left_shift(d, have, dtype=np.int64)
        del d  # not held while the next digit is made
        have += src
        while have >= dst and count:
            yield _cut(acc, dst)
            have, count = have - dst, count - 1
    for _ in range(count):
        yield _cut(acc, dst)


def _wrapped(x):
    """int64 x, or the value of digit rows x mod 2^64 as int64."""
    if x.ndim == 1:
        return x
    return sum(np.left_shift(row, _DIGIT_BITS * j, dtype=np.int64) for j, row in enumerate(x))


def _digit_rows(x, count):
    """The low count balanced digits of int64 x or of digit rows x, low first:
    together they are x mod 2^(8 count)."""
    if x.ndim == 1:
        return _regroup([x], 64, _DIGIT_BITS, count)
    zero = np.zeros(x.shape[1], dtype=np.int8)
    return (x[j] if j < len(x) else zero for j in range(count))


def _limbs(x, x_max, width):
    """The balanced width-bit limbs of int64 x or of digit rows x, low first."""
    count = _limb_count(x_max, width)
    if x.ndim == 1 and count == 1:
        return iter([x])  # its one limb is x itself
    rows, bits = ([x], 64) if x.ndim == 1 else (x, _DIGIT_BITS)
    return _regroup(rows, bits, width, count)


def _product(a, b, n_max):
    """a * b to q^n_max, exactly, for int64 a, b or digit rows of at most
    n_max + 1 entries; digit rows come back when the result may pass int64."""
    (a_max, a_nnz), (b_max, b_nnz) = _extent(a), _extent(b)
    nnz = min(a_nnz, b_nnz)
    bound = a_max * b_max * nnz
    width = _limb_width(a_max, b_max, nnz)
    n_fft = _smooth_length(min(2 * n_max + 1, a.shape[-1] + b.shape[-1] - 1))
    square = b is a
    la, lb = _limb_count(a_max, width), _limb_count(b_max, width)
    # spectra are made when a diagonal first needs them and dropped after the last
    limbs_a = _limbs(a, a_max, width)
    limbs_b = limbs_a if square else _limbs(b, b_max, width)
    A = []
    B = A if square else []

    def diagonal(k):
        """sum_{i+j=k} a_i b_j from one inverse FFT, rounded under the check."""
        for S, limbs in ((A, limbs_a), (B, limbs_b)):
            S.extend(np.fft.rfft(limb, n_fft) for limb in islice(limbs, max(0, k + 1 - len(S))))
        lo, hi = max(0, k - lb + 1), min(k, la - 1)
        # A[lo] takes part in no diagonal past lo + lb - 1, so the sum takes its
        # place; the spectra of b, in sparse_power the base, stay to the end
        spec = np.multiply(A[lo], B[k - lo], out=A[lo] if k >= lb - 1 else None)
        if square and lo < hi:
            spec += spec  # the mirror term A[hi] A[lo]
            hi -= 1
        for i in range(lo + 1, hi + 1):
            spec += A[i] * B[k - i]
        if k >= lb - 1:
            A[lo] = None
        spec = np.fft.irfft(spec, n_fft)[: n_max + 1]  # the spectrum is freed before rounding
        d = _rint_checked(spec)
        return d if len(d) > n_max else np.pad(d, (0, n_max + 1 - len(d)))

    def diagonals(bits):  # those that reach the low bits of the product, one at a time
        return map(diagonal, range(min(la + lb - 1, -(-bits // width))))

    if bound <= _INT64.max:  # the sum wraps mod 2^64 but fits int64: exact
        return sum(d << width * k for k, d in enumerate(diagonals(64)))
    n_digits = _limb_count(bound, _DIGIT_BITS)
    digits = _regroup(diagonals(_DIGIT_BITS * n_digits), width, _DIGIT_BITS, n_digits)
    # rows are stacked at the end, when the spectra are gone
    return np.array([digit.astype(np.int8) for digit in digits])


def _fold(out, x, at, add):
    """out[..., at:] = add(out[..., at:], x) as far as out reaches, for
    ``add`` np.add or np.subtract and int64 x or digit rows x: int64 out
    wraps mod 2^64, and digit rows out keep the balanced digits of the
    result mod 2^(8 len(out))."""
    width = min(x.shape[-1], out.shape[-1] - at)
    if width <= 0:
        return
    if out.ndim == 1:
        view = out[at : at + width]
        add(view, _wrapped(x[..., :width]), out=view)
        return
    acc = np.zeros(width, dtype=np.int16)  # digit j of the sum, plus the carry into it
    for digit, row in zip(out[:, at : at + width], _digit_rows(x[..., :width], len(out))):
        acc += digit
        add(acc, row, out=acc)
        digit[:] = acc  # wraps to the balanced digit, acc mod 2^8
        acc -= digit
        acc >>= _DIGIT_BITS


def _square(a, n_max, levels=None):
    """a * a to q^n_max, for int64 a or digit rows of at most n_max + 1
    entries, as ``_product(a, a, n_max)`` returns it.

    A square of at least _SPLIT_LENGTH entries is split _SPLIT_LEVELS deep.
    At each level a = a0 + q^h a1, h = ceil(len(a) / 2), is squared as
    a0^2 + q^h ((a0 + a1)^2 - a0^2 - a1^2) + q^2h a1^2 (Karatsuba and Ofman
    1962).  The bracket is needed only to q^(n_max - h), so a0 + a1 is cut
    there, and a1^2 q^2h falls past q^n_max when a is as long as the
    result.  Each of the three squares is folded into the result as
    soon as it is made, so a level holds its result and one square, and
    no spectrum or FFT buffer longer than about 2 len(a) / 2^levels is made.
    """
    size = a.shape[-1]
    if levels is None:
        levels = _SPLIT_LEVELS if size >= _SPLIT_LENGTH else 0
    if levels == 0 or size < 2:
        return _product(a, a, n_max)
    a_max, nnz = _extent(a)
    bound = a_max * a_max * nnz
    h = (size + 1) // 2
    m = min(n_max + 1 - h, 2 * h - 1)  # the length of the bracket that is needed
    a0, a1 = a[..., :h], a[..., h:]
    low = _square(a0, min(n_max, 2 * h - 2), levels - 1)  # a0^2 has 2h - 1 entries
    if bound <= _INT64.max:  # as in _product: the sum wraps mod 2^64 but fits int64
        out = np.zeros(n_max + 1, dtype=np.int64)
    else:  # a sum that fits count balanced digits has the digits of the sum mod 2^(8 count)
        out = np.zeros((_limb_count(bound, _DIGIT_BITS), n_max + 1), dtype=np.int8)
    _fold(out, low, 0, np.add)
    _fold(out, low[..., :m], h, np.subtract)
    del low
    if a.ndim == 1 and 2 * a_max <= _INT64.max:
        both = np.zeros(min(h, m), dtype=np.int64)
    else:  # a0 + a1 might not fit int64
        both = np.zeros((_limb_count(2 * a_max, _DIGIT_BITS), min(h, m)), dtype=np.int8)
    _fold(both, a0, 0, np.add)
    _fold(both, a1, 0, np.add)
    _fold(out, _square(both, m - 1, levels - 1), h, np.add)
    del both
    high = _square(a1, m - 1, levels - 1)
    _fold(out, high, h, np.subtract)
    _fold(out, high, 2 * h, np.add)
    return out


def _dense(exps, coeffs, n_max):
    base = np.zeros(n_max + 1, dtype=np.int64)
    base[exps] = coeffs
    return base


def _sparse_square(exps, coeffs, n_max):
    """(sum c_i q^e_i)^2 to q^n_max.

    When (sum |c_i|)^2 < 2^53, the pairs i <= j are enumerated one block of
    output exponents at a time and summed by bincount in float64, which is
    then exact: every partial sum is an integer below 2^53.  Otherwise this
    is an FFT square.
    """
    if sum(abs(c) for c in coeffs.tolist()) ** 2 >= 1 << 53:
        return _square(_dense(exps, coeffs, n_max), n_max)
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
    int64 array of length n_max + 1, or when an entry is wider than int64
    the (n_max + 1, 2) (low, high) int64 words of the cache body, taken
    straight from the digit rows.  Powers left to right in binary; raises
    RoundingMarginError if an FFT product cannot be rounded with certainty.
    An entry past 128 bits takes more words, which no table accepts.
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
        acc = _sparse_square(exps, coeffs, n_max) if acc is None else _square(acc, n_max)
        if bit == "1":
            acc = _product(acc, _dense(exps, coeffs, n_max), n_max)
    if acc is None:
        return _dense(exps, coeffs, n_max)
    return acc if acc.ndim == 1 else _to_words(acc)


def _to_words(rows):
    """Digit rows as int64 words, low first and the last one signed: the
    cache's (low, high) pairs while every entry fits 128 bits, and int64
    when every entry fits int64.

    One carry pass makes the digits standard, u_j in [0, 2^8), eight to a
    word; the bits above the last row are those of the final carry, -1 or 0."""
    count = len(rows)
    words = np.zeros((rows.shape[1], max(2, count // 8 + 1)), dtype=np.uint64)
    carry = np.zeros(rows.shape[1], dtype=np.int16)
    for j, row in enumerate(rows):
        carry += row
        digit = carry & 0xFF
        carry -= digit
        carry >>= _DIGIT_BITS
        words[:, j // 8] |= digit.astype(np.uint64) << 8 * (j % 8)
    sign = carry.astype(np.int64).view(np.uint64)
    words[:, count // 8] |= sign << 8 * (count % 8)
    words[:, count // 8 + 1 :] = sign[:, None]
    return narrow(words.view(np.int64))

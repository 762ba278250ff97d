"""Exact powers of sparse integer series.

``sparse_power`` raises sum c_i q^{e_i} to the k-th power, truncated at
q^N, exactly.  tau = q (eta^3)^8 and r_d = theta^d are both such powers.
The first square enumerates exponent pairs; every further product is a
float FFT over Z (Pollard 1971) in balanced signed limbs, as wide as keeps
each output diagonal sum_{i+j=k} A_i B_j below 2^40: one rfft per limb,
one irfft per diagonal, each checking its rounding margin and raising
``arith.RoundingMarginError`` rather than round a wrong value.

A square or a product of at least ``_SPLIT_LENGTH`` entries, as is every
FFT square behind tau(164000) or tau(10^6) and the odd-power product of
r_5 or r_7 to 2^20, is cut into ``_SPLIT_BLOCKS`` blocks of w entries,
a = sum_i q^(iw) a_i, and each pair of blocks that reaches q^N is one FFT
product a_i b_j, added into the result at q^((i+j)w) as soon as it is
made (``_multiply``); a square takes each pair i < j once and adds it
twice.  The blocks are views, so nothing is copied, and no transform is
longer than about 2w: every live spectrum and the FFT library's buffers
are an eighth as long as one whole product's.  A truncated square to q^N
takes 20 block products, a truncated product 36.  A tau(164000) build
then holds 8.3 MB at its peak under tracemalloc, against 15.9 MB for
whole squares.  The result has the same bits, dtype and digit rows as the
one product.

Digit rows become the cache's words one block of ``arith._BLOCK`` entries
at a time (``_to_words``), after any zero entries a caller asks for, so
that tau's leading zero costs no copy.  A square that can be summed by
exponent pairs also comes one block of output at a time
(``square_blocks``), which is how r_2 is streamed into its cache file.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from ._words import narrow
from .arith import _BLOCK, RoundingMarginError, table_blocks

_INT64 = np.iinfo(np.int64)

# Limbs are as wide as keeps every output diagonal sum_{i+j=k} A_i B_j below
# this bound, by the bound on each limb (_limb_bounds) and on nnz.
_DIAGONAL_BOUND = 1 << 40
# One limb of 51 bits holds every |x| < 2^50, all _rint_checked accepts;
# with 8-bit digits, every carry then stays below 2^57.
_MAX_WIDTH = 51
_DIGIT_BITS = 8  # a result that may pass int64 is held as int8 rows of balanced digits
_PAIR_CHUNK = 1 << 14  # exponent pairs per bincount, on average, in a sparse square
# An operand of at least this many entries is cut into _SPLIT_BLOCKS blocks
# (_multiply); one spectrum of this length is 2 MB.
_SPLIT_LENGTH = 1 << 17
_SPLIT_BLOCKS = 8


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


def _limb_bounds(m, width):
    """Bounds on |limb j| over the balanced width-bit limbs of every |x| <= m,
    low first: each limb is at most 2^(width-1), and at most what is left of m
    above the limbs below it."""
    half, bounds = 1 << (width - 1), []
    for _ in range(_limb_count(m, width)):
        bounds.append(min(half, m))
        m = (m + half) >> width
    return bounds


def _limb_width(a_max, b_max, nnz):
    """The widest limb whose output diagonals stay below _DIAGONAL_BOUND: no
    diagonal sum_{i+j=k} A_i B_j, with at most nnz limb products to an entry,
    can reach it, by the bounds on each limb."""
    for width in range(_MAX_WIDTH, 1, -1):
        half = 1 << (width - 1)
        if min(a_max, half) * min(b_max, half) * nnz >= _DIAGONAL_BOUND:
            continue  # the lowest diagonal alone may reach the bound
        a, b = _limb_bounds(a_max, width), _limb_bounds(b_max, width)
        top = max(
            sum(a[i] * b[k - i] for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1))
            for k in range(len(a) + len(b) - 1)
        )
        if top * nnz < _DIAGONAL_BOUND:
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
    """a * b to q^n_max, exactly, for int64 a, b or digit rows (b is a for a
    square); digit rows come back when the result may pass int64.  Only the
    entries of each operand that reach q^n_max are read: one past them would
    wrap around the transform."""
    square = b is a
    a = a[..., : n_max + 1]
    b = a if square else b[..., : n_max + 1]
    (a_max, a_nnz), (b_max, b_nnz) = _extent(a), _extent(b)
    nnz = min(a_nnz, b_nnz)
    bound = a_max * b_max * nnz
    width = _limb_width(a_max, b_max, nnz)
    n_fft = _smooth_length(min(2 * n_max + 1, a.shape[-1] + b.shape[-1] - 1))
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


def _fold(out, x, at):
    """out[..., at : at + n] += x, for int64 x or digit rows x of n entries
    that out reaches: int64 out wraps mod 2^64, and digit rows out keep the
    balanced digits of the sum mod 2^(8 len(out))."""
    view = out[..., at : at + x.shape[-1]]
    if out.ndim == 1:
        view += x
        return
    acc = np.zeros(x.shape[-1], dtype=np.int16)  # digit j of the sum, plus the carry into it
    for digit, row in zip(view, _digit_rows(x, len(out))):
        acc += digit
        acc += row
        digit[:] = acc  # wraps to the balanced digit, acc mod 2^8
        acc -= digit
        acc >>= _DIGIT_BITS


def _multiply(a, b, n_max):
    """a * b to q^n_max as ``_product`` returns it, for int64 a, b or digit
    rows (b is a for a square).

    An operand of at least _SPLIT_LENGTH entries is cut into _SPLIT_BLOCKS
    views of w entries, a = sum_i q^(iw) a_i, and a b is the sum of
    q^((i+j)w) a_i b_j over the pairs with (i + j) w <= n_max, each one
    ``_product`` added into the result as soon as it is made; a square adds
    a_i a_j, i < j, twice.  Each pair is asked for no more than its own
    2w - 1 entries, so no spectrum or FFT buffer is longer than about 2w.
    The result is made for the bound that ``_product`` puts on the whole
    product, int64 or as many digit rows: no block product's bound is
    larger, and a sum that fits the rows has their balanced digits mod
    2^(8 rows), so the bits are those of the one product.
    """
    square = b is a
    a = a[..., : n_max + 1]
    b = a if square else b[..., : n_max + 1]
    size = max(a.shape[-1], b.shape[-1])
    if size < _SPLIT_LENGTH:
        return _product(a, b, n_max)
    a_max, a_nnz = _extent(a)
    b_max, b_nnz = (a_max, a_nnz) if square else _extent(b)
    bound = a_max * b_max * min(a_nnz, b_nnz)
    if bound <= _INT64.max:  # as in _product: the sum wraps mod 2^64 but fits int64
        out = np.zeros(n_max + 1, dtype=np.int64)
    else:
        out = np.zeros((_limb_count(bound, _DIGIT_BITS), n_max + 1), dtype=np.int8)
    w = -(-size // _SPLIT_BLOCKS)
    for i in range(0, a.shape[-1], w):
        a_i = a[..., i : i + w]
        for j in range(i if square else 0, min(b.shape[-1], n_max + 1 - i), w):
            b_j = a_i if square and j == i else b[..., j : j + w]
            x = _product(a_i, b_j, min(n_max - i - j, a_i.shape[-1] + b_j.shape[-1] - 2))
            _fold(out, x, i + j)
            if square and j > i:
                _fold(out, x, i + j)  # the mirror pair a_j a_i
            del x  # not held while the next pair is multiplied
    return out


def _dense(exps, coeffs, n_max):
    base = np.zeros(n_max + 1, dtype=np.int64)
    base[exps] = coeffs
    return base


def _pair_blocks(exps, coeffs, n_max):
    """(sum c_i q^e_i)^2 to q^n_max as (start, block) pairs of int64 entries
    that cover 0..n_max in order, when (sum |c_i|)^2 < 2^53.

    The pairs i <= j are enumerated one block of output exponents at a time,
    at most ``arith._BLOCK`` of them and about _PAIR_CHUNK pairs, and summed
    by bincount in float64, which is then exact: every partial sum is an
    integer below 2^53.
    """
    rows = np.arange(len(exps))
    pairs = int(np.maximum(np.searchsorted(exps, n_max - exps, side="right") - rows, 0).sum())
    width = max(1, min(_BLOCK, _PAIR_CHUNK * (n_max + 1) // max(pairs, 1)))
    for lo in range(0, n_max + 1, width):
        hi = min(lo + width, n_max + 1)
        # row i pairs with j in [first_i, first_i + count_i): e_i + e_j in [lo, hi)
        first = np.maximum(rows, np.searchsorted(exps, lo - exps))
        count = np.maximum(np.searchsorted(exps, hi - exps) - first, 0)
        i = np.repeat(rows, count)
        j = np.repeat(first, count) + np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
        w = coeffs[i] * coeffs[j] * np.where(i == j, 1, 2)
        yield lo, np.bincount(exps[i] + exps[j] - lo, weights=w, minlength=hi - lo).astype(np.int64)


def _pairs_exact(coeffs):
    """Whether a square of the series with these coefficients can be summed
    by ``_pair_blocks``."""
    return sum(abs(c) for c in coeffs.tolist()) ** 2 < 1 << 53


def _sparse_square(exps, coeffs, n_max):
    """(sum c_i q^e_i)^2 to q^n_max: by exponent pairs (``_pair_blocks``) when
    they can be summed exactly, and otherwise as an FFT square."""
    if not _pairs_exact(coeffs):
        base = _dense(exps, coeffs, n_max)
        return _multiply(base, base, n_max)
    out = np.empty(n_max + 1, dtype=np.int64)
    for lo, block in _pair_blocks(exps, coeffs, n_max):
        out[lo : lo + len(block)] = block
    return out


def _series(exps, coeffs, k, n_max):
    """The checked arguments of ``sparse_power``, with the terms past q^n_max dropped."""
    exps = np.asarray(exps, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if int(k) < 1 or int(n_max) < 0 or exps.shape != coeffs.shape or exps.ndim != 1:
        raise ValueError("need k >= 1, n_max >= 0 and one coefficient per exponent")
    if len(exps) and (exps[0] < 0 or np.any(exps[1:] <= exps[:-1])):
        raise ValueError("exponents must be nonnegative and strictly increasing")
    keep = exps <= int(n_max)
    return exps[keep], coeffs[keep], int(k), int(n_max)


def sparse_power(exps, coeffs, k, n_max):
    """(sum_i c_i q^{e_i})^k truncated at q^n_max, exactly.

    ``exps`` strictly increasing nonnegative, ``coeffs`` int64.  Returns an
    int64 array of length n_max + 1, or when an entry is wider than int64
    the (n_max + 1, 2) (low, high) int64 words of the cache body, taken
    straight from the digit rows.  Powers left to right in binary; raises
    RoundingMarginError if an FFT product cannot be rounded with certainty.
    An entry past 128 bits takes more words, which no table accepts.
    """
    return _power(*_series(exps, coeffs, k, n_max))


def _power(exps, coeffs, k, n_max, lead=0):
    """``sparse_power`` of checked arguments, after ``lead`` zero entries:
    entry n is the coefficient of q^(n - lead)."""
    power = None
    for bit in bin(k)[3:]:
        power = _sparse_square(exps, coeffs, n_max) if power is None else _multiply(power, power, n_max)
        if bit == "1":
            power = _multiply(power, _dense(exps, coeffs, n_max), n_max)
    if power is None:  # k = 1
        power = _dense(exps, coeffs, n_max)
    if power.ndim == 2:
        return _to_words(power, lead)
    return np.concatenate((np.zeros(lead, dtype=np.int64), power)) if lead else power


def square_blocks(exps, coeffs, n_max):
    """``sparse_power(exps, coeffs, 2, n_max)`` as (start, block) pairs that
    cover 0..n_max in order, each block int64 entries or (low, high) words.
    When the exponent pairs can be summed exactly, as for theta^2 to any
    table size, each block is made as it is drawn and the square is never
    held whole; otherwise the square is made whole and cut into blocks of
    ``arith._BLOCK`` entries.  The arguments are checked when it is called."""
    exps, coeffs, _, n_max = _series(exps, coeffs, 2, n_max)
    if _pairs_exact(coeffs):
        return _pair_blocks(exps, coeffs, n_max)
    return table_blocks(_power(exps, coeffs, 2, n_max))


def _to_words(rows, lead=0):
    """Digit rows as int64 words after ``lead`` zero entries, low first and
    the last one signed: the cache's (low, high) pairs while every entry
    fits 128 bits, and int64 when every entry fits int64.

    The words are as many as hold the bound that ``_extent`` puts on the
    entries, and are made one block of ``arith._BLOCK`` entries at a time: a
    carry pass makes the digits standard, u_j in [0, 2^8), eight to a word,
    and the bits above the last row are those of the final carry, -1 or 0."""
    n = rows.shape[1]
    width = _extent(rows)[0].bit_length() // 64 + 1  # |x| < 2^(64 width - 1)
    count = min(len(rows), 8 * width)  # the rows that reach those words
    words = np.zeros((lead + n, width), dtype=np.uint64)
    for s in range(0, n, _BLOCK):
        block = words[lead + s : lead + s + _BLOCK]
        carry = np.zeros(len(block), dtype=np.int16)
        for j, row in enumerate(rows[:count, s : s + _BLOCK]):
            carry += row
            digit = carry & 0xFF
            carry -= digit
            carry >>= _DIGIT_BITS
            block[:, j // 8] |= digit.astype(np.uint64) << 8 * (j % 8)
        if count < 8 * width:
            sign = carry.astype(np.int64).view(np.uint64)
            block[:, count // 8] |= sign << 8 * (count % 8)
            block[:, count // 8 + 1 :] = sign[:, None]
    return narrow(words.view(np.int64))

"""Exact integer and character arithmetic shared by every counting engine.

This module provides the primitives everything else is built on:

* ``r_d(n)``, the number of representations of n as an ordered sum of d
  squares of integers (signs counted), tabulated exactly as theta^d by
  ``powers.sparse_power``,
* divisor-count sieves d(n) and d_o(n) (all / odd divisors),
* the Kronecker symbol (a/n) extended to all integer bottoms, as a scalar
  (``kronecker``, the oracle) and over an array of bottoms
  (``kronecker_array``); every character array in the package, including
  the Gauss-sum characters of ``charsums``, is built here and nowhere else,
* the Gauss-sum sign eps_d (1 for d = 1 mod 4, i for d = 3 mod 4),
* the values chi(0..N) of a real character, a Kronecker symbol with some
  Euler factors removed (``character_values``), and the truncated
  Dirichlet L-series over them with an honest integral tail bound,
* the little-endian binary cache format used to persist coefficient
  tables between runs.  Tables pass through it one block of ``_BLOCK``
  entries at a time, in both directions, so a process that reads or
  writes a table holds one copy of it plus one block.  A selected read
  (``selection.TableSelection``) keeps from each block only the entries a
  caller uses, and never holds the table,
* the exact folds over stored entries, ``exact_ints`` and ``prefix_blocks``,
* numpy's pairwise summation tree (``_pairwise_sum``), so that a long
  float sum can be taken one run of values at a time with np.sum's bits.

All tables hold exact integers in one ndarray: int64 while every entry
fits, and past that the cache body itself, one (low word, high word) pair
of little-endian int64 per entry.  An exact fold takes one block at a time
through ``exact_ints``, int64 where no sum can wrap and Python ints
otherwise.  Entries that must become Python ints do so one piece of
``_PIECE`` entries at a time, so no table is ever held as Python ints, and
a fold holds at most one piece of them beside what it yields.  Entries are
checked against the signed 128-bit range at construction time so that a
silent wraparound can never poison a downstream identity check.
"""

from __future__ import annotations

import math
import operator
import os
import tempfile

import numpy as np

from . import _words

INT128_MAX = (1 << 127) - 1
INT128_MIN = -(1 << 127)

_INT64 = np.iinfo(np.int64)

# Largest |sum| that ``exact_ints`` lets int64 carry; past it, Python ints.
_INT64_SAFE = 1 << 62
_LOW64 = (1 << 64) - 1

# Entries per block wherever a whole table is streamed: through the cache
# file, and in the long passes of ``lattice`` and ``cuspform``.  Blocks keep
# the transient arrays small; they never change a result's bits.
_BLOCK = 1 << 14
# Stored entries made Python ints at once wherever a whole table is folded:
# each such int with its temporaries takes about 250 B, against 8 or 16 B
# stored, so a piece is a sixteenth of a block.
_PIECE = 1 << 10

# operator.index on every entry of an object array: exact, and TypeError on
# a float or any other non-integer.
_as_int = np.frompyfunc(operator.index, 1, 1)

CACHE_MAGIC = b"GVCT"
CACHE_VERSION = 1


class TableCoverageError(ValueError):
    """A coefficient table is too short for the requested computation."""


class TableOverflowError(OverflowError):
    """A table entry left the signed 128-bit range."""


class RoundingMarginError(ArithmeticError):
    """A float FFT product came back too far from the integers to round exactly."""


class CoefficientTable:
    """Exact integer sequence a(0..N) with 128-bit-bounded entries.

    ``values`` is one read-only ndarray: 1-D int64 when every entry fits,
    and otherwise the cache body, (N+1, 2) little-endian int64 words with
    a(n) = high * 2^64 + (low mod 2^64).  Input may be any iterable or 1-D
    ndarray of integers, or such words; a non-integer entry raises
    TypeError, and nothing is wrapped or truncated.  An int64 ndarray is
    taken as it is, not copied, and made read-only; words that all fit
    become int64.  Entries leave as Python ints one piece of ``_PIECE``
    entries at a time (``exact_ints``).  Tables are immutable and safe to
    share across threads.
    """

    __slots__ = ("label", "n_max", "values")

    def __init__(self, label, values):
        self.label = str(label)
        arr = values if isinstance(values, np.ndarray) else np.fromiter(values, dtype=object)
        too_wide = f"table '{label}' has an entry outside the signed 128-bit range"
        if arr.dtype == object:
            arr = _as_int(arr)
            if arr.min(initial=0) < INT128_MIN or arr.max(initial=0) > INT128_MAX:
                raise TableOverflowError(too_wide)
            low = (arr & _LOW64).astype(np.uint64).view(np.int64)
            arr = np.stack((low, (arr >> 64).astype(np.int64)), axis=1)
        elif not np.issubdtype(arr.dtype, np.integer):
            raise TypeError("coefficient tables hold integers")
        elif arr.dtype.kind == "u" and arr.max(initial=0) > _INT64.max:
            arr = np.stack((arr.view(np.int64), np.zeros(len(arr), dtype=np.int64)), axis=1)
        arr = arr.astype(np.int64, copy=False)
        if arr.ndim == 2:  # words, low first
            arr = _words.narrow(arr)
            if arr.ndim == 2 and arr.shape[1] > 2:
                raise TableOverflowError(too_wide)
        arr.setflags(write=False)
        self.values = arr
        self.n_max = len(arr) - 1
        if self.n_max < 0:
            raise ValueError(f"coefficient table '{self.label}' is empty")

    def __len__(self):
        return self.n_max + 1

    def __getitem__(self, n):
        v = self.values[n]
        return _exact_list(v) if isinstance(n, slice) else _exact_list(v[None])[0]

    def __eq__(self, other):
        if not isinstance(other, CoefficientTable):
            return NotImplemented
        return self.label == other.label and np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"CoefficientTable(label={self.label!r}, n_max={self.n_max})"

    def tolist(self):
        return _exact_list(self.values)

    def floats(self):
        """Entries as float64, each correctly rounded (lossy beyond 2^53)."""
        out = np.empty(len(self))
        for s in range(0, len(out), _PIECE):
            out[s : s + _PIECE] = exact_ints(self.values[s : s + _PIECE], 1)
        return out

    def ints(self):
        """Entries as an int64 numpy array; raises if any entry is too wide."""
        if self.values.ndim == 2:
            raise TableOverflowError(f"table '{self.label}' does not fit in int64")
        return self.values

    def require(self, n, what=""):
        require_coverage(self.label, self.n_max, n, what)


def _exact_list(x):
    """The entries of x, int64 entries or words, as a list of Python ints."""
    return [a for s in range(0, len(x), _PIECE) for a in exact_ints(x[s : s + _PIECE], 1).tolist()]


def _fits(values, count):
    """Whether no sum of ``count`` of the stored entries ``values`` can pass
    _INT64_SAFE, so that int64 carries them."""
    if values.ndim == 2:
        return False
    return count * max(int(values.max(initial=0)), -int(values.min(initial=0))) <= _INT64_SAFE


def exact_ints(values, count):
    """Stored entries (int32, int64 or words) as int64 if no sum of ``count``
    of them can pass _INT64_SAFE, and as Python ints otherwise."""
    return values.astype(np.int64, copy=False) if _fits(values, count) else _words.exact(values)


def prefix_blocks(values):
    """The exact running sums of the stored entries ``values``, as (start,
    sums) pairs of ``_BLOCK`` sums: int64 where the carry is below
    _INT64_SAFE and the block fits int64 (``exact_ints``), and Python ints
    otherwise.  Such a block is folded into its sums one ``_PIECE`` of
    entries at a time, so beside the block's sums only one piece of Python
    ints and its temporaries is held.  A block yielded is released before
    the next is folded, so a consumer that drops it too holds one block."""
    carry = 0
    for s in range(0, len(values), _BLOCK):
        block = values[s : s + _BLOCK]
        if abs(carry) < _INT64_SAFE and _fits(block, len(block)):
            sums = np.cumsum(block, dtype=np.int64)
            sums += carry
        else:
            parts = []
            for p in range(0, len(block), _PIECE):
                parts.append(np.cumsum(_words.exact(block[p : p + _PIECE])))
                parts[-1] += carry
                carry = parts[-1][-1]
            sums = np.concatenate(parts)
        carry = int(sums[-1])
        yield s, sums
        del sums  # not held while the next block is folded


def require_coverage(label, n_max, n, what=""):
    """Raise TableCoverageError unless table ``label`` to n_max reaches n."""
    if n > n_max:
        raise TableCoverageError(
            f"table '{label}' covers n <= {n_max}, "
            f"but {what or 'the computation'} needs n <= {n}"
        )


def _pairwise_sum(leaf, i, m, size, floats=1):
    """np.sum of the m values from index i, bit for bit, given ``leaf(i, j)``,
    the np.sum of values i..j-1 for a run of at most ``size`` values.

    numpy sums pairwise (Higham 1993): it splits a run of n floats at
    n // 2 - (n // 2) % 8 until a run holds at most 128 floats, and a
    complex value counts as ``floats`` = 2 of them.  Split at the same
    points down to runs of at most ``size`` values (size * floats >= 128),
    the runs are the ones numpy sums whole, so the leaves give its bits.
    """
    if m <= size:
        return leaf(i, i + m)
    half = m * floats // 2
    half = (half - half % 8) // floats
    return _pairwise_sum(leaf, i, half, size, floats) + _pairwise_sum(
        leaf, i + half, m - half, size, floats
    )


# ---------------------------------------------------------------------------
# Kronecker symbol and eps_d
# ---------------------------------------------------------------------------

def split_two(n):
    """(v, m) with n = 2^v m and m odd, for a nonzero integer n."""
    n = int(n)
    v = (n & -n).bit_length() - 1
    return v, n >> v


def kronecker(a, n):
    """Kronecker symbol (a/n), extended to all integer bottoms.

    Agrees with the Jacobi symbol for odd positive n and is completely
    multiplicative in both arguments; (a/1) = 1 and (a/0) = [|a| = 1].
    """
    a = int(a)
    n = int(n)
    if n == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # (a/2) factor per power of two in n: 0 unless a odd, then +-1 by a mod 8
    v2, n = split_two(n)
    if v2 % 2 == 1 and a % 8 in (3, 5):
        sign = -sign
    # Jacobi loop on the odd part
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


_QR_TABLES = {}
_QR_TABLE_MIN = 1 << 16  # Legendre tables up to this length are always built


def _legendre(tops, p):
    """(t/p) as int8 for an int64 array of nonnegative tops and an odd prime p.

    A gather from a table of the p symbols, which is cached, while p is at
    most 2^16 or the length of ``tops``; past that the table would outgrow
    the work, and the distinct residues go through ``kronecker`` instead.
    """
    if p > max(_QR_TABLE_MIN, tops.size):
        residues, where = np.unique(tops % p, return_inverse=True)
        return np.array([kronecker(int(r), p) for r in residues], dtype=np.int8)[where]
    tab = _QR_TABLES.get(p)
    if tab is None:
        tab = np.full(p, -1, dtype=np.int8)
        tab[0] = 0
        i = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
        tab[(i * i) % p] = 1
        _QR_TABLES[p] = tab
    return tab[tops % p]


def _jacobi_top_varying(tops, c_odd):
    """(t/c) for an int64 array of nonnegative tops and odd positive c;
    all ones at c = 1."""
    out = np.ones(tops.shape, dtype=np.int8)
    for p, e in factorize(c_odd):
        vals = _legendre(tops, p)
        out = out * vals if e % 2 else out * (vals != 0)
    return out


# bits 2^1, 2^3, ..., 2^61: a power of two 2^v has one of them iff v is odd
_ODD_POWERS_OF_TWO = 0x2AAAAAAAAAAAAAAA


def kronecker_array(a, n):
    """(a/n) as int8 for a fixed integer a and an int64 array of n >= 0.

    The array form of ``kronecker``, with its conventions: (a/0) = [|a| = 1],
    (a/2) = 0 for even a and +-1 by a mod 8 for odd a, and (-1/n) = (-1/n')
    on the odd part n' of n.  With |a| = 2^beta a', the odd part is
    (2/n')^beta (a'/n'), and (a'/n') = (n'/a') (-1)^((a'-1)/2 (n'-1)/2) by
    reciprocity: one Legendre-table gather per prime of a'.  The 2-adic
    split of n runs only when some n is even.
    """
    a = int(a)
    n = np.asarray(n, dtype=np.int64)
    if a == 0:
        return (n == 1).astype(np.int8)
    beta, a_odd = split_two(abs(a))
    odd = n
    has_even = not np.bitwise_and.reduce(n, axis=None) & 1
    if has_even:
        low = n & -n  # 2^v(n), and 0 at n = 0, where odd = 0 gives [|a| = 1]
        odd = n // np.maximum(low, 1)
    out = _jacobi_top_varying(odd, a_odd)
    if has_even:
        if beta:
            out[low != 1] = 0
        elif a_odd % 8 in (3, 5):  # (a/2) = -1
            out[(low & _ODD_POWERS_OF_TWO) != 0] *= -1
    if beta % 2:  # (2/n') = -1 for n' = 3, 5 mod 8
        odd8 = odd & 7
        out[(odd8 == 3) | (odd8 == 5)] *= -1
    if (a_odd % 4 == 3) != (a < 0):  # reciprocity sign, (-1/n'), or both
        out[(odd & 3) == 3] *= -1
    return out


def epsilon(d):
    """Sign of the quadratic Gauss sum: 1 if d = 1 mod 4, i if d = 3 mod 4.

    Exact: returns complex(1, 0) or complex(0, 1). Rejects even d.
    """
    d = int(d)
    if d % 2 == 0:
        raise ValueError(f"eps_d needs odd d, got {d}")
    return complex(1, 0) if d % 4 == 1 else complex(0, 1)


# ---------------------------------------------------------------------------
# Prime machinery (shared sieves, lazily grown)
# ---------------------------------------------------------------------------

_SPF = np.zeros(2, dtype=np.int64)  # smallest prime factor; grown on demand


def smallest_prime_factors(limit):
    """Smallest-prime-factor array for 0..limit (spf[0] = spf[1] = 0)."""
    global _SPF
    if len(_SPF) <= limit:
        n = int(limit) + 1
        spf = np.zeros(n, dtype=np.int64)
        for p in range(2, int(math.isqrt(n - 1)) + 1):
            if spf[p] == 0:
                sl = spf[p * p :: p]
                sl[sl == 0] = p
        rest = np.arange(n, dtype=np.int64)
        spf[spf == 0] = rest[spf == 0]
        spf[0] = spf[1] = 0
        _SPF = spf
    return _SPF


def factorize(n):
    """Prime factorization [(p, multiplicity), ...] by trial division.

    O(sqrt(n)) time and O(1) memory; the shared SPF sieve is not touched.
    """
    n = int(n)
    if n <= 0:
        raise ValueError("factorize needs a positive integer")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


# ---------------------------------------------------------------------------
# Sums of d squares
# ---------------------------------------------------------------------------

def r_d_table(d, n_max):
    """Exact table of r_d(n), 0 <= n <= n_max, as the d-th power of theta.

    theta = 1 + 2 sum_{m >= 1} q^{m^2} counts one coordinate with both signs,
    so r_d is the q-expansion of theta^d; see ``powers.sparse_power``.
    """
    d = int(d)
    n_max = int(n_max)
    if d < 1 or n_max < 0:
        raise ValueError("need d >= 1 and n_max >= 0")
    # imported on first use: a process that reads its tables from the cache
    # never loads the FFT code
    from .powers import sparse_power

    m = np.arange(math.isqrt(n_max) + 1, dtype=np.int64)
    return CoefficientTable(f"r_{d}", sparse_power(m * m, np.where(m == 0, 1, 2), d, n_max))


_HALF_COUNT_CACHE = {}


def _enumerated_norm_counts(dim, n_max):
    """#{x in Z^dim : |x|^2 = n} for n <= n_max by raw grid enumeration.

    Direct enumeration only; no coefficient tables involved.  Shared by the
    r_d, hyperboloid and divisor-identity oracles (dim up to 5); the grid
    grows like n_max^{dim/2}, so callers keep n_max desk-scale.  The last
    coordinate is added to about ``_BLOCK`` points of the others at a time.
    """
    key = (dim, n_max)
    hit = _HALF_COUNT_CACHE.get(key)
    if hit is not None:
        return hit
    root = math.isqrt(n_max)
    side = np.arange(-root, root + 1, dtype=np.int64)
    sq = side * side
    norms = np.zeros(1, dtype=np.int64)  # the one point of Z^0
    for _ in range(dim - 1):
        norms = (norms[:, None] + sq).ravel()
        norms = norms[norms <= n_max]
    counts = np.zeros(n_max + 1, dtype=np.int64)
    rows = max(1, _BLOCK // len(sq))
    for s in range(0, len(norms), rows):
        block = (norms[s : s + rows, None] + sq).ravel()
        np.add.at(counts, block[block <= n_max], 1)
    _HALF_COUNT_CACHE[key] = counts
    return counts


def r_d_bruteforce(d, n):
    """Independent enumeration oracle for r_d(n).

    Enumerates lattice vectors directly (splitting d > 3 into two
    enumerated halves joined on the target norm) and never touches the
    convolution tables.  Guarded so the enumeration stays desk-scale.
    """
    d = int(d)
    n = int(n)
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    if d > 8 or n > 10**4 or (d >= 7 and n > 10**3):
        raise ValueError(f"brute-force guard exceeded for d={d}, n={n}")
    if d <= 4:
        counts = _enumerated_norm_counts(d, n)
        return int(counts[n])
    lo = d // 2
    hi = d - lo
    a = _enumerated_norm_counts(lo, n)
    b = _enumerated_norm_counts(hi, n)
    return int(sum(int(a[j]) * int(b[n - j]) for j in range(n + 1)))


# ---------------------------------------------------------------------------
# Divisor counts
# ---------------------------------------------------------------------------

def divisor_counts(n_max):
    """Sieve d(n) and d_o(n) (all / odd positive divisors) for 1 <= n <= n_max.

    d_o(n) = d(n / 2^v2(n)); the two tables share index 0 = 0.  Divisors
    k <= K = isqrt(n_max) are sieved one k at a time; the larger ones are
    sieved one cofactor j = n / k < n_max / K at a time, as the multiples
    j*k of j with K < k <= n_max / j.  That is O(sqrt(n_max)) slice-adds.
    """
    n_max = int(n_max)
    d_all = np.zeros(n_max + 1, dtype=np.int64)
    d_odd = np.zeros(n_max + 1, dtype=np.int64)
    K = math.isqrt(n_max)
    for k in range(1, K + 1):
        d_all[k::k] += 1
        if k % 2 == 1:
            d_odd[k::k] += 1
    first_odd = K + 1 if K % 2 == 0 else K + 2  # smallest odd k > K
    for j in range(1, n_max // (K + 1) + 1):
        last = j * (n_max // j)
        d_all[j * (K + 1) : last + 1 : j] += 1
        d_odd[j * first_odd : last + 1 : 2 * j] += 1
    return CoefficientTable("d", d_all), CoefficientTable("d_odd", d_odd)


# ---------------------------------------------------------------------------
# Characters and truncated L-series
# ---------------------------------------------------------------------------

def character_values(top, n_max, removed_primes=()):
    """chi(0..n_max) as int8 for the real character n -> (top/n), a
    Kronecker symbol, with the Euler factors at ``removed_primes`` deleted
    and chi(0) = 0; top = 1 is the principal character."""
    chi = kronecker_array(top, np.arange(int(n_max) + 1, dtype=np.int64))
    for p in removed_primes:
        chi[:: int(p)] = 0
    chi[0] = 0
    return chi


def truncated_L(s, chi):
    """Partial Dirichlet series sum_{n <= N} chi(n) n^{-s} with a tail bound,
    for chi(0..N) as from ``character_values``.

    Only valid in the absolute-convergence half-plane Re(s) > 1; the tail
    bound is the integral estimate N^(1 - Re s) / (Re s - 1), which majorizes
    sum_{n > N} n^{-Re s} regardless of the character.
    """
    s = complex(s)
    n_trunc = len(chi) - 1
    if s.real <= 1:
        raise ValueError(f"truncated_L needs Re(s) > 1, got {s}")
    if n_trunc < 1:
        raise ValueError("need at least one term")
    chi_vals = chi[1:].astype(np.float64)
    n = np.arange(1, n_trunc + 1, dtype=np.float64)
    if s.imag == 0.0:
        terms = chi_vals * n ** (-s.real)
        value = complex(math.fsum(terms))
    else:
        value = complex(np.sum(chi_vals * np.exp(-s * np.log(n))))
    tail = n_trunc ** (1.0 - s.real) / (s.real - 1.0)
    return value, tail


# ---------------------------------------------------------------------------
# Coefficient cache files
# ---------------------------------------------------------------------------

def write_table_cache(path, table):
    """Persist a table: magic 'GVCT', u16 version, u16 label length + label,
    u64 N, then (N+1) signed 128-bit little-endian entries.  Atomic."""
    label_bytes = table.label.encode("utf-8")
    if len(label_bytes) > 0xFFFF:
        raise ValueError("label too long")
    header = (
        CACHE_MAGIC
        + CACHE_VERSION.to_bytes(2, "little")
        + len(label_bytes).to_bytes(2, "little")
        + label_bytes
        + table.n_max.to_bytes(8, "little")
    )
    v = table.values
    if v.ndim == 1:
        words = np.empty((min(len(v), _BLOCK), 2), dtype="<i8")  # (low word, high word) per entry
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gvct-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            for s in range(0, len(v), _BLOCK):
                block = v[s : s + _BLOCK]  # words are written as they are
                if v.ndim == 1:
                    _words.put(words[: len(block)], block)
                    block = words[: len(block)]
                fh.write(block.astype("<i8", copy=False))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_exactly(fh, size, path):
    blob = fh.read(size)
    if len(blob) != size:
        raise ValueError(f"{path}: truncated cache file")
    return blob


def read_table_cache(path, n_max=None):
    """Load a table written by ``write_table_cache``: all of it, with an int
    ``n_max`` only its entries 0..n_max, or with a selection (a
    ``selection.TableSelection``) only the entries that it keeps of
    0..selection.n_max, as ``selection.TableEntries``.  The entries up to
    n_max are then all of the body that is read.

    Either way the magic, the version and the body length (against the
    file's size) are verified, so a truncated or over-long file is refused,
    and so is an n_max past the stored table.  The body is read one block
    at a time.  A whole or cut table is copied into the result, which is
    int64 while every entry read so far fits and the body's own words from
    the first block that does not, converting nothing: a prefix has the
    layout a fresh build would give it.  A selected read keeps only what
    the selection picks from each block and never holds the table.
    """
    selection = n_max if hasattr(n_max, "keep") else None
    if selection is not None:
        n_max = selection.n_max
    with open(path, "rb") as fh:
        head = _read_exactly(fh, 8, path)
        if head[:4] != CACHE_MAGIC:
            raise ValueError(f"{path}: bad magic, not a coefficient cache file")
        version = int.from_bytes(head[4:6], "little")
        if version != CACHE_VERSION:
            raise ValueError(f"{path}: unsupported cache version {version}")
        label_len = int.from_bytes(head[6:8], "little")
        rest = _read_exactly(fh, label_len + 8, path)
        label = rest[:label_len].decode("utf-8")
        stored = int.from_bytes(rest[label_len:], "little")
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if body != 16 * (stored + 1):
            raise ValueError(f"{path}: cache body is {body} bytes, not {16 * (stored + 1)}")
        if n_max is None:
            n_max = stored
        elif not 0 <= n_max <= stored:
            raise ValueError(f"{path}: holds n <= {stored}, cannot serve n <= {n_max}")
        n = n_max + 1
        blocks = _body_blocks(fh, n, path)
        if selection is not None:
            return selection.keep(label, blocks)
        out = None
        for s, block in blocks:
            if out is None or block.ndim > out.ndim:  # the first block, or the first wide one
                wide = np.empty((n,) + block.shape[1:], dtype="<i8")
                if s:
                    _words.put(wide[:s], out[:s])
                out = wide
            _words.put(out[s : s + len(block)], block)
    return CoefficientTable(label, out)


def _body_blocks(fh, n, path):
    """The first n entries of a cache body, as (start, block) pairs of
    ``_BLOCK`` entries: the low words (int64) when each entry of the block
    fits int64, and the (low, high) words otherwise; either is a view that
    the next block overwrites."""
    words = np.empty((min(n, _BLOCK), 2), dtype="<i8")  # (low word, high word) per entry
    for s in range(0, n, _BLOCK):
        part = words[: min(_BLOCK, n - s)]
        if fh.readinto(part) != part.nbytes:
            raise ValueError(f"{path}: truncated cache file")
        lo = part[:, 0]
        yield s, lo if np.array_equal(part[:, 1], lo >> 63) else part

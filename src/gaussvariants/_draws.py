"""The draws of ``np.random.default_rng(seed)``, bit for bit, without
importing ``numpy.random``, which costs a process about 5.6 MB of RSS.

Only the three calls the package makes are repeated: a scalar
``integers(low, high)``, a scalar ``uniform(low, high)``, and
``integers(0, n, size=n)``, which is what ``choice(n, size=n)`` draws.
The algorithms are numpy's own:

- SeedSequence: the seed's 32-bit words hashed into a pool of four words,
  then ``generate_state(4, np.uint64)``;
- PCG64 (O'Neill 2014): a 128-bit LCG whose state, stepped before each
  draw, gives 64 bits by XSL-RR; seeded as ``pcg64_set_seed`` does;
- ``next_uint32``: a 64-bit draw serves two 32-bit ones, low half first,
  and the held half lasts across calls;
- Lemire's bounded rejection for ranges up to 2^32;
- ``next_double``: ``(next64 >> 11) * 2**-53``.

Seeds are ints >= 0, as for SeedSequence.  NEP 19 keeps the streams of
``Generator.integers`` and ``uniform`` stable across numpy releases only
by convention; the tests compare these draws with the installed numpy's.
"""

import numbers

import numpy as np

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(const, mult):
    """SeedSequence's hash; each call advances its running constant."""

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
    return r ^ r >> 16


def _seed_state(seed):
    """``SeedSequence(seed).generate_state(4, np.uint64)``."""
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)
    words = [hashmix(pool[i % 4]) for i in range(8)]
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """The stream of ``np.random.default_rng(seed)`` for ``integers`` with a
    range of at most 2^32 and for ``uniform``."""

    def __init__(self, seed):
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError("a seed must be an int >= 0")
        s0, s1, i0, i1 = _seed_state(int(seed))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = 0
        self._step()
        self._state += s0 << 64 | s1
        self._step()
        self._half = None  # the high half of the last 64-bit draw, not yet used

    def _step(self):
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def _next64(self):
        self._step()
        s = self._state
        word, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (word >> rot | word << (64 - rot)) & _M64

    def _next32(self):
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def _below(self, n):
        """A draw from [0, n), 1 <= n <= 2^32; n = 1 draws no bits."""
        if n == 1:
            return 0
        m = self._next32() * n
        if m & _M32 < n:
            threshold = (1 << 32) % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return m >> 32

    def integers(self, low, high, size=None):
        """An int from [low, high), or an int64 array of ``size`` of them."""
        n = high - low
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"the range [{low}, {high}) must hold 1 to 2^32 ints")
        if size is None:
            return low + self._below(n)
        return np.array([low + self._below(n) for _ in range(size)], dtype=np.int64)

    def uniform(self, low, high):
        """A float from [low, high)."""
        low, high = float(low), float(high)
        return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)

"""The in-memory layout of a wide coefficient table: its cache body.

A table whose entries do not all fit int64 is held as one (N+1, 2) array of
little-endian int64 words, low word first, a(n) = high * 2^64 + (low mod
2^64): the body of its cache file, read and written as it is.  An exact
power past 128 bits (``powers.sparse_power``) takes a third word or more,
which no table accepts.  ``exact`` is the one place where entries become
Python ints.  The folds over a table give it at most one piece of
``arith._PIECE`` entries at a time, so no table is ever held as Python ints
and a fold holds one piece of them with its temporaries.

The helpers live apart from ``arith`` so that its compile, which every
`gv` process does from source, stays small.
"""

from __future__ import annotations

import numpy as np


def exact(x):
    """The entries of x, int64 entries or words, as Python ints in an object array."""
    if x.ndim == 1:
        return x.astype(object)
    out = x[:, -1].astype(object)
    for j in range(x.shape[1] - 2, -1, -1):
        out = (out << 64) + x[:, j].view(np.uint64).astype(object)
    return out


def narrow(words):
    """int64 ``words`` less each top word that only repeats the sign of the
    one below it: int64 entries when every entry fits int64.  A top word is
    compared one block of ``arith._BLOCK`` entries at a time, up to the
    first block where it does not repeat the sign."""
    from .arith import _BLOCK  # arith imports this module

    while words.shape[1] > 1 and all(
        np.array_equal(words[s : s + _BLOCK, -1], words[s : s + _BLOCK, -2] >> 63)
        for s in range(0, len(words), _BLOCK)
    ):
        words = words[:, :-1]
    return words[:, 0].copy() if words.shape[1] == 1 else np.ascontiguousarray(words, dtype="<i8")


def put(out, x):
    """Write x, integer entries or words, into ``out`` of the same layout,
    or entries into (low, high) words: the high word of an entry that fits
    int64 is its sign."""
    if x.ndim == out.ndim:
        out[...] = x
    else:
        out[:, 0] = x
        np.right_shift(x, 63, out=out[:, 1], dtype=np.int64)

"""Selected reads: only the entries of a coefficient table that a sum uses.

Both lattice problems read a small part of the r_d table they would load.
The circle's ball counts, mean square and Bessel series need only the
nonzero entries of r_2 (about a fifth of them to 10^6), and a hyperboloid sum
sum_m r_{d-1}(m^2 + h) needs only the entries at m^2 + h (1 145 of the
1 308 737 that the default `smooth-hyperboloid` reaches).

A ``TableSelection`` names the entries to keep.  It is applied one block
of ``arith._BLOCK`` entries at a time, in the same way to a cache file as
it streams (``arith.read_table_cache``) and to a table just built
(``TableSelection.apply``), so both give the same ``TableEntries``: the
kept (n, a(n)) pairs, exactly, without a copy of the table.  The sums read
them in order, not by value: a circle sum takes the complete entries of a
nonzero selection, and a hyperboloid sum the entries of a shell selection,
r(m^2 + h) at position m.

The module is imported by the commands that select, when they select: a
`gv` process without cached bytecode compiles every module it imports,
and the checks that read no table need not pay for this one.
"""

from __future__ import annotations

import operator

import numpy as np

from . import arith
from ._words import narrow, put


class TableSelection:
    """Which entries of a table a(0..n_max) a selected read keeps.

    With ``index`` None it keeps every nonzero entry, so what it keeps stands
    for the whole table; otherwise it keeps the entries at ``index``, an
    ascending array of distinct n in 0..n_max.
    """

    __slots__ = ("n_max", "index")

    def __init__(self, n_max, index=None):
        n_max = operator.index(n_max)
        if n_max < 0:
            raise ValueError(f"a selection reads the entries 0..n_max of a table, got n_max = {n_max}")
        if index is not None:
            index = np.asarray(index, dtype=np.int64)
            if index.ndim != 1 or np.any(np.diff(index) <= 0) or index.size and not (
                0 <= index[0] and index[-1] <= n_max
            ):
                raise ValueError(f"a selection's index is ascending and distinct, in 0..{n_max}")
        self.n_max = n_max
        self.index = index

    def pick(self, start, block):
        """Positions in ``block``, the entries a(start..start + len(block) - 1),
        of the entries kept."""
        if self.index is None:  # != 0 is twice as fast as on the integers
            return np.flatnonzero(block != 0 if block.ndim == 1 else block.any(axis=1))
        lo, hi = np.searchsorted(self.index, (start, start + len(block)))
        return self.index[lo:hi] - start

    def keep(self, label, blocks, room=None):
        """The TableEntries of table ``label`` that this selection keeps from
        ``blocks``: (start, block) pairs, block holding a(start..), that
        cover 0..n_max in order.  A block may be overwritten once the next
        one is drawn; nothing kept refers to it.  A block holds int64
        entries, or (low, high) words as in the cache body.

        The pairs are written into arrays with ``room`` for them, by default
        for every entry the selection could keep (all n_max + 1 for the
        nonzero selection); the arrays are cut to the kept length at the
        end, so only the part written is ever touched.  The values are
        int32 up to the first kept entry that does not fit, then int64 up
        to the first that does not fit that, then words.
        """
        if room is None:
            room = self.n_max + 1 if self.index is None else len(self.index)
        index = np.empty(room, dtype=np.int32 if self.n_max < 2**31 else np.int64)
        values = np.empty(room, dtype=np.int32)
        kept = 0
        for start, block in blocks:
            pos = self.pick(start, block)
            got = _width(block[pos])
            if (got.ndim, got.dtype.itemsize) > (values.ndim, values.dtype.itemsize):
                wider = np.empty((room,) + got.shape[1:], dtype=got.dtype)
                put(wider[:kept], values[:kept])
                values = wider
            put(values[kept : kept + len(pos)], got)
            pos += start
            index[kept : kept + len(pos)] = pos
            kept += len(pos)
        index.resize(kept, refcheck=False)  # shrinks the allocation in place
        values.resize((kept,) + values.shape[1:], refcheck=False)
        return TableEntries(label, self.n_max, index, values, self.index is None)

    def apply(self, table):
        """The entries of the CoefficientTable ``table`` that this selection
        keeps, picked one block at a time as from a cache file, into arrays
        of the kept length."""
        table.require(self.n_max, "the selection")
        v = table.values[: self.n_max + 1]
        if self.index is None:
            room = np.count_nonzero(v if v.ndim == 1 else v.any(axis=1))
        else:
            room = len(self.index)
        blocks = ((s, v[s : s + arith._BLOCK]) for s in range(0, len(v), arith._BLOCK))
        return self.keep(table.label, blocks, room)


def _width(values):
    """``values``, int64 entries or words, in the narrowest of int32, int64
    and (low, high) words that holds them."""
    if values.ndim == 2:
        values = narrow(values)
        if values.ndim == 2:
            return values
    info = np.iinfo(np.int32)
    fits = info.min <= values.min(initial=0) and values.max(initial=0) <= info.max
    return values.astype(np.int32 if fits else np.int64, copy=False)


class TableEntries:
    """The entries (n, a(n)) of table ``label`` to n_max that a
    ``TableSelection`` kept.

    ``index`` is ascending, int32 while n_max < 2^31, and ``values`` holds
    the a(n) exactly, in the narrowest of int32, int64 and the cache body's
    (low, high) int64 words that holds every kept entry.  ``complete`` says
    that every nonzero entry was kept, so an entry not listed is 0 and the
    entries stand for the whole table.  Both arrays are read-only.  There
    is no lookup by n: the sums read ``between`` two bounds, or by position.
    """

    __slots__ = ("label", "n_max", "index", "values", "complete")

    def __init__(self, label, n_max, index, values, complete):
        self.label = str(label)
        self.n_max = int(n_max)
        self.index = np.asarray(index)
        self.index.setflags(write=False)
        self.values = _width(np.asarray(values))
        self.values.setflags(write=False)
        self.complete = bool(complete)
        if self.index.shape != self.values.shape[:1]:
            raise ValueError(f"entries of table '{self.label}' need one value per index")

    def __len__(self):
        return len(self.index)

    def require(self, n, what=""):
        arith.require_coverage(self.label, self.n_max, n, what)

    def between(self, lo, hi):
        """(index, values) of the entries kept with lo <= n <= hi, as views.
        The bounds are searched for as the index's dtype: numpy would copy
        an int32 index to int64 to search it for a Python int."""
        lo, hi = np.array((lo, hi), dtype=self.index.dtype)
        a, b = np.searchsorted(self.index, lo), np.searchsorted(self.index, hi, side="right")
        return self.index[a:b], self.values[a:b]

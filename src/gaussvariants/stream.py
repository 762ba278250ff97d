"""Cold builds that stream: a table made one block at a time and written
into its cache file as it is made.

``r_d_blocks`` gives r_d(0..N) as (start, block) pairs; r_2, the square of
theta, comes from ``powers.square_blocks`` one block at a time and is never
held whole.  ``stream_table_cache`` writes such pairs into a cache file and
passes each on once it is written, so that ``cli.cached_table`` hands a
cold build to a selection in the same pass, as a cache file streams into it
on a warm read.  ``arith.write_table_cache`` is this writer drawn to the
end.

The module is loaded only on a cache miss: a warm `gv` process neither
compiles nor holds it.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import arith
from ._words import put
from .arith import _BLOCK, CACHE_MAGIC, CACHE_VERSION


def r_d_blocks(d, n_max):
    """The table of r_d(n), 0 <= n <= n_max, as (start, block) pairs that
    cover it in order, for a consumer that takes it one block at a time:
    ``cli.cached_table`` streams a build into the cache file and a selection.

    r_2 is theta^2, which ``powers.square_blocks`` makes one block at a time
    as the blocks are drawn, so it is never held whole.  Any other d is
    built whole by ``arith.r_d_table`` when this is called, and cut into
    blocks of ``arith._BLOCK`` entries.  Either way the arguments are
    checked at the call.
    """
    d = int(d)
    n_max = int(n_max)
    if d != 2:
        return arith.table_blocks(arith.r_d_table(d, n_max).values)
    if n_max < 0:
        raise ValueError("need d >= 1 and n_max >= 0")
    from .powers import square_blocks

    return square_blocks(*arith.theta_series(n_max), n_max)


def stream_table_cache(path, label, n_max, blocks):
    """Write table ``label`` to n_max as ``arith.write_table_cache`` does, from
    ``blocks``, (start, block) pairs of int64 entries or (low, high) words
    that cover 0..n_max in order, and yield each pair on once it is written.

    So a consumer that draws the pairs reads the table and writes its cache
    file in one pass, and holds one block of it at a time.  The file is put
    in place, atomically, when the last pair has been drawn; a consumer
    that stops early or raises leaves no file, and pairs that do not cover
    0..n_max raise ValueError."""
    label_bytes = label.encode("utf-8")
    if len(label_bytes) > 0xFFFF:
        raise ValueError("label too long")
    header = (
        CACHE_MAGIC
        + CACHE_VERSION.to_bytes(2, "little")
        + len(label_bytes).to_bytes(2, "little")
        + label_bytes
        + n_max.to_bytes(8, "little")
    )
    words = np.empty((min(n_max + 1, _BLOCK), 2), dtype="<i8")  # (low word, high word) per entry
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gvct-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            written = 0
            for start, block in blocks:
                if start != written or written + len(block) > n_max + 1:
                    raise ValueError(f"{path}: a block at {start} does not follow entry {written - 1}")
                for _, part in arith.table_blocks(block):  # words are written as they are
                    if part.ndim == 1:
                        put(words[: len(part)], part)
                        part = words[: len(part)]
                    fh.write(part.astype("<i8", copy=False))
                written += len(block)
                yield start, block
            if written != n_max + 1:
                raise ValueError(f"{path}: the blocks end at entry {written - 1}, not {n_max}")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

"""Property tests of CoefficientTable storage and the version-1 cache file."""

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gaussvariants import arith  # noqa: E402

INT64 = np.iinfo(np.int64)

# Draws cluster at the int64 and 64-bit word edges as well as spanning 128 bits.
entry = st.one_of(
    st.integers(arith.INT128_MIN, arith.INT128_MAX),
    st.integers(-(2**65), 2**65),
    st.integers(-1000, 1000),
    st.sampled_from([INT64.min, INT64.max, 2**63, 2**64 - 1, 2**64, arith.INT128_MIN]),
)
tables = st.lists(entry, min_size=1, max_size=40)


def reference_file(label, values):
    """The version-1 layout, written entry by entry with int.to_bytes."""
    label_bytes = label.encode("utf-8")
    return (
        arith.CACHE_MAGIC
        + arith.CACHE_VERSION.to_bytes(2, "little")
        + len(label_bytes).to_bytes(2, "little")
        + label_bytes
        + (len(values) - 1).to_bytes(8, "little")
        + b"".join(v.to_bytes(16, "little", signed=True) for v in values)
    )


@settings(database=None, deadline=None)
@given(tables)
def test_dtype_is_int64_exactly_when_every_entry_fits(values):
    t = arith.CoefficientTable("t", values)
    fits = all(INT64.min <= v <= INT64.max for v in values)
    assert t.values.dtype == (np.int64 if fits else object)
    assert t.tolist() == values
    assert [t[n] for n in range(len(t))] == values
    assert arith.CoefficientTable("t", np.array(values, dtype=object)) == t


@settings(database=None, deadline=None)
@given(tables, st.integers(1, 2**127))
def test_entries_past_128_bits_rejected(values, excess):
    for bad in (arith.INT128_MAX + excess, arith.INT128_MIN - excess):
        with pytest.raises(arith.TableOverflowError):
            arith.CoefficientTable("t", values + [bad])


@settings(database=None, deadline=None)
@given(tables)
def test_cache_round_trip(values):
    table = arith.CoefficientTable("prop", values)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prop.gvct")
        arith.write_table_cache(path, table)
        with open(path, "rb") as fh:
            assert fh.read() == reference_file("prop", values)
        back = arith.read_table_cache(path)
    assert back == table
    assert back.values.dtype == table.values.dtype
    assert back.tolist() == values

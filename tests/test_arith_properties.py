"""Property tests of CoefficientTable storage, the version-1 cache file,
the exact folds over stored entries, the exact sparse power, the r_d
tables, the Kronecker symbol and numpy's pairwise sum rebuilt leaf by leaf."""

import itertools
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gaussvariants import arith, powers  # noqa: E402

INT64 = np.iinfo(np.int64)

# Draws cluster at the int64 and 64-bit word edges as well as spanning 128 bits.
entry = st.one_of(
    st.integers(arith.INT128_MIN, arith.INT128_MAX),
    st.integers(-(2**65), 2**65),
    st.integers(-1000, 1000),
    st.sampled_from([INT64.min, INT64.max, 2**63, 2**64 - 1, 2**64, arith.INT128_MIN]),
    # +-2^e + d across the 2^63, 2^64 and 2^127 edges
    st.builds(
        lambda sign, e, d: sign * 2**e + d,
        st.sampled_from([1, -1]),
        st.sampled_from([63, 64, 127]),
        st.integers(-2, 2),
    ).filter(lambda v: arith.INT128_MIN <= v <= arith.INT128_MAX),
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
    # int64 entries, or the (low, high) int64 words of the cache body
    assert t.values.dtype == np.int64
    assert t.values.shape == ((len(values),) if fits else (len(values), 2))
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
@given(tables, st.one_of(st.integers(1, 4), st.just(arith._BLOCK)))
# int64 in the first two blocks of 3, then a wide entry; prefixes end on
# either side of each block edge
@example([1, -2, 3, INT64.max, INT64.min, 6, 2**64, 8], 3)
def test_cache_round_trip(values, block):
    table = arith.CoefficientTable("prop", values)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(arith, "_BLOCK", block)
        path = os.path.join(tmp, "prop.gvct")
        arith.write_table_cache(path, table)
        with open(path, "rb") as fh:
            assert fh.read() == reference_file("prop", values)
        back = arith.read_table_cache(path)
        prefixes = [arith.read_table_cache(path, n) for n in range(len(values))]
    for n, prefix in enumerate(prefixes):
        cut = arith.CoefficientTable("prop", values[: n + 1])
        assert prefix == cut
        assert prefix.values.dtype == cut.values.dtype
        assert prefix.values.shape == cut.values.shape
    assert back == table
    assert back.values.dtype == table.values.dtype
    assert back.tolist() == values
    # in memory, a wide table is its cache body: the same (low, high) words
    body = reference_file("prop", values)[-16 * len(values) :]
    words = np.frombuffer(body, dtype="<i8").reshape(-1, 2)
    for t in (table, back, *prefixes):
        if t.values.ndim == 2:
            assert t.values.tobytes() == body[: t.values.nbytes]
        else:  # int64 entries are the low words, the high words their signs
            assert np.array_equal(t.values, words[: len(t), 0])
            assert np.array_equal(words[: len(t), 1], t.values >> 63)


@settings(database=None, deadline=None)
@given(st.lists(entry, max_size=40), st.integers(1, 5), st.booleans(), st.integers(1, 2**63))
# the carry passes 2^62 after the second block of 3 and comes back below it
@example([2**61] * 6 + [-(2**62)] * 3 + [1, 2], 3, False, 3)
def test_exact_folds_are_the_python_int_sums(values, block, narrow, count):
    # the entries as a table or a selection stores them: int64, or words past
    # int64, and int32 (a selection's narrowest) where they fit
    stored = arith.CoefficientTable("t", [0] + values).values[1:]
    if narrow and all(-(2**31) <= v < 2**31 for v in values):
        stored = stored.astype(np.int32)
    widest = max(map(abs, values), default=0)
    got = arith.exact_ints(stored, count)
    assert got.tolist() == values
    assert got.dtype == (np.int64 if stored.ndim == 1 and count * widest <= 2**62 else object)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_BLOCK", block)
        pairs = list(arith.prefix_blocks(stored))
    assert [s for s, _ in pairs] == list(range(0, len(values), block))
    assert [v for _, sums in pairs for v in sums.tolist()] == list(itertools.accumulate(values))
    for s, sums in pairs:  # int64 only where neither the carry nor the block can wrap
        carry, part = sum(values[:s]), values[s : s + block]
        int64 = stored.ndim == 1 and abs(carry) < 2**62 and len(part) * max(map(abs, part)) <= 2**62
        assert sums.dtype == (np.int64 if int64 else object)


def naive_power(exps, coeffs, k, n_max):
    """(sum c_i q^e_i)^k to q^n_max by a Python-int convolution loop."""
    base = dict((e, c) for e, c in zip(exps, coeffs) if e <= n_max)
    acc = [base.get(n, 0) for n in range(n_max + 1)]
    for _ in range(k - 1):
        nxt = [0] * (n_max + 1)
        for e, c in base.items():
            for j in range(n_max + 1 - e):
                nxt[e + j] += c * acc[j]
        acc = nxt
    return acc


@st.composite
def power_cases(draw):
    n_max = draw(st.integers(0, 200))
    exps = sorted(draw(st.sets(st.integers(0, 220), max_size=12)))
    width = draw(st.sampled_from([2, 2**12, 2**40]))
    coeffs = draw(st.lists(st.integers(-width, width), min_size=len(exps), max_size=len(exps)))
    return exps, coeffs, draw(st.integers(1, 8)), n_max


def test_sparse_power_matches_naive_convolution_on_every_path(monkeypatch):
    seen = set()
    real = powers._limb_width

    def limb_width(a_max, b_max, nnz):
        width = real(a_max, b_max, nnz)
        limbs = max(powers._limb_count(a_max, width), powers._limb_count(b_max, width))
        seen.add("one limb" if limbs == 1 else "several limbs")
        return width

    monkeypatch.setattr(powers, "_limb_width", limb_width)
    real_product = powers._product

    def product(a, b, n_max):
        if a.shape[-1] < n_max + 1:  # only the a0^2 of a split square is shorter than its result
            seen.add("split square")
        return real_product(a, b, n_max)

    monkeypatch.setattr(powers, "_product", product)
    monkeypatch.setattr(powers, "_SPLIT_LENGTH", 8)

    # one draw per path, so each is reached whatever the random draws
    @example(([0, 1, 3], [1, -2, 1], 3, 40))  # small: one limb, one float FFT
    @example(([0, 2, 7], [4000, -3999, 17], 4, 60))  # past 2^40: several limbs, split square
    @example(([0, 1], [2**40, -(2**40) + 1], 3, 10))  # past int64: words
    @settings(database=None, deadline=None, max_examples=150)
    @given(power_cases())
    def check(case):
        out = powers.sparse_power(*case)
        want = naive_power(*case)
        assert arith._exact_list(out) == want
        # int64 entries, or the fewest int64 words, low first, that hold each
        words = min(w for w in range(1, 9) if all(-(2 ** (64 * w - 1)) <= v < 2 ** (64 * w - 1) for v in want))
        assert out.dtype == np.int64 and out.shape == (len(want),) + ((words,) if words > 1 else ())
        if words > 1:
            seen.add("words")

    check()
    assert seen == {"one limb", "several limbs", "words", "split square"}


@settings(database=None, deadline=None, max_examples=40)
@given(st.integers(1, 8), st.integers(0, 300))
def test_r_d_table_matches_enumeration(d, n):
    assert arith.r_d_table(d, n)[n] == arith.r_d_bruteforce(d, n)


tops = st.integers(-(10**6), 10**6)
bottoms = st.integers(1, 10**5)


@settings(database=None, deadline=None)
@given(tops, st.lists(st.integers(0, 10**5), max_size=60))
@example(-8, [0, 1, 2, 4, 6, 8, 16])
@example(12, [0, 2, 3, 9, 24])
@example(-1, [0, 1, 2, 3])
@example(0, [0, 1, 2])
def test_kronecker_array_is_the_scalar_symbol(a, ns):
    got = arith.kronecker_array(a, np.array(ns, dtype=np.int64))
    assert got.dtype == np.int8
    assert got.tolist() == [arith.kronecker(a, n) for n in ns]


@settings(database=None, deadline=None)
@given(tops, bottoms, bottoms)
@example(3, 2, 4)
@example(-6, 3, 8)
def test_kronecker_multiplicative_in_the_bottom(a, m, n):
    both = arith.kronecker_array(a, np.array([m, n, m * n], dtype=np.int64))
    assert both[2] == both[0] * both[1]
    assert arith.kronecker(a, m * n) == arith.kronecker(a, m) * arith.kronecker(a, n)


@settings(database=None, deadline=None)
@given(tops, tops, bottoms)
@example(-1, -1, 2)
@example(2, -3, 6)
def test_kronecker_multiplicative_in_the_top(a, b, n):
    ns = np.array([n], dtype=np.int64)
    assert arith.kronecker_array(a * b, ns) == arith.kronecker_array(a, ns) * arith.kronecker_array(b, ns)
    assert arith.kronecker(a * b, n) == arith.kronecker(a, n) * arith.kronecker(b, n)


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 4000),
    leaf=st.integers(128, 520),
    complex_values=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairwise_sum_is_np_sum(m, leaf, complex_values, seed):
    # numpy's own leaf holds 128 floats: 128 real or 64 complex values
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(m) * 10.0 ** rng.integers(-6, 7, m)
    floats = 1
    if complex_values:
        x = x + 1j * rng.standard_normal(m)
        floats, leaf = 2, leaf // 2
    assert arith._pairwise_sum(lambda i, j: np.sum(x[i:j]), 0, m, leaf, floats) == np.sum(x)

"""_draws gives the draws of np.random.default_rng(seed) bit for bit, for
the calls the package makes, in the order its commands make them."""

import numpy as np
import pytest

from gaussvariants import _draws

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def assert_same_stream(seed, sizes):
    """hardy's interleaved integers/uniform pairs, then a bootstrap's rows
    at each n of sizes, taken alike from numpy and from _draws."""
    want, got = np.random.default_rng(seed), _draws.Generator(seed)
    for _ in range(20):
        assert got.integers(10, 999) == want.integers(10, 999)
        assert got.uniform(0.3, 0.7) == want.uniform(0.3, 0.7)
    for n in sizes:
        rows = got.integers(0, n, size=n)
        assert rows.dtype == np.int64
        np.testing.assert_array_equal(rows, want.choice(n, size=n, replace=True))
    # and the stream is still in step after them
    assert got.uniform(0, 1) == want.uniform(0, 1)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1])
def test_edge_seeds(seed):
    assert_same_stream(seed, range(1, 65))


@settings(database=None, deadline=None, max_examples=60)
@given(st.integers(0, 2**256 - 1), st.lists(st.integers(1, 64), max_size=8))
def test_any_seed(seed, sizes):
    assert_same_stream(seed, sizes)


def test_ranges_up_to_2_to_the_32():
    # past 2^31, Lemire's rejection threshold is near its largest
    want, got = np.random.default_rng(5), _draws.Generator(5)
    for n in [2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]:
        assert [got.integers(0, n) for _ in range(50)] == [want.integers(0, n) for _ in range(50)]


@pytest.mark.parametrize("seed", [-1, -(2**64), 1.0, "3", None])
def test_seed_is_an_int_at_least_0(seed):
    with pytest.raises(ValueError, match="a seed must be an int >= 0"):
        _draws.Generator(seed)


@pytest.mark.parametrize("low, high", [(0, 0), (5, 4), (0, 2**32 + 1)])
def test_range_holds_1_to_2_to_the_32_ints(low, high):
    with pytest.raises(ValueError, match="must hold 1 to 2\\^32 ints"):
        _draws.Generator(0).integers(low, high)

"""Property test of the blocked trapezoid's sum: numpy's pairwise sum,
rebuilt block by block, at any length and block size."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gaussvariants import kernels  # noqa: E402


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 4000), block=st.integers(64, 520), seed=st.integers(0, 2**32 - 1))
def test_pairwise_join_is_np_sum(m, block, seed):
    # numpy's own pairwise leaf holds 64 complex values, the least block
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(m) * 10.0 ** rng.integers(-6, 7, m) + 1j * rng.standard_normal(m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK", block)
        joined = kernels._pairwise_sum(0, m, lambda i, j: np.sum(x[i:j]))
    assert joined == np.sum(x)

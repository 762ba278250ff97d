"""Cold builds that stream: r_d in blocks, and the cache writer that passes
each block on once it is written."""

import itertools

import numpy as np
import pytest

from gaussvariants import arith, stream


class TestStream:
    def test_stream_writes_what_write_table_cache_writes(self, tmp_path):
        # blocks of any length, int64 entries and words, pass through unchanged
        wide = [0, -1, 2**63 - 1, -(2**63), 2**64, 2**127 - 1, -(2**127), -(1 << 90), 7]
        table = arith.CoefficientTable("wide", wide + list(range(40000)))
        v = table.values
        cuts = [0, 3, 5, 20000, 20011, len(v)]
        blocks = [(a, v[a:b]) for a, b in zip(cuts, cuts[1:])]
        passed = list(stream.stream_table_cache(tmp_path / "s.gvct", "wide", table.n_max, iter(blocks)))
        assert [start for start, _ in passed] == cuts[:-1] and all(x is y for (_, x), (_, y) in zip(passed, blocks))
        arith.write_table_cache(tmp_path / "w.gvct", table)
        assert (tmp_path / "s.gvct").read_bytes() == (tmp_path / "w.gvct").read_bytes()

    @pytest.mark.parametrize(
        "spans", [[(0, 5), (5, 30)], [(0, 5), (5, 31), (31, 33)], [(0, 5), (6, 31)], [(0, 12), (5, 31)]],
        ids=["short", "long", "gap", "overlap"],
    )
    def test_stream_that_does_not_cover_the_table_leaves_no_file(self, tmp_path, spans):
        v = np.concatenate((arith.r_d_table(2, 30).values, [0, 0]))  # 31 entries, and two past them
        blocks = iter([(a, v[a:b]) for a, b in spans])
        with pytest.raises(ValueError, match="r2.gvct"):
            for _ in stream.stream_table_cache(tmp_path / "r2.gvct", "r_2", 30, blocks):
                pass
        assert list(tmp_path.iterdir()) == []

    def test_stream_left_early_leaves_no_file(self, tmp_path):
        v = arith.r_d_table(2, 30).values
        passing = stream.stream_table_cache(tmp_path / "r2.gvct", "r_2", 30, iter([(0, v[:10]), (10, v[10:])]))
        next(passing)
        assert len(list(tmp_path.iterdir())) == 1  # the temporary file
        passing.close()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_r_d_blocks_cover_the_table(self, d):
        table = arith.r_d_table(d, 100000)
        blocks = list(stream.r_d_blocks(d, 100000))
        assert [s for s, _ in blocks] == list(itertools.accumulate([0] + [len(b) for _, b in blocks[:-1]]))
        assert np.array_equal(np.concatenate([b for _, b in blocks]), table.values)
        assert max(len(b) for _, b in blocks) <= arith._BLOCK

    def test_r_d_blocks_checks_its_arguments_when_called(self):
        with pytest.raises(ValueError):
            stream.r_d_blocks(2, -1)
        with pytest.raises(ValueError):
            stream.r_d_blocks(0, 10)

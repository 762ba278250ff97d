"""Selected reads: the kept entries of a cache file or a built table."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from gaussvariants import arith, lattice
from gaussvariants.selection import TableEntries, TableSelection

B = arith._BLOCK


@pytest.fixture(scope="module")
def r2_table():
    return arith.r_d_table(2, 3 * B + 17)


def wide_table():
    """int32, int64 and wider-than-int64 entries, zeros between them, over
    three blocks; the first wide entry is in the second block."""
    values = [0] * (2 * B + 9)
    values[1], values[B - 1], values[B] = 5, -(1 << 40), 1 << 90
    values[B + 3], values[2 * B] = -(1 << 100) + 7, 2**31
    values[-1] = -3
    return arith.CoefficientTable("wide", values)


def expected(table, selection):
    """The pairs of ``selection`` taken from the whole table by hand."""
    v = table.tolist()[: selection.n_max + 1]
    index = [n for n, a in enumerate(v) if a] if selection.index is None else selection.index.tolist()
    return index, [v[n] for n in index]


def layout(values):
    """int32 or int64 entries, or "words": (low, high) int64 pairs."""
    return "words" if values.ndim == 2 and values.dtype == np.int64 else values.dtype


def read_both(tmp_path, table, selection, name="t.gvct"):
    path = tmp_path / name
    arith.write_table_cache(path, table)
    return arith.read_table_cache(path, selection), selection.apply(table)


SELECTIONS = {
    "nonzero, whole": lambda n: TableSelection(n),
    "nonzero, to 0": lambda n: TableSelection(0),
    "nonzero, to block - 1": lambda n: TableSelection(B - 1),
    "nonzero, to block": lambda n: TableSelection(B),
    "index at the block edges": lambda n: TableSelection(n, [0, B - 1, B, n]),
    "index, empty": lambda n: TableSelection(n, []),
    "index, one past a prefix": lambda n: TableSelection(B + 3, [2, B + 3]),
    "shells": lambda n: TableSelection(n, lattice.shell_indices(1, n)),
}


class TestSelectedRead:
    @pytest.mark.parametrize("case", SELECTIONS)
    @pytest.mark.parametrize("kind", ["int64", "wide"])
    def test_pairs_are_the_selection_of_the_whole_read(self, tmp_path, r2_table, kind, case):
        table = r2_table if kind == "int64" else wide_table()
        selection = SELECTIONS[case](table.n_max)
        read, built = read_both(tmp_path, table, selection)
        whole = arith.read_table_cache(tmp_path / "t.gvct")
        index, values = expected(whole, selection)
        for got in (read, built):
            assert isinstance(got, TableEntries)
            assert (got.label, got.n_max) == (table.label, selection.n_max)
            assert got.index.tolist() == index
            assert arith._exact_list(got.values) == values
            assert got.complete == (selection.index is None)
        # a cold (built) and a warm (read) run go on with the same arrays
        assert read.index.dtype == built.index.dtype == np.int32
        assert layout(read.values) == layout(built.values)

    def test_values_take_the_narrowest_width(self, tmp_path):
        table = wide_table()
        for n_max, kind in ((B - 2, np.int32), (B - 1, np.int64), (B, "words"), (2 * B + 8, "words")):
            read, built = read_both(tmp_path, table, TableSelection(n_max))
            assert layout(read.values) == layout(built.values) == kind, n_max
        # the kept entries of a wide stretch decide, not the blocks they lie in
        read, built = read_both(tmp_path, table, TableSelection(2 * B + 8, [1, B + 5, 2 * B + 8]))
        assert read.values.dtype == built.values.dtype == np.int32
        assert read.values.tolist() == [5, 0, -3]

    def test_prefix_of_a_larger_file(self, tmp_path, r2_table):
        path = tmp_path / "r_2.gvct"
        arith.write_table_cache(path, r2_table)
        for n_max in (0, B - 1, B, B + 1, 2 * B + 5):
            got = arith.read_table_cache(path, TableSelection(n_max))
            cut = arith.CoefficientTable("r_2", r2_table.values[: n_max + 1])
            assert got.index.tolist() == np.flatnonzero(cut.values).tolist()
            assert got.values.tolist() == cut.values[cut.values != 0].tolist()
            assert got.n_max == n_max

    def test_holds_no_table(self, tmp_path):
        # 2^20 entries of which every 64th is kept: the kept arrays are what
        # is left, with nothing of the table's 8 MB beside them
        values = np.zeros(1 << 20, dtype=np.int64)
        values[::64] = np.arange(1 << 14) + 1
        path = tmp_path / "sparse.gvct"
        arith.write_table_cache(path, arith.CoefficientTable("s", values))
        got = arith.read_table_cache(path, TableSelection(len(values) - 1))
        assert len(got) == 1 << 14
        assert got.index.nbytes + got.values.nbytes == 8 * (1 << 14)
        assert got.index.base is None and got.values.base is None


class TestSelectedReadRefusals:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "r2.gvct"
        arith.write_table_cache(path, arith.r_d_table(2, 20))
        return path

    def test_bad_magic(self, path):
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(ValueError, match="magic"):
            arith.read_table_cache(path, TableSelection(5))

    def test_bad_version(self, path):
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            arith.read_table_cache(path, TableSelection(5, [1, 2]))

    @pytest.mark.parametrize("damage", ["truncated", "trailing"])
    def test_wrong_body_length(self, path, damage):
        blob = path.read_bytes()
        path.write_bytes(blob[:-1] if damage == "truncated" else blob + b"\x00")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            arith.read_table_cache(path, TableSelection(3))

    def test_past_the_stored_table(self, path):
        with pytest.raises(ValueError, match="n <= 20"):
            arith.read_table_cache(path, TableSelection(21, [21]))

    def test_past_a_built_table(self):
        with pytest.raises(arith.TableCoverageError):
            TableSelection(21).apply(arith.r_d_table(2, 20))


class TestSelection:
    @pytest.mark.parametrize("index", [[3, 2], [1, 1], [-1, 2], [0, 21], [[1, 2]]])
    def test_index_is_ascending_distinct_and_in_range(self, index):
        with pytest.raises(ValueError, match="ascending"):
            TableSelection(20, index)

    def test_negative_reach(self):
        with pytest.raises(ValueError, match="n_max"):
            TableSelection(-1)

    def test_between(self):
        table = arith.r_d_table(2, 50)
        nonzero = TableSelection(50).apply(table)
        index, values = nonzero.between(3, 10)
        assert index.tolist() == [4, 5, 8, 9, 10]
        assert values.tolist() == table.values[[4, 5, 8, 9, 10]].tolist()

    def test_between_copies_no_index(self, r2_table):
        # an int32 index searched for int64 bounds would be copied whole to int64
        entries = TableSelection(r2_table.n_max).apply(r2_table)
        assert entries.index.dtype == np.int32 and len(entries) > 10_000
        tracemalloc.start()
        try:
            index, values = entries.between(1, r2_table.n_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096, peak
        assert index.tolist() == entries.index[1:].tolist()
        assert values.tolist() == entries.values[1:].tolist()
        assert entries.between(5, 3)[0].size == entries.between(-5, -1)[0].size == 0


class TestLatticeOnEntries:
    """Every lattice sum gives the same bits from the entries it keeps."""

    @pytest.fixture(scope="class")
    def r2(self):
        return arith.r_d_table(2, 200_000)

    def test_ball_counts_and_bessel_series(self, r2):
        # the circle functions take only these entries; they give the sums
        # over the whole table: its cumulative sum, and the series over its
        # nonzero terms as one vector
        entries = TableSelection(r2.n_max).apply(r2)
        counts = np.cumsum(r2.ints())
        for R in (0, 0.5, 1, 17.25, 998.6, 200_000):
            count = int(counts[int(R)])
            assert lattice.count_ball(2, R, entries) == count
            assert lattice.discrepancy(2, R, entries) == float(count) - lattice.ball_volume(2, R)
        n = np.flatnonzero(r2.ints()[1:]) + 1.0
        r = r2.floats()[n.astype(np.int64)]
        radii = np.array([10.5, 123.37, 998.6])
        whole = [
            math.sqrt(R) * float(np.sum(lattice.bessel_J1(2 * math.pi * np.sqrt(n * R)) * r / np.sqrt(n)))
            for R in radii.tolist()
        ]
        assert lattice.hardy_identity(radii, r2.n_max, entries).tolist() == whole

    def test_series_and_counts_need_every_nonzero_entry(self, r2):
        shells = TableSelection(r2.n_max, lattice.shell_indices(1, r2.n_max)).apply(r2)
        with pytest.raises(ValueError, match="leave out nonzero"):
            lattice.count_ball(2, 10, shells)
        with pytest.raises(ValueError, match="leave out nonzero"):
            lattice.hardy_identity(10.5, 100, shells)

    def test_hyperboloid_sums(self, r2):
        # the hyperboloid functions take only these entries; they give the
        # sums over the shells n = 2m^2 + 1 of the whole table, written out
        top = 399_999  # shells 2m^2 + 1 up to it read r_2 to 447^2 + 1
        entries = TableSelection(447**2 + 1, lattice.shell_indices(1, lattice.hyperboloid_index(1, top))).apply(r2)
        assert len(entries) == 448
        m = np.arange(448)
        r = r2.ints()[m * m + 1]
        n, b = 2 * m * m + 1, np.where(m == 0, r, 2 * r)
        for R in (0.5, 1, 1000, top):
            assert lattice.hyperboloid_count(3, 1, R, entries) == int(b[n <= R].sum())
        lam = lattice.power_saving_exponent(3)
        for X in (2.0**8, 2.0**13):
            near = n <= 40 * X
            smoothed = float(np.sum(b[near].astype(np.float64) * np.exp(-n[near] / X)))
            assert lattice.hyperboloid_smoothed(3, 1, X, entries) == smoothed
            width = X ** (1.0 - lam)
            window = int(b[(X - width < n) & (n < X + width)].sum())
            assert lattice.hyperboloid_short_interval(3, 1, X, entries) == (window, window / X ** (0.5 - lam))
        shell = np.zeros(5001, dtype=np.int64)
        shell[n[n <= 5000]] = b[n <= 5000]
        assert lattice.hyperboloid_shell_table(3, 1, 5000, entries) == arith.CoefficientTable("hyp_3_1", shell)

    def test_int32_entries_double_exactly(self):
        # shell entries of 2^31 - 1 are kept as int32; doubled as int32 they
        # would wrap to -2
        table = arith.CoefficientTable("r_2", [2**31 - 1] * 101)
        entries = TableSelection(82, lattice.shell_indices(1, 82)).apply(table)
        assert entries.values.dtype == np.int32
        # m = 0 once and m = +-1..+-9 twice each
        assert lattice.hyperboloid_count(3, 1, 163.0, entries) == 19 * (2**31 - 1)

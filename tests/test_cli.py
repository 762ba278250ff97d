"""CLI: determinism, cache round-trips, exit codes, grid parsing."""

import argparse
import ast
import hashlib
import importlib.util
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import exact_count_integral

from gaussvariants import arith, checks, cli, cuspform, kernels
from gaussvariants.selection import TableEntries


# a negative seed, in commands whose tables fit in --table-size 100, so
# that only the seed can stop them
NEGATIVE_SEED = [
    ["hardy", "--terms", "50", "--seed", "-1"],
    ["count-hyperboloid", "--check", "--grid", "1:9:1", "--seed", "-1"],
]


def run(argv, cwd):
    here = os.getcwd()
    os.chdir(cwd)
    try:
        return cli.main(argv)
    finally:
        os.chdir(here)


# the stored outputs of the benchmark, one CSV and one JSON per subcommand
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def assert_matches_reference(tmp_path, stem, name):
    """The run's CSV and JSON are byte-identical to the stored reference."""
    for ext in (".csv", ".json"):
        assert (tmp_path / (stem + ext)).read_bytes() == (REFERENCE / (name + ext)).read_bytes(), ext


class TestParsing:
    def test_geometric_grid(self):
        assert cli.parse_grid("2^3..2^5") == [8.0, 16.0, 32.0]

    def test_arithmetic_grid(self):
        assert cli.parse_grid("1:2:0.5") == [1.0, 1.5, 2.0]

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            cli.parse_grid("7..9")

    def test_grid_edges(self):
        assert cli.parse_grid("2^-1074..2^-1074") == [5e-324]
        assert cli.parse_grid("2^1023..2^1023") == [2.0**1023]
        assert len(cli.parse_grid("1:1000000:1")) == 10**6
        with pytest.raises(ValueError, match="more than"):
            cli.parse_grid("0:1000000:1")


class TestExitCodes:
    def test_unknown_flag_is_config_error(self, tmp_path):
        assert run(["divisor-identity", "--bogus", "3"], tmp_path) == cli.EXIT_CONFIG

    def test_unknown_subcommand_is_config_error(self, tmp_path):
        assert run(["frobnicate"], tmp_path) == cli.EXIT_CONFIG

    def test_coverage_error(self, tmp_path):
        code = run(
            ["count-circle", "--grid", "2^4..2^13", "--table-size", "100"], tmp_path
        )
        assert code == cli.EXIT_COVERAGE

    def test_smooth_kernel_past_shell_reach_is_coverage_error(self, tmp_path):
        # conc:3 at X = 2^8 weighs shells 2m^2 + 2 whose r_3(m^2 + 2) lies
        # past the 40000-entry table
        args = [
            "smooth-hyperboloid",
            "--d",
            "4",
            "--h",
            "2",
            "--table-size",
            "40000",
            "--grid",
            "2^6..2^12",
            "--kernel",
            "conc:3",
        ]
        assert run(args, tmp_path) == cli.EXIT_COVERAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["count-hyperboloid", "--d", "16", "--table-size", "5000"],
            ["smooth-hyperboloid", "--table-size", "1000"],
            ["smooth-hyperboloid", "--table-size", "1000", "--kernel", "compact:10"],
            ["smooth-hyperboloid", "--kernel", "conc:1e-300"],  # a support past 2^63
            ["short-hyperboloid", "--table-size", "1000"],
            ["smooth-hyperboloid", "--grid", "2^1023..2^1023"],  # 40X is inf
            ["count-circle", "--table-size", "1000"],
            ["mean-square-p2", "--table-size", "1000"],
            ["hardy", "--table-size", "1000"],
            ["second-moment", "--table-size", "3000"],
            ["sign-scan", "--table-size", "3000"],
            ["short-interval", "--table-size", "3000"],
            ["hardy", "--terms", "100", "--table-size", "500"],  # a radius past 500
        ],
    )
    def test_short_table_exits_before_it_is_built(self, tmp_path, argv):
        (tmp_path / "cache").mkdir()
        assert run(argv + ["--cache", "cache"], tmp_path) == cli.EXIT_COVERAGE
        assert list((tmp_path / "cache").iterdir()) == []

    def test_short_table_message(self, tmp_path, capsys):
        # the default grid 2^10..2^20 first passes r_15(5000) at R = 2^14
        code = run(["count-hyperboloid", "--d", "16", "--table-size", "5000"], tmp_path)
        assert code == cli.EXIT_COVERAGE
        assert capsys.readouterr().err == (
            "gv: table coverage: table 'r_15' covers n <= 5000, "
            "but N_{16,1}(16384) needs n <= 8101\n"
        )

    @pytest.mark.parametrize(
        "name, need",
        [
            ("count-circle", "S_2(1024) needs n <= 1024"),  # the default grid 2^4..2^13
            ("mean-square-p2", "mean square to X=1024 needs n <= 1023"),  # 2^10..2^18
            ("hardy", "Bessel series with 1000000 terms needs n <= 1000000"),
            # the series to 100 terms fits, but not the count at the first radius past 500
            ("hardy --terms 100 --table-size 500", "S_2(851.408) needs n <= 851"),
        ],
    )
    def test_short_circle_table_message(self, tmp_path, capsys, name, need):
        # the message the circle function itself gives, before r_2 is built
        argv = name.split()
        if "--table-size" not in argv:
            argv += ["--table-size", "1000"]
        assert run(argv, tmp_path) == cli.EXIT_COVERAGE
        err = capsys.readouterr().err
        assert err == f"gv: table coverage: table 'r_2' covers n <= {argv[-1]}, but {need}\n"

    @pytest.mark.parametrize(
        "name, need",
        [
            ("second-moment", "the smoothed second moment at X=256 needs n <= 10240"),  # 40X, 2^8..2^12
            ("sign-scan", "the sign scan window [2048, 4096] needs n <= 4096"),  # X + X^r, 2^4..2^13
            ("short-interval", "the short-interval window at X=4096 needs n <= 4460"),  # 2^10..2^16
        ],
    )
    def test_short_tau_table_message(self, tmp_path, capsys, name, need):
        # the message the form's function itself gives, before tau is built
        assert run([name, "--table-size", "3000"], tmp_path) == cli.EXIT_COVERAGE
        assert capsys.readouterr().err == f"gv: table coverage: table 'delta' covers n <= 3000, but {need}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["count-hyperboloid", "--grid", "7..9"],
            ["short-hyperboloid", "--grid", "1:2"],
            ["smooth-hyperboloid", "--kernel", "box:1"],
            ["smooth-hyperboloid", "--kernel", "cesaro:171"],  # 171! is past float range
            ["smooth-hyperboloid", "--kernel", "conc:inf"],
            ["smooth-hyperboloid", "--kernel", "conc:nan"],
            ["smooth-hyperboloid", "--kernel", "compact:inf"],
            ["smooth-hyperboloid", "--h", "-5"],
            ["short-hyperboloid", "--d", "2"],
            ["hardy", "--terms", "-3"],
            ["sign-scan", "--r", "2"],
            ["sign-scan", "--nu", "-1"],
            ["short-interval", "--grid", "1:3:1"],  # the window needs X >= 2
            NEGATIVE_SEED[0],
            NEGATIVE_SEED[1],
            ["sign-scan", "--grid=-4:-4:1", "--r", "0.5"],  # X^r of X < 0 is not real
            ["sign-scan", "--grid=0:0:1"],  # an empty window
            ["short-hyperboloid", "--grid=-5:-1:1"],
            ["second-moment", "--grid", "2^1023..2^1023"],  # X^(3/2) and 40X are past the floats
            ["count-hyperboloid", "--h", "100000000000000000000", "--grid", "2^4..2^8"],  # no int64
            ["smooth-hyperboloid", "--h", "100000000000000000000", "--grid", "2^4..2^8"],
            ["short-hyperboloid", "--h", "100000000000000000000", "--grid", "2^4..2^8"],
        ],
    )
    def test_bad_configuration_exits_before_a_table_is_built(self, tmp_path, argv):
        (tmp_path / "cache").mkdir()
        args = argv + ["--table-size", "100", "--cache", "cache"]
        assert run(args, tmp_path) == cli.EXIT_CONFIG
        assert list((tmp_path / "cache").iterdir()) == []

    @pytest.mark.parametrize("terms", ["-5", "0"])
    def test_nonpositive_terms_name_the_option(self, tmp_path, capsys, monkeypatch, terms):
        # refused before the reduction suite runs
        monkeypatch.setattr(checks, "reduction", lambda: pytest.fail("the reduction suite ran"))
        assert run(["eisenstein-check", "--terms", terms], tmp_path) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"gv: --terms must be at least 1, got {terms}\n"
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_terms_exit_2(self, tmp_path, capsys):
        # eisenstein-check reads no table: its 10^20 moduli leave the index range
        assert run(["eisenstein-check", "--terms", "100000000000000000000"], tmp_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gv: ") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", NEGATIVE_SEED, ids=["hardy", "count-hyperboloid"])
    def test_negative_seed_names_the_option(self, tmp_path, capsys, argv):
        assert run(argv + ["--table-size", "100"], tmp_path) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "gv: --seed must be at least 0, got -1\n"

    def test_table_beyond_int128_is_config_error(self, tmp_path):
        # R = 2^12 reads r_29 to 45^2 + 1 = 2026, and r_29 leaves the signed
        # 128-bit range at n = 1164, while the table is built
        code = run(
            [
                "count-hyperboloid",
                "--d",
                "30",
                "--h",
                "1",
                "--table-size",
                "2100",
                "--grid",
                "2^6..2^12",
            ],
            tmp_path,
        )
        assert code == cli.EXIT_CONFIG

    def test_rounding_margin_error_is_config_error(self, tmp_path, monkeypatch, capsys):
        def thin_margin(n_max):
            raise arith.RoundingMarginError("FFT product rounding margin 0.5")

        monkeypatch.setattr(cuspform, "tau_table", thin_margin)
        assert run(["tau", "--table-size", "100"], tmp_path) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "gv: FFT product rounding margin 0.5\n"

    def test_failed_allocation_is_config_error(self, tmp_path, monkeypatch, capsys):
        def too_large(d, n_max):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(arith, "r_d_table", too_large)
        (tmp_path / "cache").mkdir()
        args = ["hardy", "--count", "1", "--terms", "5", "--cache", "cache"]
        assert run(args, tmp_path) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "gv: out of memory: Unable to allocate 745. GiB\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["cache"]

    def test_moment_grid_where_X_to_the_three_halves_is_0(self, tmp_path, capsys):
        # 2^-1074 is a float, but its 3/2 power underflows to 0, and each
        # moment is divided by it
        (tmp_path / "cache").mkdir()
        args = ["second-moment", "--grid", "2^-1074..2^-1074", "--table-size", "3000", "--cache", "cache"]
        assert run(args, tmp_path) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "gv: second-moment needs X^(3/2) > 0, got X = 5e-324\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["cache"]

    def test_check_failure_exits_4(self, tmp_path):
        # massively over-normalized sums keep one sign on small windows
        code = run(
            [
                "sign-scan",
                "--nu",
                "30",
                "--grid",
                "2^4..2^5",
                "--table-size",
                "200",
                "--check",
            ],
            tmp_path,
        )
        assert code == cli.EXIT_CHECK_FAILED
        assert list(tmp_path.iterdir()) == []  # neither CSV nor JSON

    @pytest.mark.parametrize(
        "argv",
        [
            ["short-interval", "--table-size", "3000", "--grid", "2^0..2^2"],  # log 1 = 0
            ["hardy", "--table-size", "2000", "--terms", "-5", "--count", "2"],
            ["eisenstein-check", "--terms", "0"],
            ["fit", "--data", "header-only.csv", "--model", "1.5:0"],
            ["fit", "--data", "one-column.csv", "--model", "1.5:0"],
            ["count-circle", "--grid", "0:2:1", "--table-size", "10"],  # R = 0 under sqrt(R)
            ["short-hyperboloid", "--grid", "0:2:1", "--table-size", "100"],  # X = 0
            ["count-circle", "--grid", "2^0..2^1100"],  # 2^1100 is no float
            ["short-hyperboloid", "--grid", "2^1100..2^1100"],
            ["count-circle", "--grid", "2^-1100..2^3"],  # 2^-1100 rounds to 0
            ["count-circle", "--grid", "1:1e400:1"],  # b = inf
            ["count-circle", "--grid", "1:inf:1e308"],
            ["count-circle", "--grid", "0:1e7:1"],  # more than 10^6 points
            ["mean-square-p2", "--grid", "1e300:1e300:1"],  # x + 1 == x
            ["second-moment", "--grid", "nan:nan:1"],
            ["sign-scan", "--grid", "nan:nan:1"],  # would pass over no window
            ["short-interval", "--grid", "nan:nan:1"],
            ["hardy", "--count", "0", "--check"],  # would pass over no radius
            ["sign-scan", "--nu", "nan", "--grid", "2^4..2^5", "--table-size", "200"],  # no JSON NaN
            ["sign-scan", "--nu", "inf", "--grid", "2^4..2^5", "--table-size", "200"],
            # the divisor sieve to R^2 + 1 = 10^16 + 1 asks for 71 PiB at once
            ["divisor-identity", "--R", "100000000"],
        ],
    )
    def test_degenerate_input_is_config_error(self, tmp_path, capsys, argv):
        (tmp_path / "header-only.csv").write_text("X,value\n")
        (tmp_path / "one-column.csv").write_text("X\n1\n2\n3\n4\n")
        assert run(argv, tmp_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gv: ") and "Traceback" not in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "0", "-4"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_fit_refuses_data_it_cannot_take_logs_of(self, tmp_path, capsys, column, cell):
        rows = [[2.0**e, 3.0 * 2.0**e] for e in range(4, 10)]
        rows[-1 if cell == "inf" else 0][column] = cell  # X stays ascending
        (tmp_path / "bad.csv").write_text("X,value\n" + "".join(f"{x},{v}\n" for x, v in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert run(["fit", "--data", "bad.csv", "--model", "1:0"], tmp_path) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "gv: bad.csv: a fit needs finite positive X and values\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]

    @pytest.mark.parametrize("rows", ["1,2\n2,abc\n", "1,2\n2,3,4\n"], ids=["non-numeric", "ragged"])
    def test_fit_names_the_file_it_cannot_read(self, tmp_path, capsys, rows):
        (tmp_path / "bad.csv").write_text("X,value\n" + rows)
        assert run(["fit", "--data", "bad.csv", "--model", "1:0"], tmp_path) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("gv: bad.csv: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]

    @pytest.mark.parametrize("subcommand", ["second-moment", "short-interval", "sign-scan", "tau"])
    @pytest.mark.parametrize("cache", ["none", "empty", "tau-40"])
    def test_zero_tau_table_is_config_error_whatever_is_cached(
        self, tmp_path, monkeypatch, capsys, cache, subcommand
    ):
        # a cached table serves any prefix, so the size is checked before the cache
        monkeypatch.delenv("GV_CACHE", raising=False)
        argv = [subcommand, "--table-size", "0"]
        if cache != "none":
            (tmp_path / "cache").mkdir()
            argv += ["--cache", str(tmp_path / "cache")]
        if cache == "tau-40":
            arith.write_table_cache(tmp_path / "cache" / "tau-40.gvct", cuspform.tau_table(40))
        assert run(argv, tmp_path) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "gv: need n_max >= 1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if cache == "none" else ["cache"])

    @pytest.mark.parametrize("argv", [["tau", "--check"], ["count-circle", "--seed", "1"]])
    def test_option_without_effect_is_config_error(self, tmp_path, argv):
        # tau has no criterion to check and count-circle nothing randomized
        assert run(argv, tmp_path) == cli.EXIT_CONFIG

    def test_check_success_exits_0(self, tmp_path):
        code = run(["divisor-identity", "--R", "20", "--check"], tmp_path)
        assert code == cli.EXIT_OK


class TestDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        args = [
            "count-hyperboloid",
            "--d",
            "3",
            "--h",
            "1",
            "--grid",
            "2^10..2^14",
            "--table-size",
            "17000",
            "--seed",
            "5",
        ]
        assert run(args + ["--out", "a"], tmp_path) == 0
        assert run(args + ["--out", "b"], tmp_path) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_json_summary_schema(self, tmp_path):
        assert run(["divisor-identity", "--R", "10", "--out", "d"], tmp_path) == 0
        summary = json.loads((tmp_path / "d.json").read_text())
        assert summary["schemaVersion"] == 1
        assert summary["allEqual"] is True


class TestCache:
    def test_round_trip_via_cache_dir(self, tmp_path):
        cache = tmp_path / "cache"
        args = ["tau", "--table-size", "50", "--cache", str(cache), "--out", "t"]
        assert run(args, tmp_path) == 0
        path = cache / "tau-50.gvct"
        assert path.exists()
        table = arith.read_table_cache(path)
        fresh = __import__("gaussvariants.cuspform", fromlist=["tau_table"]).tau_table(50)
        assert table.tolist() == fresh.tolist()
        # second run loads from cache and produces identical output
        assert run(["tau", "--table-size", "50", "--cache", str(cache), "--out", "t2"], tmp_path) == 0
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()

    def test_env_var_overrides_flag(self, tmp_path, monkeypatch):
        env_cache = tmp_path / "env-cache"
        monkeypatch.setenv("GV_CACHE", str(env_cache))
        args = ["tau", "--table-size", "30", "--cache", str(tmp_path / "flag-cache"), "--out", "t"]
        assert run(args, tmp_path) == 0
        assert (env_cache / "tau-30.gvct").exists()
        assert not (tmp_path / "flag-cache").exists()

    def test_served_from_larger_table(self, tmp_path):
        cache, cut, fresh = tmp_path / "cache", tmp_path / "cut", tmp_path / "fresh"
        assert run(["tau", "--table-size", "200", "--cache", str(cache)], tmp_path) == 0
        for out, c in ((cut, cache), (fresh, tmp_path / "fresh-cache")):
            out.mkdir()
            assert run(["tau", "--table-size", "50", "--cache", str(c)], out) == 0
        for name in ("tau.csv", "tau.json"):
            assert (cut / name).read_bytes() == (fresh / name).read_bytes()
        assert json.loads((cut / "tau.json").read_text())["nMax"] == 50
        assert sorted(p.name for p in cache.iterdir()) == ["tau-200.gvct"]

    def test_smallest_table_that_reaches_is_read(self, tmp_path, monkeypatch):
        for n in (100, 200):
            arith.write_table_cache(tmp_path / f"tau-{n}.gvct", cuspform.tau_table(n))
        read, original = [], arith.read_table_cache

        def recording(path, n_max=None):
            read.append(os.path.basename(path))
            return original(path, n_max)

        monkeypatch.setattr(arith, "read_table_cache", recording)
        args = argparse.Namespace(cache=str(tmp_path))
        table = cli.cached_table(args, "tau", cuspform.tau_table, 50)
        assert read == ["tau-100.gvct"]
        assert table == cuspform.tau_table(50)
        assert table.values.dtype == np.int64

    def test_hyperboloid_reads_only_what_its_shells_reach(self, tmp_path, monkeypatch):
        # at X = 2^16 the compact:10 support is 72090, whose shells 2m^2 + 1
        # read r_2 up to m = 189, index 189^2 + 1 = 35722, not --table-size,
        # and keep only the entries r_2(m^2 + 1) of m = 0..189
        table = arith.r_d_table(2, 40000)
        arith.write_table_cache(tmp_path / "r_2-40000.gvct", table)
        read, kept, original = [], [], arith.read_table_cache

        def recording(path, n_max=None):
            read.append((os.path.basename(path), n_max.n_max))
            entries = original(path, n_max)
            kept.append(entries)
            return entries

        monkeypatch.setattr(arith, "read_table_cache", recording)
        args = ["smooth-hyperboloid", "--kernel", "compact:10", "--cache", str(tmp_path)]
        assert run(args, tmp_path) == 0
        assert read == [("r_2-40000.gvct", 35722)]
        shells = np.arange(190) ** 2 + 1
        assert kept[0].index.tolist() == shells.tolist()
        assert kept[0].values.tolist() == table.values[shells].tolist()

    def test_request_past_every_table_builds_its_own(self, tmp_path):
        for n in (100, 200):
            arith.write_table_cache(tmp_path / f"tau-{n}.gvct", cuspform.tau_table(n))
        args = argparse.Namespace(cache=str(tmp_path))
        table = cli.cached_table(args, "tau", cuspform.tau_table, 300)
        assert table == cuspform.tau_table(300)
        assert arith.read_table_cache(tmp_path / "tau-300.gvct") == table

    def test_lookup_skips_other_labels_and_names(self, tmp_path):
        junk = b"not a cache file"
        arith.write_table_cache(tmp_path / "r_3-500.gvct", arith.r_d_table(3, 500))
        for name in ("r_2-abc.gvct", "r_2-0500.gvct", ".gvct-x1y2z3", "r_2-500.gvct-tmp", "r_22-500.gvct"):
            (tmp_path / name).write_bytes(junk)
        built = []

        def builder(n):
            built.append(n)
            return arith.r_d_table(2, n)

        args = argparse.Namespace(cache=str(tmp_path))
        assert cli.cached_table(args, "r_2", builder, 100) == arith.r_d_table(2, 100)
        assert built == [100]
        assert (tmp_path / "r_2-100.gvct").exists()

    @pytest.mark.parametrize("size", [40, 60])
    def test_label_disagreeing_with_name_exits_2(self, tmp_path, capsys, size):
        path = tmp_path / "tau-60.gvct"
        arith.write_table_cache(path, arith.CoefficientTable("r_2", range(61)))
        before = path.read_bytes()
        args = ["tau", "--table-size", str(size), "--cache", str(tmp_path), "--out", "t"]
        assert run(args, tmp_path) == cli.EXIT_CONFIG
        assert str(path) in capsys.readouterr().err
        assert path.read_bytes() == before
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("stored", ["truncated", 20])
    def test_corrupt_table_exits_2_with_its_path(self, tmp_path, capsys, stored):
        path = tmp_path / "tau-60.gvct"
        if stored == "truncated":
            arith.write_table_cache(path, cuspform.tau_table(60))
            path.write_bytes(path.read_bytes()[:-1])
        else:  # the header holds less than the name promises
            arith.write_table_cache(path, cuspform.tau_table(stored))
        args = ["tau", "--table-size", "30", "--cache", str(tmp_path), "--out", "t"]
        assert run(args, tmp_path) == cli.EXIT_CONFIG
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["magic", "truncated", "label", "short"])
    @pytest.mark.parametrize(
        "argv", [["hardy", "--count", "1", "--terms", "50"], ["count-hyperboloid", "--grid", "2^4..2^9"]]
    )
    def test_refused_selected_read_exits_2_with_its_path(self, tmp_path, capsys, argv, damage):
        path = tmp_path / "r_2-1000.gvct"
        if damage == "label":
            arith.write_table_cache(path, arith.CoefficientTable("tau", range(1001)))
        elif damage == "short":  # the header holds less than the name promises
            arith.write_table_cache(path, arith.r_d_table(2, 100))
        else:
            arith.write_table_cache(path, arith.r_d_table(2, 1000))
            blob = path.read_bytes()
            path.write_bytes(b"NOPE" + blob[4:] if damage == "magic" else blob[:-1])
        before = path.read_bytes()
        # 1000: hardy's radius at seed 0 needs S_2 past 600, checked before the read
        args = argv + ["--table-size", "1000", "--cache", str(tmp_path), "--out", "t"]
        assert run(args, tmp_path) == cli.EXIT_CONFIG
        assert str(path) in capsys.readouterr().err
        assert path.read_bytes() == before
        assert not (tmp_path / "t.csv").exists()


def load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves annotations through it
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
CLI_OPS = {op.name: op for op in workloads.CLI_OPS}

# sha256 of the CSV and JSON that each benchmark invocation wrote while every
# command read its whole table, at the seed given
WHOLE_READ_DIGESTS = {
    ("hardy", 1): (
        "1438d13752ae8966af76d2b616c5d7856000ab14a85e40150264ebad77d4757d",
        "6ccbea9eddc345c4e5fe8c61a2d22f53de491f13865047370b10ea0472ef6ebc",
    ),
    ("hardy", 2): (
        "793c75fbe958727cf342c16eb85bfa7020f9c7c20c9a6854241bc65a32d01634",
        "a0cba9112be3fc4287e3ab626c8b078060885995f6dca107c9260a1aabbdae5d",
    ),
    ("count-hyperboloid", 1): (
        "1b989b04e0da5cf1a0fbb51b90b19dbd1afa64cf63788427295a7d89bd69e8df",
        "d4f494755c4e71b88447830937df177a3c9205a83035880d8f14fcb00c2162ea",
    ),
    ("smooth-hyperboloid", 1): (
        "c5dd271d56dc5ee12a8c7d8f56bfb0922340519292270c9d255b71c43f737a71",
        "e39d142f991a5eb758ba19b797daee6b5b493b9d667481eb7d6729b9863a835a",
    ),
    ("smooth-hyperboloid-compact", 1): (
        "938526488b8918779a5d0196e298110fde6a6d9df0f1c5cade150716f30f85db",
        "5e1e255ca03a98edf59471f825ec4072713988d34e773c0162dbd1d02e6e6a2d",
    ),
    ("short-hyperboloid", 1): (
        "6d80303962892f75da669b4f738b1aaccb343d9cc8514370b0b657768c417eb1",
        "db1fcf27f2586fd8be04b1701481e488af276236c5b0b2db396d025cc2ad58c4",
    ),
    ("count-circle", 1): (
        "95d1f20a614fc88f530c31fa17265c2f99dc34aae2db86bb5ac3c30290196aaa",
        "f3da2110c31c715695baad66b6c70f1d9c32f570e301f3b0a37330b2cc9303de",
    ),
    ("mean-square-p2", 1): (
        "fac63bd3724e61cbe9abc5e7556003c733e36b2f283585266563e2a468c127b0",
        "710e5d631a19a9e5f4879d16cbf104c22772a5089a4e33539901797fb4846276",
    ),
    ("second-moment", 1): (
        "fdc743f65fe5e588f6e8752adbc322bb8f5119d1dc89a025111cd793d9f4ee4c",
        "1218e0fa26da9983eb6321142c887f344d075ef6f3eef9e8e44f9563b9f2b2cb",
    ),
    ("short-interval", 1): (
        "8b280a315b3ade491d02d257fa4ddafa7ea92bca6a789596a0cc66faa7abeb55",
        "1b957f4c53fbae01118bb5dfe2d372925ac49562851a12ce5ee59472806e647a",
    ),
    ("sign-scan", 1): (
        "9a38a9bcae61acbee3d401f6bdbbed78407b41149ff53c6e928cceb9b904db18",
        "cc5f8a6336868b12de04f38eeb6223feea067f536da0c971438a3b42f7ec29bb",
    ),
}

# the nonzero r_2 entries each circle command keeps, to its --table-size
NONZERO_KEPT = {"hardy": 216_342, "mean-square-p2": 60_121, "count-circle": 2_750}

# the tau table each cusp command folds, to its --table-size; only
# second-moment keeps the Rankin series, and only sign-scan, at nu > 0, the
# a(n) as floats
FOLDED = {"second-moment": 164_000, "short-interval": 70_000, "sign-scan": 21_000}

# m_top + 1 of each hyperboloid invocation: its largest grid point sums the
# shells 2m^2 + 1, m = 0..m_top, below 2^20, 40 * 2^16, 72 090 (compact:10
# at 2^16) and 2^14 + 2^(14 * 43/44)
SHELLS_KEPT = {
    "count-hyperboloid": 725,
    "smooth-hyperboloid": 1145,
    "smooth-hyperboloid-compact": 190,
    "short-hyperboloid": 122,
}


class TestSelectedReads:
    @pytest.mark.parametrize("name, seed", sorted(WHOLE_READ_DIGESTS))
    def test_cold_and_warm_runs_write_the_whole_read_bytes(self, tmp_path, monkeypatch, name, seed):
        cache = tmp_path / "cache"
        received, original = [], arith.read_table_cache

        def recording(path, n_max=None):
            entries = original(path, n_max)
            received.append(entries)
            return entries

        monkeypatch.setattr(arith, "read_table_cache", recording)
        outputs = []
        for run_name in ("cold", "warm"):
            out = tmp_path / run_name
            out.mkdir()
            assert run(workloads.op_argv(CLI_OPS[name], seed, str(cache), name), out) == 0
            outputs.append([(out / (name + ext)).read_bytes() for ext in (".csv", ".json")])
            if run_name == "cold":
                assert received == []
                (written,) = cache.iterdir()
        assert outputs[0] == outputs[1]
        assert tuple(hashlib.sha256(b).hexdigest() for b in outputs[0]) == WHOLE_READ_DIGESTS[name, seed]
        # the warm run received only what it keeps, not a table
        (entries,) = received
        assert not isinstance(entries, arith.CoefficientTable)
        if name in FOLDED:
            assert isinstance(entries, cuspform.CuspFormSeries) and entries.n_max == FOLDED[name]
            assert (entries.rankin is not None) == (name == "second-moment")
            assert (entries.floats is not None) == (name == "sign-scan")
            return
        assert isinstance(entries, TableEntries)
        if name in NONZERO_KEPT:
            assert entries.complete
            assert len(entries) == np.count_nonzero(original(written).values) == NONZERO_KEPT[name]
        else:
            assert len(entries) == SHELLS_KEPT[name]

    def test_wide_r2_entries_take_exact_counts_in_the_mean_square(self, tmp_path):
        # kept as words, the entries still give the integrals of the exact counts
        values = [1, 4] + [0] * 8 + [1 << 70, -(1 << 70)] + [0] * 48 + [1 << 70]
        arith.write_table_cache(tmp_path / "r_2-60.gvct", arith.CoefficientTable("r_2", values))
        args = ["mean-square-p2", "--grid", "2^2..2^5", "--table-size", "60", "--cache", str(tmp_path)]
        assert run(args + ["--out", "t"], tmp_path) == cli.EXIT_OK
        rows = [line.split(",") for line in (tmp_path / "t.csv").read_text().splitlines()[1:]]
        assert rows == [[repr(X), repr(exact_count_integral(values, X))] for X in (4.0, 8.0, 16.0, 32.0)]


@pytest.fixture(scope="module")
def reference_cache(tmp_path_factory, r2_big, tau):
    """A cache of the session's r_2 and tau tables, which reach the default
    size of every command that reads them."""
    cache = tmp_path_factory.mktemp("reference-cache")
    arith.write_table_cache(cache / "r_2-1400000.gvct", r2_big)
    arith.write_table_cache(cache / "tau-164000.gvct", tau)
    return cache


class TestReferenceBytes:
    # second-moment and smooth-hyperboloid-compact now differ from their
    # stored references in the last digits of a few cells; hardy and
    # count-hyperboloid are pinned by digest above
    @pytest.mark.parametrize(
        "name", ["count-circle", "mean-square-p2", "short-interval", "smooth-hyperboloid", "short-hyperboloid"]
    )
    def test_default_run_writes_the_reference(self, tmp_path, reference_cache, name):
        files = {path.name: path.stat().st_mtime_ns for path in reference_cache.iterdir()}
        assert run(workloads.op_argv(CLI_OPS[name], 1, str(reference_cache), name), tmp_path) == 0
        assert_matches_reference(tmp_path, name, name)
        assert {path.name: path.stat().st_mtime_ns for path in reference_cache.iterdir()} == files  # only read


class TestSubcommandsEndToEnd:
    def test_count_hyperboloid_verdict(self, tmp_path):
        args = [
            "count-hyperboloid",
            "--d",
            "3",
            "--h",
            "2",
            "--grid",
            "2^10..2^16",
            "--table-size",
            "33000",
            "--out",
            "h2",
        ]
        assert run(args, tmp_path) == 0
        summary = json.loads((tmp_path / "h2.json").read_text())
        assert summary["verdict"] == "no-log"
        assert summary["expectedVerdict"] == "no-log"

    def test_count_hyperboloid_wide_table(self, tmp_path):
        # r_15 to 5000 does not fit int64; the counts take Python ints
        args = [
            "count-hyperboloid",
            "--d",
            "16",
            "--h",
            "1",
            "--grid",
            "2^10..2^13",
            "--table-size",
            "5000",
            "--out",
            "wide",
        ]
        assert run(args, tmp_path) == 0
        r15 = arith.r_d_table(15, 5000)
        lines = (tmp_path / "wide.csv").read_text().splitlines()
        assert lines[0] == "R,count"
        assert len(lines) == 5
        for line in lines[1:]:
            R, count = line.split(",")
            m_top = math.isqrt((int(float(R)) - 1) // 2)
            expected = sum((1 if m == 0 else 2) * r15[m * m + 1] for m in range(m_top + 1))
            assert int(count) == expected

    @staticmethod
    def smoothed_against_fsum(tmp_path, kernel_text):
        """Runs smooth-hyperboloid at d = 4, h = 2 on a 40000-entry table over
        X = 64, 96, 128 and checks each row against math.fsum over its shells
        2m^2 + 2 up to the kernel's support; returns the last row's value,
        fsum, support and the shells' n, b and w."""
        args = [
            "smooth-hyperboloid",
            "--d",
            "4",
            "--h",
            "2",
            "--table-size",
            "40000",
            "--grid",
            "64:128:32",
            "--kernel",
            kernel_text,
            "--out",
            "sh",
        ]
        assert run(args, tmp_path) == 0
        kernel = kernels.parse_kernel(kernel_text)
        r3 = arith.r_d_table(3, 40000)
        rows = (tmp_path / "sh.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            X, value = (float(v) for v in row.split(","))
            support = kernels.kernel_support(kernel, X)
            n = [2 * m * m + 2 for m in range(math.isqrt((support - 2) // 2) + 1)]
            b = [(1 if m == 0 else 2) * r3[m * m + 2] for m in range(len(n))]
            w = kernels.kernel_weights(kernel, n, X)
            full = math.fsum(bi * wi for bi, wi in zip(b, w))
            assert value == pytest.approx(full, rel=1e-12), X
        return value, full, support, n, b, w

    def test_smooth_hyperboloid_sums_past_table_end(self, tmp_path):
        # at X = 128 the conc:3 support (n <= 51700) passes the table's
        # 40000, but its shells read r_3 only up to 160^2 + 2
        value, full, support, n, b, w = self.smoothed_against_fsum(tmp_path, "conc:3")
        cut = math.fsum(bi * wi for bi, wi, ni in zip(b, w, n) if ni <= 40000)
        assert support > 40000
        assert abs(value - cut) > 1e3 * abs(value - full)

    @pytest.mark.parametrize("kernel", ["exp", "cesaro:1", "cesaro:3", "compact:10"])
    def test_smooth_hyperboloid_is_the_fsum_of_its_shells(self, tmp_path, kernel):
        self.smoothed_against_fsum(tmp_path, kernel)

    def test_mean_square_check(self, tmp_path):
        args = [
            "mean-square-p2",
            "--grid",
            "2^10..2^14",
            "--table-size",
            "17000",
            "--check",
            "--out",
            "ms",
        ]
        assert run(args, tmp_path) == 0
        summary = json.loads((tmp_path / "ms.json").read_text())
        assert abs(summary["slope"] - 1.5) <= 0.05

    def test_fit_standalone(self, tmp_path):
        data = tmp_path / "data.csv"
        rows = ["X,value"] + [f"{2.0**e!r},{(3.0 * (2.0**e) ** 1.5)!r}" for e in range(4, 12)]
        data.write_text("\n".join(rows) + "\n")
        args = ["fit", "--data", str(data), "--model", "1.5:0", "--out", "f"]
        assert run(args, tmp_path) == 0
        out = (tmp_path / "f.csv").read_text().splitlines()
        assert out[0] == "exponent,logPower,coefficient"
        assert float(out[1].split(",")[2]) == pytest.approx(3.0, rel=1e-9)

    def test_gauss_sums_csv_columns(self, tmp_path):
        assert run(["gauss-sums", "--out", "g"], tmp_path) == 0
        header = (tmp_path / "g.csv").read_text().splitlines()[0]
        assert header == "h,modulus,k,re,im,check,residual"
        summary = json.loads((tmp_path / "g.json").read_text())
        assert max(summary["worstResiduals"].values()) < 1e-9
        assert_matches_reference(tmp_path, "g", "gauss-sums")

    def test_short_interval_runs(self, tmp_path):
        args = [
            "short-interval",
            "--grid",
            "2^10..2^12",
            "--table-size",
            "4600",
            "--out",
            "si",
        ]
        assert run(args, tmp_path) == 0
        summary = json.loads((tmp_path / "si.json").read_text())
        assert summary["maxNormalized"] < 10.0

    def test_smooth_hyperboloid_with_compact_kernel(self, tmp_path):
        args = [
            "smooth-hyperboloid",
            "--d",
            "3",
            "--h",
            "2",
            "--grid",
            "2^8..2^10",
            "--kernel",
            "compact:4",
            "--table-size",
            "1400",
            "--out",
            "sh",
        ]
        assert run(args, tmp_path) == 0
        summary = json.loads((tmp_path / "sh.json").read_text())
        assert 0.3 < summary["slope"] < 0.8  # sharp-count growth ~ X^(1/2)


class TestVerificationSubcommands:
    def test_eisenstein_check(self, tmp_path):
        args = ["eisenstein-check", "--terms", "300", "--check", "--out", "e"]
        assert run(args, tmp_path) == 0
        summary = json.loads((tmp_path / "e.json").read_text())
        assert summary["factorizationWithinTails"] is True
        assert summary["worstReductionResidualOver4c"] < 1e-9

    def test_eisenstein_check_default_terms(self, tmp_path):
        assert run(["eisenstein-check", "--check", "--out", "e"], tmp_path) == 0
        assert_matches_reference(tmp_path, "e", "eisenstein-check")

    def test_kernels_verify(self, tmp_path):
        assert run(["kernels-verify", "--check", "--out", "k"], tmp_path) == 0
        summary = json.loads((tmp_path / "k.json").read_text())
        assert summary["maxResidualPerKernel"]["cesaro"] < 1e-6
        assert summary["maxResidualPerKernel"]["concentrating"] < 1e-8
        assert summary["maxResidualPerKernel"]["exponential"] < 1e-6
        assert_matches_reference(tmp_path, "k", "kernels-verify")

    def test_second_moment_check(self, tmp_path):
        args = ["second-moment", "--grid", "2^8..2^10", "--table-size", "41000", "--out", "sm"]
        assert run(args, tmp_path) == 0
        summary = json.loads((tmp_path / "sm.json").read_text())
        assert summary["constant"] > 0
        assert summary["relativeGapAtMaxX"] < 0.05

    def test_hardy_small_run(self, tmp_path):
        args = [
            "hardy", "--count", "3", "--terms", "20000",
            "--table-size", "20000", "--seed", "4", "--out", "hd",
        ]
        assert run(args, tmp_path) == 0
        rows = (tmp_path / "hd.csv").read_text().splitlines()
        assert rows[0] == "R,besselSeries,discrepancy,absError"
        assert len(rows) == 4


class TestPipelines:
    def test_count_to_fit_round_trip(self, tmp_path):
        # the CSV written by one subcommand feeds the standalone fitter
        args = [
            "count-hyperboloid", "--d", "3", "--h", "1",
            "--grid", "2^10..2^18", "--table-size", "132000", "--out", "counts",
        ]
        assert run(args, tmp_path) == 0
        assert (
            run(
                ["fit", "--data", str(tmp_path / "counts.csv"),
                 "--model", "0.5:1,0.5:0", "--out", "fitted"],
                tmp_path,
            )
            == 0
        )
        rows = (tmp_path / "fitted.csv").read_text().splitlines()
        coef_log = float(rows[1].split(",")[2])
        assert coef_log > 0  # the square shift carries the log term
        summary = json.loads((tmp_path / "fitted.json").read_text())
        assert summary["conditionNumber"] > 1.0

    def test_cache_file_bytes_reproducible(self, tmp_path):
        cache_a = tmp_path / "a"
        cache_b = tmp_path / "b"
        for c in (cache_a, cache_b):
            assert run(["tau", "--table-size", "40", "--cache", str(c), "--out", "t"], tmp_path) == 0
        a = (cache_a / "tau-40.gvct").read_bytes()
        b = (cache_b / "tau-40.gvct").read_bytes()
        assert a == b


def names_by_function(source):
    """{function: the dotted names a.b it reads} for each top-level function
    of the source, its lambdas and decorators included."""
    return {
        fn.name: {ast.unparse(node) for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
        for fn in ast.parse(source).body
        if isinstance(fn, ast.FunctionDef)
    }


def strings_passed_to(source, name):
    """(calls of ``name``, the string literals and f-strings in their
    arguments) in the source."""
    calls = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call) and ast.unparse(n.func) == name]
    args = [a for call in calls for a in [*call.args, *(k.value for k in call.keywords)]]
    strings = [
        ast.unparse(n)
        for a in args
        for n in ast.walk(a)
        if isinstance(n, ast.JoinedStr) or isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]
    return len(calls), strings


def test_cli_checks_every_read_in_one_function_and_defines_no_reach():
    # each reach and its input checks belong to the layer that reads, so cli
    # rounds no grid point itself and checks every (n, what) in one place
    source = Path(cli.__file__).read_text(encoding="utf-8")
    found = names_by_function(source)
    checking = [name for name, names in found.items() if "arith.require_coverage" in names]
    assert checking == ["_read_table"]
    rounding = [name for name, names in found.items() if names & {"math.floor", "math.ceil"}]
    assert rounding == []
    # and writes no reach's message: the three hyperboloid commands pass
    # their lattice reaches to _shell_entries, and no text of their own
    assert strings_passed_to(source, "_shell_entries") == (3, [])
    # the scans do see each way in
    seen = names_by_function("def f(X):\n    return map(math.ceil, X)\n\ndef g(R):\n    return math.floor(R)\n")
    assert seen == {"f": {"math.ceil"}, "g": {"math.floor"}}
    passed = "_shell_entries(a, g, lambda X: X, 'N({X:g})')\n_shell_entries(a, w=(f'{X}' for X in g))\n"
    assert strings_passed_to(passed, "_shell_entries") == (2, ["'N({X:g})'", "f'{X}'"])

"""The operations each workload of the gv benchmark runs, in order.

An operation is one `python -m gaussvariants.cli` process.  The runner adds
`--cache <dir>` and `--out <name>` to every operation, so each writes
`<name>.csv` and `<name>.json` in the pass's output directory.  The token
SEED is replaced by the workload seed; it goes only to `hardy` and
`count-hyperboloid`, the two subcommands with a randomized piece.
"""

from __future__ import annotations

from dataclasses import dataclass

SEED = "{seed}"


@dataclass(frozen=True)
class Op:
    name: str  # output stem, unique within a workload
    argv: tuple  # subcommand and its flags, before --cache/--out


CLI_OPS = (
    # The largest tau table is built first, so that serving a smaller
    # request from a larger cached table can show on cli-cold.
    Op("second-moment", ("second-moment", "--check")),
    Op("short-interval", ("short-interval",)),
    # No --check: acceptance criterion 11 fails by design at the default
    # sizes (the over-normalized sums keep one sign up to n = 315), so the
    # check exits 4.  The CSV is compared with the stored reference instead.
    Op("sign-scan", ("sign-scan",)),
    Op("tau", ("tau",)),
    # No --check: acceptance criterion 10 fails by design (the truncated
    # Bessel series misses 0.05 at some random radii), so the check exits 4.
    # The exact discrepancy column is checked by an isqrt oracle instead.
    Op("hardy", ("hardy", "--seed", SEED)),
    Op("smooth-hyperboloid", ("smooth-hyperboloid",)),
    Op("smooth-hyperboloid-compact", ("smooth-hyperboloid", "--kernel", "compact:10")),
    Op("count-hyperboloid", ("count-hyperboloid", "--check", "--seed", SEED)),
    Op("fit", ("fit", "--data", "count-hyperboloid.csv", "--model", "0.5:1,0.5:0")),
    Op("short-hyperboloid", ("short-hyperboloid",)),
    Op("mean-square-p2", ("mean-square-p2", "--check")),
    Op("count-circle", ("count-circle",)),
)

CHECK_OPS = (
    Op("eisenstein-check", ("eisenstein-check", "--check")),
    Op("kernels-verify", ("kernels-verify", "--check")),
    Op("gauss-sums", ("gauss-sums", "--check")),
    # R = 400 rather than the default 200 exposes the cubic enumeration in
    # points_on_unit_hyperboloid (about 5.4 s against 0.7 s).
    Op("divisor-identity", ("divisor-identity", "--R", "400", "--check")),
)

# Every (label, n_max) table that CLI_OPS read at their default sizes, in
# the order they first read them.  cli-warm fills its cache with these; a
# cli-warm pass that still writes a cache file means this list is stale.
CLI_TABLES = (
    ("tau", 164000),
    ("tau", 70000),
    ("tau", 21000),
    ("tau", 1000),
    ("r_2", 1000000),
    ("r_2", 1400000),
    ("r_2", 530000),
    ("r_2", 600000),
    ("r_2", 262200),
    ("r_2", 10000),
)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    warm: bool  # set-up fills the cache with CLI_TABLES instead of emptying it
    layers: frozenset  # modules a traced pass must record spans in


_CLI_LAYERS = frozenset({"arith", "cuspform", "kernels", "lattice", "fit", "cli"})

WORKLOADS = {
    "cli-cold": Workload("cli-cold", CLI_OPS, False, _CLI_LAYERS),
    "cli-warm": Workload("cli-warm", CLI_OPS, True, _CLI_LAYERS),
    "checks": Workload(
        "checks", CHECK_OPS, False, frozenset({"arith", "charsums", "kernels", "lattice", "cli"})
    ),
}


def op_argv(op, seed, cache, out):
    """The gv arguments of one operation."""
    argv = [str(seed) if a == SEED else a for a in op.argv]
    return argv + ["--cache", cache, "--out", out]

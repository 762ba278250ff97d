"""Checks that the CSV and JSON a gv operation wrote are correct.

Seed-independent outputs are compared with the files in reference/, which
were written by this benchmark at the commit that added it.  Integer and
text fields must match exactly.  Float fields must agree within
REL_TOL relative or ABS_TOL absolute, so that a last-bit change (a float
summed in another order, a constant re-pinned by an ulp) does not read as
a failure.  ABS_TOL is the smallest tolerance any gv check puts on a
residual, so residual columns that are rounding noise compare as equal.

Seed-dependent outputs are checked by oracles here instead: `hardy`'s exact
discrepancy column by counting x^2 + y^2 <= R with isqrt, its Bessel series
by HARDY_ABS_ERROR_LIMIT, and `count-hyperboloid`'s verdict, which its
--check already enforces.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Largest |besselSeries - discrepancy| allowed on a `hardy` row.  At the
# default 10^6 terms the series missed by at most 0.231 over every integer
# radius 10..998 with offsets 0.30, 0.35, ..., 0.70, and by at most 0.204 at
# 3000 random radii in 600..999 (errors grow with R).  A series that came out
# 0 or with the wrong sign would miss by |discrepancy| or twice that, and
# |discrepancy| exceeds 0.5 at 94 % of the grid radii, so all 20 rows of
# a pass would almost never pass.
HARDY_ABS_ERROR_LIMIT = 0.5

# outputs that depend on --seed; every other output has a reference file
SEEDED = {"hardy.csv", "hardy.json", "count-hyperboloid.json"}


def _token(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _same(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or math.isclose(
            a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [[_token(t) for t in line.split(",")] for line in lines[1:]]


def compare_csv(path, reference):
    header, rows = _csv_rows(path)
    ref_header, ref_rows = _csv_rows(reference)
    if header != ref_header:
        return f"{path.name}: header {header!r}, reference {ref_header!r}"
    if len(rows) != len(ref_rows):
        return f"{path.name}: {len(rows)} rows, reference {len(ref_rows)}"
    for i, (row, ref) in enumerate(zip(rows, ref_rows), start=2):
        if not _same(row, ref):
            return f"{path.name} line {i}: {row} differs from reference {ref}"
    return None


def compare_json(path, reference):
    value = json.loads(path.read_text(encoding="utf-8"))
    ref = json.loads(reference.read_text(encoding="utf-8"))
    if not _same(value, ref):
        return f"{path.name}: differs from reference {reference.name}"
    return None


def _disc_count(R):
    """#{(x, y) : x^2 + y^2 <= R}, exactly."""
    n = math.floor(R)
    root = math.isqrt(n)
    return sum(2 * math.isqrt(n - x * x) + 1 for x in range(-root, root + 1))


def check_hardy(out_dir):
    header, rows = _csv_rows(out_dir / "hardy.csv")
    if header != "R,besselSeries,discrepancy,absError" or len(rows) != 20:
        return f"hardy.csv: header {header!r} with {len(rows)} rows"
    for R, series, disc, err in rows:
        if not 10.3 <= R <= 998.7 or R == math.floor(R):
            return f"hardy.csv: radius {R!r} outside the sampled band"
        exact = _disc_count(R) - math.pi * R
        if not math.isclose(disc, exact, rel_tol=0.0, abs_tol=REL_TOL * math.pi * R):
            return f"hardy.csv: discrepancy {disc!r} at R={R!r}, isqrt count gives {exact!r}"
        if err != abs(series - disc):
            return f"hardy.csv: absError {err!r} is not |besselSeries - discrepancy| at R={R!r}"
        if err > HARDY_ABS_ERROR_LIMIT:
            return (f"hardy.csv: Bessel series {series!r} misses the discrepancy by {err!r} "
                    f"> {HARDY_ABS_ERROR_LIMIT} at R={R!r}")
    summary = json.loads((out_dir / "hardy.json").read_text(encoding="utf-8"))
    worst = max(row[3] for row in rows)
    if summary["maxAbsError"] != worst or summary["pass"] != (worst < 0.05):
        return f"hardy.json: summary {summary} does not match its CSV"
    return None


def check_count_hyperboloid(out_dir):
    summary = json.loads((out_dir / "count-hyperboloid.json").read_text(encoding="utf-8"))
    if summary.get("pass") is not True or summary["verdict"] != summary["expectedVerdict"]:
        return f"count-hyperboloid.json: verdict {summary.get('verdict')!r} fails"
    return None


ORACLES = {"hardy": check_hardy, "count-hyperboloid": check_count_hyperboloid}


def check_op(name, out_dir):
    """Problems with operation `name`'s outputs in `out_dir`; None if correct."""
    for suffix in (".csv", ".json"):
        path = out_dir / (name + suffix)
        if not path.is_file():
            return f"{path.name} was not written"
        if path.name in SEEDED:
            continue
        reference = REFERENCE_DIR / path.name
        if not reference.is_file():
            return f"no reference file {reference.name}"
        compare = compare_csv if suffix == ".csv" else compare_json
        problem = compare(path, reference)
        if problem:
            return problem
    oracle = ORACLES.get(name)
    return oracle(out_dir) if oracle else None

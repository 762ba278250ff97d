"""Ramanujan tau, cusp-form partial sums, and their moment statistics.

The discriminant form Delta(z) = q prod (1-q^n)^24 = sum tau(n) q^n is the
one built-in cusp form (weight 12, level 1); other forms load from the
coefficient cache format.  The module computes

* tau(1..N) exactly, as the coefficients of q * (eta-cube series)^8 where
  the eta-cube series sum (-1)^m (2m+1) q^{m(m+1)/2} has sparse triangular
  support, so the eighth power is one ``powers.sparse_power``,
* partial sums S^nu(n) = sum_{m <= n} a(m)/m^nu (exact integer sums, rounded
  once, at nu = 0; compensated floating accumulation otherwise),
* the exponentially smoothed second moment
  sum S(n)^2 / n^{k-1} e^{-n/X}, which grows like C X^{3/2} with
  C = Gamma(3/2)/(4 pi^2) * L(3/2, f x f~) / zeta(3); the zeta(3) in the
  Rankin-Selberg normalization cancels, leaving
  C = Gamma(3/2)/(4 pi^2) * sum a(n)^2 / n^{k + 1/2},
* sign-change scans of S^nu over short windows,
* sharp-sum averages over short intervals.

None of these sums reads a coefficient table itself.  A ``CuspFold`` reads
the table once, one block at a time as a cache file streams or as a table
just built is cut, and keeps only what the sums read: the prefix sums
S_f(0..N), each rounded once, and on request the Rankin series behind C,
rounded once, and the a(n) as floats.  The sums take the ``CuspFormSeries``
it makes, so no cusp command holds its table.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import arith
from ._words import exact
from .arith import CoefficientTable, require_coverage

# Deligne: |tau(n)| <= d(n) n^{11/2} < 2^120 for n <= 10^6, inside the 128
# bits a coefficient table holds.
_TAU_N_LIMIT = 10**6


def _eta_cube_support(degree):
    """Exponents m(m+1)/2 <= degree and coefficients (-1)^m (2m+1)."""
    exps = []
    coeffs = []
    m = 0
    while m * (m + 1) // 2 <= degree:
        exps.append(m * (m + 1) // 2)
        coeffs.append((2 * m + 1) * (-1 if m % 2 else 1))
        m += 1
    return np.array(exps, dtype=np.int64), np.array(coeffs, dtype=np.int64)


def tau_size(n_max):
    """n_max as an int, if a tau table can reach it; ValueError otherwise.
    ``cli`` checks a requested size with it before it looks in the cache."""
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if n_max > _TAU_N_LIMIT:
        raise ValueError(f"tau table limited to N <= {_TAU_N_LIMIT}")
    return n_max


def tau_table(n_max):
    """Exact tau(n) for 1 <= n <= n_max (index 0 = 0).

    tau(n) is the coefficient of q^(n-1) in the eighth power of the
    eta-cube series, taken exactly by ``powers.sparse_power``.
    """
    n_max = tau_size(n_max)
    from .powers import sparse_power  # on first use, as in arith.r_d_table

    exps, coeffs = _eta_cube_support(n_max - 1)
    power = sparse_power(exps, coeffs, 8, n_max - 1)
    return CoefficientTable("tau", np.concatenate((np.zeros_like(power[:1]), power)))


def tau_bruteforce(n_max):
    """tau by direct expansion of q * prod_{j <= N}(1 - q^j)^24, exact ints.

    Quadratic-cost oracle for small N; shares nothing with ``sparse_power``.
    """
    n_max = int(n_max)
    degree = n_max - 1
    poly = [1] + [0] * degree
    for j in range(1, degree + 1):
        for _ in range(24):
            # multiply by (1 - q^j)
            for i in range(degree, j - 1, -1):
                poly[i] -= poly[i - j]
    values = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        values[n] = poly[n - 1]
    return CoefficientTable("tau", values)


class CuspFold:
    """What the cusp sums read of a form's exact table a(0..n_max), kept in
    one pass over it: the fold of a tau read.

    It has the shape of ``selection.TableSelection``: ``arith.read_table_cache``
    streams a cache file into ``keep`` one block at a time, and ``apply``
    folds a table just built in the same way, so a cold and a warm run go on
    with the same ``CuspFormSeries`` and the table is never held.  The
    prefix sums are always kept; ``rankin`` asks for the series that
    ``rankin_constant`` reads, and ``floats`` for the a(n) themselves, which
    ``partial_sums`` reads at nu > 0.
    """

    __slots__ = ("n_max", "weight", "rankin", "floats")

    def __init__(self, n_max, weight=12, rankin=False, floats=False):
        self.n_max = operator.index(n_max)
        if self.n_max < 1:
            raise ValueError("need n_max >= 1")
        if weight < 1:
            raise ValueError("weight must be positive")
        self.weight = int(weight)
        self.rankin = bool(rankin)
        self.floats = bool(floats)

    def keep(self, label, blocks):
        """The CuspFormSeries of table ``label`` from ``blocks``, (start, block)
        pairs as ``TableSelection.keep`` takes them, covering 0..n_max in
        order.  Each piece of ``arith._PIECE`` entries becomes Python ints
        once and gives its exact prefix sums, each rounded once, and what
        else was asked: its Rankin terms float(a(n)^2) / (float(n^k) sqrt(n)),
        each correctly rounded, whose exact sum math.fsum rounds once, and
        its floats.  A table labelled tau must have tau(1) = 1."""
        k = self.weight
        prefix = np.empty(self.n_max + 1)
        floats = np.empty(self.n_max + 1) if self.floats else None

        def fold():  # each piece into prefix and floats; yields its Rankin terms
            carry = 0
            for start, block in blocks:
                for p in range(0, len(block), arith._PIECE):
                    s = start + p
                    a = exact(block[p : p + arith._PIECE])
                    sums = np.cumsum(a)
                    sums += carry
                    carry = sums[-1]
                    prefix[s : s + len(a)] = sums
                    del sums  # not held while the terms are made
                    if floats is not None:
                        floats[s : s + len(a)] = a
                    n = np.arange(s, s + len(a))
                    if s == 0:  # the series starts at n = 1
                        if label == "tau" and a[1] != 1:
                            raise ValueError(f"table 'tau' must have tau(1) = 1, got {a[1]}")
                        a, n = a[1:], n[1:]
                    if self.rankin:
                        terms = (a * a).astype(np.float64)
                        del a
                        terms /= (exact(n) ** k).astype(np.float64) * np.sqrt(n)
                        yield terms.tolist()

        series = math.fsum(itertools.chain.from_iterable(fold()))  # 0.0 when none are asked
        rankin = series if self.rankin else None
        for kept in (prefix, floats):
            if kept is not None:
                kept.setflags(write=False)
        return CuspFormSeries(label, k, prefix, rankin, floats)

    def apply(self, table):
        """The CuspFormSeries of the CoefficientTable ``table``, folded one
        block at a time as from a cache file."""
        table.require(self.n_max, "the fold")
        v = table.values[: self.n_max + 1]
        return self.keep(table.label, ((s, v[s : s + arith._BLOCK]) for s in range(0, len(v), arith._BLOCK)))


@dataclass(frozen=True, eq=False)
class CuspFormSeries:
    """A cusp form of weight k as its sums read the exact table a(0..N) of
    ``label``, made by a ``CuspFold``: the prefix sums S_f(0..N), each
    rounded once, and where the fold kept them (None otherwise) the Rankin
    series sum_{1 <= n <= N} a(n)^2 / n^{k + 1/2}, rounded once, and the
    a(0..N), each rounded once.  The arrays are read-only."""

    label: str
    weight: int
    prefix: np.ndarray = field(repr=False)
    rankin: float | None = None
    floats: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_max(self):
        return len(self.prefix) - 1


def delta_form(n_max):
    """The built-in weight-12 form with tau coefficients, folded with the
    Rankin series and the floats, so that every sum of this module reads it."""
    return CuspFold(n_max, rankin=True, floats=True).apply(tau_table(n_max))


@dataclass
class PartialSumSeries:
    """S^nu(n) = sum_{m <= n} a(m)/m^nu."""

    base: CuspFormSeries
    nu: float
    values: np.ndarray

    @property
    def n_max(self):
        return len(self.values) - 1


def partial_sum_order(nu):
    """nu as a float, if ``partial_sums`` takes it; ValueError otherwise.
    ``cli`` checks --nu with it before it reads the table."""
    nu = float(nu)
    if not 0 <= nu < math.inf:
        raise ValueError(f"nu must be finite and nonnegative, got {nu}")
    return nu


def partial_sums(form, nu):
    """Prefix sums of a(m)/m^nu: the form's rounded exact prefix sums
    (read-only) at nu = 0, Kahan-compensated over its floats for nu > 0."""
    nu = partial_sum_order(nu)
    if nu == 0.0:
        return PartialSumSeries(form, 0.0, form.prefix)
    if form.floats is None:
        raise ValueError("partial sums at nu > 0 read the a(n): fold the table with floats=True")
    n = np.arange(len(form.floats), dtype=np.float64)
    n[0] = 1.0
    terms = form.floats * n ** (-nu)
    terms[0] = 0.0
    values = np.empty(len(terms))
    total = 0.0
    comp = 0.0
    for i, t in enumerate(terms.tolist()):
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        values[i] = total
    return PartialSumSeries(form, nu, values)


def second_moment_reach(X):
    """(n, what): the last n that the smoothed second moment at X reads, 40X
    rounded up, and what reads it.  ``cli`` checks a --table-size with it
    before it reads the table."""
    X = float(X)
    if X <= 0:
        raise ValueError("X must be positive")
    return int(math.ceil(40 * X)), f"the smoothed second moment at X={X:g}"


def smoothed_second_moment(form, X):
    """sum_{n <= 40X} S_f(n)^2 / n^{k-1} e^{-n/X}.

    The 40X truncation leaves exponential mass below 1e-17, invisible at
    double precision; partial sums convert to float before squaring.  The
    terms are made and summed one leaf of ``arith._pairwise_sum`` at a
    time, so the sum has the bits of np.sum over the whole vector of
    terms, which never exists.
    """
    X = float(X)
    top, what = second_moment_reach(X)
    require_coverage(form.label, form.n_max, top, what)
    prefix = form.prefix

    def leaf(i, j):
        S = prefix[i + 1 : j + 1]
        n = np.arange(i + 1, j + 1, dtype=np.float64)
        return np.sum(S * S * n ** (1 - form.weight) * np.exp(-n / X))

    return float(arith._pairwise_sum(leaf, 0, top, arith._BLOCK))


def rankin_constant(form):
    """Truncated smoothed-moment constant and a tail-size estimate.

    C = Gamma(3/2)/(4 pi^2) sum_{n <= N} a(n)^2 / n^{k + 1/2} to the form's
    N.  The Deligne bound a(n)^2 <= d(n)^2 n^{k-1} leaves a tail ~
    sum_{n > N} d(n)^2 n^{-3/2}; the returned bound uses the average order
    sum_{n<=x} d(n)^2 ~ x log^3 x / pi^2 by partial summation (a calibrated
    overestimate, decreasing in N).

    C is computed with correctly rounded operations only: the series is the
    fsum of correctly rounded terms that the ``CuspFold`` made, rounded
    once, and Gamma(3/2) = sqrt(pi)/2.  So C has the same bits on every
    IEEE-754 platform.  The tail bound goes through libm (log) and carries
    no such promise.
    """
    if form.rankin is None:
        raise ValueError("the Rankin constant reads the Rankin series: fold the table with rankin=True")
    n_trunc = form.n_max
    front = math.sqrt(math.pi) / 2 / (4 * math.pi * math.pi)
    # Partial summation against sum_{n<=x} d(n)^2 ~ x log^3 x / pi^2, with a
    # 3x safety factor absorbing the positive lower-order average terms
    # (checked against explicit extension of the series during calibration).
    L = math.log(max(n_trunc, 3))
    poly = 2 * L**3 + 18 * L**2 + 72 * L + 144
    tail = front * 3.0 * poly / (math.pi**2 * math.sqrt(n_trunc))
    return front * form.rankin, tail


def sign_scan_reach(X, r):
    """(n, what): the end X + floor(X^r) of the sign-scan window at X >= 1,
    for 0 < r <= 1, and what reads it; as ``second_moment_reach``."""
    if X < 1:  # X^r has no real value at X < 0, and X = 0 leaves no window
        raise ValueError(f"the sign scan window needs X >= 1, got {X:g}")
    X = int(X)
    r = float(r)
    if not 0 < r <= 1:
        raise ValueError("r must lie in (0, 1]")
    hi = X + int(math.floor(X**r))
    return hi, f"the sign scan window [{X}, {hi}]"


def sign_changes(series, X, r):
    """Positions n in [X, X + X^r] where S^nu changes sign.

    Zeros are bridged: a zero value is skipped and the comparison uses the
    last nonzero sign, so an exact zero never counts as two changes.
    """
    X = int(X)
    hi, what = sign_scan_reach(X, r)
    require_coverage(series.base.label, series.n_max, hi, what)
    vals = series.values
    changes = []
    prev_sign = 0
    prev_n = None
    for n in range(X, hi + 1):
        v = vals[n]
        if v == 0.0:
            continue
        sign = 1 if v > 0 else -1
        if prev_sign and sign != prev_sign:
            changes.append(prev_n)
        prev_sign = sign
        prev_n = n
    return changes


def short_interval_average(form, X):
    """Window-normalized second moment around X:

        (1 / (X^{2/3} (log X)^{1/6})) sum_{|n - X| < X^{2/3} (log X)^{1/6}} S_f(n)^2.
    """
    lo, hi, width = _short_interval_window(X)
    require_coverage(form.label, form.n_max, *short_interval_reach(X))
    S = form.prefix[lo : hi + 1]
    return float(np.sum(S * S)) / width


def _short_interval_window(X):
    """(lo, hi, width) of the window |n - X| < width at an integer X >= 2."""
    X = int(X)
    if X < 2:  # log X = 0 would leave an empty window
        raise ValueError(f"the short-interval window needs X >= 2, got {X}")
    width = X ** (2.0 / 3.0) * math.log(X) ** (1.0 / 6.0)
    return max(1, int(math.floor(X - width)) + 1), int(math.ceil(X + width)) - 1, width


def short_interval_reach(X):
    """(n, what): the last n of the short-interval window at X, and what
    reads it; as ``second_moment_reach``."""
    return _short_interval_window(X)[1], f"the short-interval window at X={int(X)}"

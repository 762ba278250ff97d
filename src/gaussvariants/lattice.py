"""Exact lattice counting: circles, spheres, and one-sheeted hyperboloids.

Sharp counts are exact integers built from the r_d tables; the analytic
comparisons are

* the ball count S_d(R) = sum_{n <= R} r_d(n) against Vol B_d(sqrt R),
* the mean square of the circle discrepancy, integrated exactly piecewise
  (the count is constant and the area linear on each [n, n+1)),
* the Bessel-series identity
  S_2(R) - pi R = sqrt(R) sum r_2(n) n^{-1/2} J_1(2 pi sqrt(nR)),
* hyperboloid counts N_{d,h}(R) = sum_{2m^2 + h <= R} r_{d-1}(m^2 + h),
  their kernel-smoothed and short-interval versions, and
* the exact odd-divisor identities tying integer points on
  X^2 + Y^2 = Z^2 + 1 to sums of d_o(n^2 + 1).

Counting convention: the boundary shell ||x||^2 = R is included, so sharp
counts condition on n <= R over integer shells.

The circle functions (the ball counts, the mean square and the Bessel
series) use only the nonzero entries of r_2, so they take only the complete
``selection.TableEntries`` of a nonzero selection (``TableSelection(n_max)``),
which stand for the whole table.  A hyperboloid sum uses only the entries
r(m^2 + h), so it takes only the TableEntries of a shell selection
(``TableSelection(top, shell_indices(h, top))``) and reads r(m^2 + h)
at position m.  Both give the bits of the whole table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import arith

# ---------------------------------------------------------------------------
# CountSeries: the grid-of-evaluations record handed to the fit module
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountSeries:
    """(X, value) grid from one counting operation."""

    gridX: tuple
    values: tuple

    def __post_init__(self):
        if len(self.gridX) != len(self.values):
            raise ValueError("grid and values must have equal length")
        if any(b <= a for a, b in zip(self.gridX, self.gridX[1:])):
            raise ValueError("grid must be strictly ascending")

    @property
    def grid_array(self):
        return np.array(self.gridX, dtype=np.float64)

    @property
    def value_array(self):
        return np.array(self.values, dtype=np.float64)


def count_series(grid, values):
    return CountSeries(tuple(grid), tuple(values))


# ---------------------------------------------------------------------------
# Balls
# ---------------------------------------------------------------------------

def ball_volume(d, R):
    """Vol B_d(sqrt R) = pi^{d/2} R^{d/2} / Gamma(d/2 + 1)."""
    return math.pi ** (d / 2) * float(R) ** (d / 2) / math.gamma(d / 2 + 1)


def _nonzero(table, lo, hi):
    """(index, values) of the entries lo <= n <= hi of ``table``, the complete
    TableEntries of a nonzero selection, as stored."""
    if not table.complete:
        raise ValueError(f"the entries read of table '{table.label}' leave out nonzero ones")
    return table.between(lo, hi)


def count_ball_reach(d, R):
    """(n, what): the last shell floor(R) that S_d(R) reads, and what reads
    it; as ``cuspform.second_moment_reach``."""
    R = float(R)
    if R < 0:
        raise ValueError("R must be nonnegative")
    return int(math.floor(R)), f"S_{d}({R:g})"


def count_ball(d, R, table):
    """S_d(R): lattice points with ||x||^2 <= R, exactly (n = 0 included)."""
    shell, what = count_ball_reach(d, R)
    table.require(shell, what)
    _, values = _nonzero(table, 0, shell)
    pieces = (values[i : i + arith._PIECE] for i in range(0, len(values), arith._PIECE))
    return sum(int(arith.exact_ints(piece, len(piece)).sum()) for piece in pieces)


def discrepancy(d, R, table):
    """S_d(R) - Vol B_d(sqrt R), the lattice point discrepancy."""
    return float(count_ball(d, R, table)) - ball_volume(d, R)


def mean_square_reach(X):
    """(n, what): ceil(X) - 1, the last count of the mean square to X; as
    ``count_ball_reach``."""
    X = float(X)
    if X <= 0:
        raise ValueError("X must be positive")
    return int(math.ceil(X)) - 1, f"mean square to X={X:g}"


def mean_square_P2(X, table):
    """int_0^X (S_2(r) - pi r)^2 dr, exactly piecewise.

    On [n, n+1) the count is the constant C_n and the area is pi r, so each
    piece has the closed antiderivative -(C_n - pi r)^3 / (3 pi); pieces are
    combined with compensated summation, which is exact, so they are made
    one block of n at a time and handed to it one ``arith._PIECE`` of
    Python floats at a time.  C_n is the exact running sum
    (``arith.prefix_blocks``) of the nonzero entries n' <= n, rounded once.
    """
    X = float(X)
    last, what = mean_square_reach(X)
    table.require(last, what)
    index, values = _nonzero(table, 0, last)
    top = last + 1
    kept_counts = np.zeros(len(index) + 1)  # [k]: the first k kept, summed, rounded
    for s, sums in arith.prefix_blocks(values):
        kept_counts[s + 1 : s + 1 + len(sums)] = sums
        del sums  # not held while the next block is folded

    def pieces():
        a = 0  # the kept entries below the block
        for s in range(0, top, arith._BLOCK):
            e = min(s + arith._BLOCK, top)
            b = int(np.searchsorted(index, e))
            # C_n is kept_counts[k] from the k-th kept index (or s) to the next
            counts = np.repeat(kept_counts[a : b + 1], np.diff(index[a:b], prepend=s, append=e))
            left = np.arange(s, e, dtype=np.float64)
            right = np.minimum(left + 1.0, X)
            piece = ((counts - math.pi * left) ** 3 - (counts - math.pi * right) ** 3) / (
                3 * math.pi
            )
            for p in range(0, len(piece), arith._PIECE):
                yield piece[p : p + arith._PIECE].tolist()
            a = b

    return math.fsum(itertools.chain.from_iterable(pieces()))


# ---------------------------------------------------------------------------
# Bessel J1 and the discrepancy series
# ---------------------------------------------------------------------------

_J1_SWITCH = 12.0
_J1_SERIES_TERMS = 40
# Large-argument coefficients a_k(1) = prod_{j<=k} (4 - (2j-1)^2) / (k! 8^k);
# P carries (-1)^m a_{2m} x^{-2m}, Q carries (-1)^m a_{2m+1} x^{-(2m+1)}.
_J1_P_COEFFS = (1.0, 15.0 / 128.0, -4725.0 / 32768.0, 2837835.0 / 4194304.0)
_J1_Q_COEFFS = (
    3.0 / 8.0,
    -105.0 / 1024.0,
    72765.0 / 262144.0,
    -468242775.0 / 234881024.0,
)


def bessel_J1(x):
    """J_1 for x >= 0: power series below 12, asymptotic expansion above.

    Absolute error stays below 1e-8 across [0, 1e5]; the tail keeps four
    correction terms on each of the cosine and sine parts because two are
    not enough to hold 1e-8 at the switch point.  An array with no argument
    at or below the switch, as in every Bessel series at R > 36 / pi^2,
    goes to the expansion whole, without masks or copies.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    lowest = arr.min(initial=np.inf)
    if lowest < 0:
        raise ValueError("bessel_J1 is evaluated for x >= 0")
    if lowest > _J1_SWITCH:
        out = _bessel_J1_large(arr)
    else:
        out = np.empty(arr.shape)
        small = arr <= _J1_SWITCH
        half = arr[small] / 2.0
        term = half.copy()
        acc = term.copy()
        for j in range(1, _J1_SERIES_TERMS):
            term = term * (-(half * half)) / (j * (j + 1))
            acc += term
        out[small] = acc
        if not small.all():
            out[~small] = _bessel_J1_large(arr[~small])
    return float(out[0]) if scalar else out


def _bessel_J1_large(x):
    """The asymptotic expansion of J_1 at x > _J1_SWITCH.  Each Horner sum
    starts at its top coefficient (0 * y + c = c exactly) and runs in place,
    with the rounding of p * y + c at every step."""
    inv2 = 1.0 / (x * x)
    p = np.full(x.shape, _J1_P_COEFFS[-1])
    for c in reversed(_J1_P_COEFFS[:-1]):
        p *= inv2
        p += c
    q = np.full(x.shape, _J1_Q_COEFFS[-1])
    for c in reversed(_J1_Q_COEFFS[:-1]):
        q *= inv2
        q += c
    q /= x
    omega = x - 0.75 * math.pi
    out = np.cos(omega)
    out *= p
    q *= np.sin(omega)
    out -= q
    scale = math.pi * x
    np.divide(2.0, scale, out=scale)
    out *= np.sqrt(scale, out=scale)
    return out


# Terms per leaf of the Bessel series: J_1 holds about a dozen temporaries of
# this length at once, so the leaf sets what `gv hardy` needs beyond its table.
_BESSEL_LEAF = 1 << 13


def hardy_reach(n_terms):
    """(n, what): n_terms, the last term of the Bessel series; as
    ``count_ball_reach``."""
    n_terms = int(n_terms)
    if n_terms < 0:
        raise ValueError(f"the Bessel series needs n_terms >= 0, got {n_terms}")
    return n_terms, f"Bessel series with {n_terms} terms"


def hardy_identity(R, n_terms, table):
    """sqrt(R) sum_{n <= M} r_2(n) n^{-1/2} J_1(2 pi sqrt(nR)).

    Converges (slowly, in mean) to the circle discrepancy at non-integer R;
    integer R is rejected since the boundary convention there is delicate.
    R is a float or a 1-D array of radii, as in ``bessel_J1``.  The series
    runs over the nonzero entries 1 <= n <= M only, those a nonzero
    selection kept.  The terms J_1(2 pi sqrt(nR)) r_2(n) / sqrt(n)
    of every radius are made and summed one leaf of ``arith._pairwise_sum``
    at a time, so each radius's sum has the bits of np.sum over its whole
    vector of terms, which never exists.
    """
    radii = np.asarray(R, dtype=np.float64)
    scalar = radii.ndim == 0
    radii = np.atleast_1d(radii)
    if np.any(radii <= 0):
        raise ValueError("R must be positive")
    if np.any(radii == np.floor(radii)):
        raise ValueError("the Bessel series is evaluated at non-integer R only")
    n_terms, what = hardy_reach(n_terms)
    table.require(n_terms, what)
    index, values = _nonzero(table, 1, n_terms)

    def leaf(i, j):
        n = index[i:j].astype(np.float64)
        r2 = arith.exact_ints(values[i:j], 1).astype(np.float64)
        root_n = np.sqrt(n)
        sums = []
        for R in radii.tolist():
            terms = bessel_J1(2 * math.pi * np.sqrt(n * R)) * r2
            terms /= root_n
            sums.append(np.sum(terms))
        return np.array(sums)

    totals = arith._pairwise_sum(leaf, 0, len(index), _BESSEL_LEAF)
    out = [math.sqrt(R) * float(total) for R, total in zip(radii.tolist(), totals)]
    return out[0] if scalar else np.array(out)


# ---------------------------------------------------------------------------
# One-sheeted hyperboloids
# ---------------------------------------------------------------------------

def hyperboloid_index(h, n_top):
    """The largest r-table index m^2 + h of the shells 2m^2 + h <= n_top, or -1."""
    if n_top < h:
        return -1
    m_top = math.isqrt((int(math.floor(n_top)) - h) // 2)
    return m_top * m_top + h


def shell_indices(h, last):
    """The r-table indices m^2 + h <= last, m = 0, 1, ...: all that a
    hyperboloid sum whose reach ends at ``last`` reads, and the index of its
    shell selection."""
    m = np.arange(math.isqrt(last - h) + 1 if last >= h else 0, dtype=np.int64)
    return m * m + h


def hyperboloid_count_reach(d, h, R):
    """(n, what): the last index m^2 + h that N_{d,h}(R) reads (-1 if it
    reads none), and what reads it; as ``count_ball_reach``."""
    R = float(R)
    return hyperboloid_index(h, R), f"N_{{{d},{h}}}({R:g})"


def hyperboloid_smoothed_reach(h, X, kernel):
    """(n, what) of ``hyperboloid_smoothed`` at X, over the shells up to
    ``kernels.kernel_support``; as ``hyperboloid_count_reach``."""
    from . import kernels

    return hyperboloid_index(h, kernels.kernel_support(kernel, X)), f"smoothed hyperboloid at X={X:g}"


def hyperboloid_short_reach(d, h, X):
    """(n, what) of ``hyperboloid_short_interval`` at X, over the shells up
    to the end of its ``short_window``; as ``hyperboloid_count_reach``."""
    return hyperboloid_index(h, short_window(d, X)[1]), f"short-interval window at X={float(X):g}"


def _hyperboloid_shells(h, reach, entries):
    """Shells n = 2m^2 + h (m = 0..m_top) of the hyperboloid sum whose reach
    (n, what) ends at the index m_top^2 + h (-1: no shell), and their exact
    weights b = (1 if m = 0 else 2) r(m^2 + h), with r the first m_top + 1
    values of ``entries``, the TableEntries of a shell selection
    (``shell_indices``) that reaches that far, read by position.

    Every hyperboloid sum is a sum over these shells, and b holds r through
    ``arith.exact_ints`` for 2 (m_top + 1) terms, so sums of b are exact.
    Both arrays are empty (int64) when there is no shell.  Raises
    ValueError for h < 1, and for entries whose first m_top + 1 indices are
    not the m^2 + h.
    """
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    last, what = reach
    shells = shell_indices(h, last)
    m = np.arange(len(shells), dtype=np.int64)
    n = 2 * m * m + h
    if not len(shells):
        return n, m
    entries.require(last, what)
    index, r = entries.index[: len(shells)], entries.values[: len(shells)]
    if len(index) < len(shells) or np.any(index != shells):
        raise ValueError(f"entries of table '{entries.label}' are not the shells m^2 + {h} to m = {m[-1]}")
    r = arith.exact_ints(r, 2 * len(shells))
    return n, np.where(m == 0, r, 2 * r)


def hyperboloid_count(d, h, R, table):
    """N_{d,h}(R) = sum over m in Z with 2m^2 + h <= R of r_{d-1}(m^2 + h).

    m = 0 is counted once and +-m separately; ``table`` holds the shell
    entries of the r_{d-1} table to at least m_max^2 + h.
    """
    d, h = int(d), int(h)
    R = float(R)
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    _, b = _hyperboloid_shells(h, hyperboloid_count_reach(d, h, R), table)
    return int(b.sum())


def hyperboloid_bruteforce(d, h, R):
    """Independent enumeration oracle for N_{d,h}(R).

    Enumerates (x_1 .. x_{d-1}) on a raw grid, bins the norms, and matches
    each norm t against x_d^2 = t - h; never reads an r table.  Guarded to
    stay desk-scale (R <= 1000 at d = 3, shrinking with dimension).
    """
    d, h = int(d), int(h)
    R = float(R)
    if d < 3 or h < 1:
        raise ValueError("need d >= 3 and h >= 1")
    guard = {3: 10**3, 4: 600, 5: 400, 6: 250}.get(d)
    if guard is None or R > guard:
        raise ValueError(f"brute-force guard exceeded for d={d}, R={R:g}")
    if R < h:
        return 0
    t_top = (int(math.floor(R)) + h) // 2  # x_d^2 + h <= (R + h)/2
    counts = arith._enumerated_norm_counts(d - 1, t_top)
    total = 0
    for t in range(h, t_top + 1):
        c = int(counts[t])
        if c == 0:
            continue
        s2 = t - h
        s = math.isqrt(s2)
        if s * s != s2:
            continue
        if t + s2 > R:
            continue
        total += c if s == 0 else 2 * c
    return total


def hyperboloid_shell_table(d, h, n_max, table):
    """Coefficients b(n) = sum_{m : 2m^2 + h = n} r_{d-1}(m^2 + h), n <= n_max.

    Packs the hyperboloid sum into an ordinary coefficient table so the
    cutoff kernels apply verbatim: sum_m r_{d-1}(m^2+h) w(2m^2+h)
    = sum_n b(n) w(n).
    """
    n_max = int(n_max)
    n, b = _hyperboloid_shells(h, (hyperboloid_index(h, n_max), "hyperboloid shell table"), table)
    out = np.zeros(n_max + 1, dtype=b.dtype)
    out[n] = b
    return arith.CoefficientTable(f"hyp_{d}_{h}", out)


def hyperboloid_smoothed(d, h, X, table, kernel=None):
    """sum_{m in Z} r_{d-1}(m^2 + h) w(2m^2 + h) for the kernel's weight w at
    scale X (e^{-n/X} by default), over the shells 2m^2 + h up to
    ``kernels.kernel_support``."""
    from . import kernels  # loaded only by the smoothed sums

    if kernel is None:
        kernel = kernels.KernelSpec("exponential")
    h = int(h)
    n, b = _hyperboloid_shells(h, hyperboloid_smoothed_reach(h, X, kernel), table)
    return kernels.apply_kernel(n, b, kernel, X)


def power_saving_exponent(d):
    """lambda(k) = 1/(6 + 19/k) at k = (d-2)/2; equals 1/44 in dimension 3."""
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    k = (d - 2) / 2.0
    return 1.0 / (6.0 + 19.0 / k)


def short_window(d, X):
    """(lo, hi): the window |n - X| < X^{1 - lambda(k)} of the short-interval
    sum at X > 0."""
    X = float(X)
    if X <= 0:
        raise ValueError(f"the short-interval window is normalized by a power of X > 0, got {X:g}")
    width = X ** (1.0 - power_saving_exponent(d))
    return X - width, X + width


def hyperboloid_short_interval(d, h, X, table):
    """Sharp window sum over |2m^2 + h - X| < X^{1 - lambda(k)}.

    Returns (sum, sum / X^{k - lambda(k)}) with k = (d-2)/2; the normalized
    second component is the quantity that stays bounded across X.
    """
    d, h = int(d), int(h)
    X = float(X)
    lo, hi = short_window(d, X)
    n, b = _hyperboloid_shells(h, hyperboloid_short_reach(d, h, X), table)
    total = int(b[(lo < n) & (n < hi)].sum())
    lam = power_saving_exponent(d)
    return total, total / X ** ((d - 2) / 2.0 - lam)


# ---------------------------------------------------------------------------
# The exact divisor identities on X^2 + Y^2 = Z^2 + 1
# ---------------------------------------------------------------------------

def points_on_unit_hyperboloid(R, even_z=False):
    """Integer points on X^2 + Y^2 = Z^2 + 1 for each Z = 0..R, enumerated.

    With ``even_z`` the surface is X^2 + Y^2 = (2Z)^2 + 1.  Returns the
    int64 array of counts r_2(shell) per Z, read off one grid enumeration
    of X^2 + Y^2 (never an r_2 table).

    Convention (frozen after comparing it with the two-sheet count for
    small R): the identities take each solution once per positive Z, i.e.
    entries 1..R.  Entry 0, the Z = 0 shell, holds exactly 4 points that
    pair with the absent n = 0 term of the divisor sums.
    """
    R = int(R)
    if R < 0:
        raise ValueError("R must be nonnegative")
    shells = (np.arange(R + 1, dtype=np.int64) * (2 if even_z else 1)) ** 2 + 1
    return arith._enumerated_norm_counts(2, int(shells[-1]))[shells]


def divisor_identity_check(R, d_odd_table):
    """Both sides of the exact identity, for every R' = 1..R: points on
    X^2+Y^2=Z^2+1 with 1 <= Z <= R' and 4 sum_{n <= R'} d_o(n^2 + 1).

    Returns lists (lhs, rhs), entry R' - 1 for R'.
    """
    R = int(R)
    d_odd_table.require(R * R + 1, "divisor identity")
    n = np.arange(1, R + 1, dtype=np.int64)
    lhs = np.cumsum(points_on_unit_hyperboloid(R)[1:])
    rhs = 4 * np.cumsum(d_odd_table.ints()[n * n + 1])
    return lhs.tolist(), rhs.tolist()


def divisor_combination(R, d_table):
    """Both sides of sum_{n <= R'} d(n^2 + 1) = N_1(R')/2 - N_2(R'/2)/4 for
    every even R' = 2..R, with N_1, N_2 the enumerated counts on the two
    hyperboloids.  R must be even.

    Returns lists (direct, combined), entry R'/2 - 1 for R'; the
    combination is integral (a float marks a failure).
    """
    R = int(R)
    if R % 2:
        raise ValueError("the combination formula is stated for even R")
    d_table.require(R * R + 1, "divisor combination")
    n = np.arange(1, R + 1, dtype=np.int64)
    direct = np.cumsum(d_table.ints()[n * n + 1])[1::2].tolist()
    n1 = np.cumsum(points_on_unit_hyperboloid(R)[1:])[1::2]
    n2 = np.cumsum(points_on_unit_hyperboloid(R // 2, even_z=True)[1:])
    combined = [c // 4 if c % 4 == 0 else c / 4.0 for c in (2 * n1 - n2).tolist()]
    return direct, combined

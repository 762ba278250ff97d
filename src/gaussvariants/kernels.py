"""The four Mellin cutoff kernels and their contour-integral identities.

A Dirichlet series D(s) = sum a(n) n^{-s} turns into a weighted coefficient
sum under each of these vertical-line transforms:

* Cesaro / Riesz:   (1/2 pi i) int Y^s / (s(s+1)...(s+k)) ds
                      = (1/k!) (1 - 1/Y)^k   for Y >= 1, else 0,
* exponential:      e^{-x} = (1/2 pi i) int x^{-s} Gamma(s) ds,
* concentrating:    (1/2 pi i) int_(sigma) exp(pi s^2/Y^2) X^s / Y ds
                      = (1/2 pi) exp(-Y^2 log^2 X / 4 pi),
* compact cutoff:   phi_Y smooth, 1 below 1, 0 above 1 + 1/Y, with Mellin
                    transform Phi_Y(s) = 1/s + O(1/Y).

``apply_kernel`` weights the coefficients b at the points n it is given by
any of the four kernels, always on the coefficient side, as one np.sum, so
no bit depends on a BLAS library or its thread count.
``lattice.hyperboloid_smoothed`` passes it the hyperboloid shells up to
``kernel_support``; ``cuspform.smoothed_second_moment`` applies the
exponential weight e^{-n/X} itself, out to 40X.  The ``*_contour
functions exist to verify the identities by trapezoidal quadrature with
explicit truncation-tail bounds.  Their trapezoid sums each chunk of nodes
block by block along numpy's pairwise tree (``arith._pairwise_sum``), so a
chunk total has the bits of np.sum over the whole chunk.  The chunks are
split across the available CPUs; no bit depends on their count, and no
option controls the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._split import split_map
from .arith import _pairwise_sum

_WEIGHT_FLOOR = 1e-12  # the concentrating weight past kernel_support


@dataclass(frozen=True)
class Quadrature:
    """Vertical-line trapezoid: abscissa sigma, truncation T, point count."""

    sigma: float
    T: float
    steps: int

    def __post_init__(self):
        if self.T <= 0 or self.steps < 2:
            raise ValueError("need T > 0 and at least 2 quadrature steps")


@dataclass(frozen=True)
class KernelSpec:
    """One of the four cutoffs with its parameters."""

    kind: str  # "cesaro" | "exponential" | "concentrating" | "compact"
    k: int | None = None
    Y: float | None = None

    def __post_init__(self):
        if self.kind == "cesaro":
            if not isinstance(self.k, int) or not 1 <= self.k <= 170:
                raise ValueError("cesaro kernel needs an integer 1 <= k <= 170 (k! must be a float)")
        elif self.kind == "concentrating":
            if self.Y is None or not 0 < self.Y < math.inf:
                raise ValueError("concentrating kernel needs a finite Y > 0")
        elif self.kind == "compact":
            if self.Y is None or not 2 <= self.Y < math.inf:
                raise ValueError("compact kernel needs a finite Y >= 2")
        elif self.kind != "exponential":
            raise ValueError(f"unknown kernel kind {self.kind!r}")


def parse_kernel(text):
    """The KernelSpec of a kernel's command-line spelling: exp | cesaro:k |
    conc:Y | compact:Y."""
    name, _, arg = text.partition(":")
    if name == "exp":
        return KernelSpec("exponential")
    if name == "cesaro":
        return KernelSpec("cesaro", k=int(arg))
    if name == "conc":
        return KernelSpec("concentrating", Y=float(arg))
    if name == "compact":
        return KernelSpec("compact", Y=float(arg))
    raise ValueError(f"unknown kernel {text!r}")


_BLOCK = 1 << 13  # nodes evaluated at once: 128 KiB per complex array
_CHUNK = 1 << 20  # nodes summed pairwise as one np.sum, by arith._pairwise_sum


def _nodes(quad, i, j):
    """Nodes i..j-1 of np.linspace(-T, T, steps + 1), by its own operations."""
    t = np.arange(i, j, dtype=np.float64) * (2 * quad.T / quad.steps) - quad.T
    if j == quad.steps + 1:
        t[-1] = quad.T
    return t


def _vertical_trapezoid(integrands, quad):
    """(1/2 pi i) int_(sigma) f(s) ds by the trapezoid rule on |Im s| <= T,
    for each f whose values ``integrands(s)`` yields, in order, on one
    block of nodes s; one total per f.

    Each chunk of _CHUNK nodes sums to np.sum over the whole chunk, bit for
    bit: ``arith._pairwise_sum`` follows numpy's pairwise tree over the
    chunk's complex values down to blocks of at most _BLOCK nodes, and
    np.sum of each block is numpy's own leaf, so no array grows with the
    node count.  The chunks are summed across the available CPUs and their
    sums added here in chunk order, so no bit depends on the CPU count.
    """
    n = quad.steps + 1

    def leaf(i, j):
        s = quad.sigma + 1j * _nodes(quad, i, j)
        sums = []
        for vals in integrands(s):
            # the end nodes 0 and steps weigh 1/2, halved in place: each
            # integrand must yield a fresh array, which this leaf then owns
            if i == 0:
                vals[0] *= 0.5
            if j == n:
                vals[-1] *= 0.5
            sums.append(np.sum(vals))
        return np.array(sums)

    chunks = [(start, min(_CHUNK, n - start)) for start in range(0, n, _CHUNK)]
    totals = sum(split_map(lambda chunk: _pairwise_sum(leaf, *chunk, _BLOCK, 2), chunks), 0j)
    t0, t1 = _nodes(quad, 0, 2)
    return [total * (t1 - t0) / (2 * np.pi) for total in totals]


# ---------------------------------------------------------------------------
# Cesaro / Riesz means
# ---------------------------------------------------------------------------

def cesaro_closed(Y, k):
    """(1/k!) (1 - 1/Y)^k for Y >= 1, and 0 for Y < 1."""
    Y = float(Y)
    k = int(k)
    if Y < 1.0:
        return 0.0
    return (1.0 - 1.0 / Y) ** k / math.factorial(k)


def cesaro_contour(Y, k, quad):
    """Trapezoidal quadrature of (1/2 pi i) int Y^s / (s...(s+k)) ds.

    The integrand decays like |t|^{-(k+1)}, so the truncation tail beyond
    |Im s| = T is bounded by ``cesaro_tail_bound``.
    """
    return cesaro_contours((Y,), (k,), quad)[0][0]


def cesaro_contours(Ys, ks, quad):
    """[[cesaro_contour(Y, k, quad) for k in ks] for Y in Ys], in one sweep.

    Each block of nodes extends the product s(s+1)...(s+k) one factor at a
    time through the sorted orders and takes Y^s once per Y, with the same
    operations as a single evaluation, so every value has its bits.

    On the line s = sigma + it, Y^s = Y^sigma (cos(t log Y) + i sin(t log Y)):
    one ``math.exp(sigma log Y)`` per Y, and one real cosine and sine of
    t log Y per node, scaled in place.  numpy hands a non-integral complex
    power to the C library's ``cpow``, which glibc computes as
    cexp(s clog Y).  For real Y > 0, clog Y = (log Y, 0), so s clog Y is
    (sigma log Y, t log Y) and cexp takes exp of the first part and the
    sine and cosine of the second: the same operations, so the same bits as
    ``Y**s``, without a complex log and exp per node.  The node t = 0 stays
    on ``Y ** s``: there s is real, and when sigma is an integer numpy
    takes its integer-power branch instead, which rounds differently
    (0.5 ** 30 is exactly 2^-30; exp(30 log 0.5) is 8 ulp off).
    """
    Ys = [float(Y) for Y in Ys]
    ks = [int(k) for k in ks]
    if quad.sigma <= 0:
        raise ValueError("cesaro contour needs sigma > 0")
    order = sorted(set(ks))
    logs = [math.log(Y) for Y in Ys]
    scales = [math.exp(quad.sigma * log_Y) for log_Y in logs]

    def integrands(s):
        t = s.imag
        origin = t == 0
        denoms = [s]  # denoms[j] = s(s+1)...(s+j)
        for j in range(1, order[-1] + 1):
            # np.multiply fixes the operand order: on arrays of 256 KiB or
            # more, numpy's temporary elision evaluates denom * (s + j) as
            # (s + j) * denom, and the SIMD complex product is not bitwise
            # commutative
            denoms.append(np.multiply(s + j, denoms[-1]))
        for Y, log_Y, scale in zip(Ys, logs, scales):
            theta = t * log_Y
            power = np.empty_like(s)
            np.cos(theta, out=power.real)
            np.sin(theta, out=power.imag)
            power *= scale
            power[origin] = Y ** s[origin]
            for k in order:
                yield power / denoms[k]

    totals = iter(_vertical_trapezoid(integrands, quad))
    rows = [dict(zip(order, totals)) for _ in Ys]
    return [[row[k].real for k in ks] for row in rows]


def cesaro_tail_bound(Y, k, quad):
    """Rigorous truncation tail: |integrand| <= Y^sigma / |t|^(k+1) off-axis."""
    return float(Y) ** quad.sigma / (math.pi * k * quad.T**k)


def concentrating_tail_bound(X, Y, quad):
    """Truncation tail of the Gaussian kernel: super-exponential in T/Y.

    |integrand| = exp(pi (sigma^2 - t^2)/Y^2) X^sigma / Y, and
    int_T^inf exp(-pi t^2/Y^2) dt <= (Y^2 / (2 pi T)) exp(-pi T^2/Y^2).
    """
    X, Y = float(X), float(Y)
    sigma, T = quad.sigma, quad.T
    gauss_tail = (Y * Y / (2 * math.pi * T)) * math.exp(-math.pi * T * T / (Y * Y))
    return (X**sigma * math.exp(math.pi * sigma * sigma / (Y * Y)) / Y) * gauss_tail / math.pi


def exp_tail_bound(x, quad):
    """Truncation tail of the Gamma kernel, exponential in T.

    Uses |Gamma(sigma+it)| <= 2 sqrt(2 pi) |t|^{sigma-1/2} e^{-pi|t|/2} for
    |t| >= max(1, 2 sigma) and int_T^inf t^a e^{-bt} dt <= 2 T^a e^{-bT}/b
    when a <= bT/2; requires T comfortably past the abscissa.
    """
    x = float(x)
    sigma, T = quad.sigma, quad.T
    if T < max(2.0, 2.0 * sigma) or (sigma - 0.5) > math.pi * T / 4:
        raise ValueError("tail bound needs T well past the abscissa")
    integral = 2.0 * T ** (sigma - 0.5) * math.exp(-math.pi * T / 2) / (math.pi / 2)
    return x ** (-sigma) * 2.0 * math.sqrt(2 * math.pi) * integral / math.pi


# ---------------------------------------------------------------------------
# Exponential (Gamma) kernel
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_vertical(s):
    """Gamma(s) for complex s with Re(s) > 0, vectorized.

    Fixed-coefficient Lanczos approximation (g = 7, 9 terms), relative
    error well below 1e-10 on vertical lines with Re(s) >= 0.5; arguments
    with Re(s) < 0.5 are lifted by the recurrence Gamma(s) = Gamma(s+1)/s.
    """
    s = np.asarray(s, dtype=np.complex128)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    if np.any(s.real <= 0):
        raise ValueError("gamma_vertical needs Re(s) > 0")
    shift = s.real < 0.5
    z = np.where(shift, s + 1.0, s)
    x = np.full(z.shape, _LANCZOS_COEFFS[0], dtype=np.complex128)
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        x = x + c / (z - 1.0 + i)
    t = z + _LANCZOS_G - 0.5
    out = math.sqrt(2 * math.pi) * t ** (z - 0.5) * np.exp(-t) * x
    out = np.where(shift, out / s, out)
    return complex(out[0]) if scalar else out


def exp_contour(x, quad):
    """Quadrature of e^{-x} = (1/2 pi i) int x^{-s} Gamma(s) ds, sigma > 0."""
    x = float(x)
    if x <= 0:
        raise ValueError("x must be positive")
    if quad.sigma <= 0:
        raise ValueError("the Gamma kernel needs sigma > 0")

    def integrand(s):
        yield x ** (-s) * gamma_vertical(s)

    return _vertical_trapezoid(integrand, quad)[0].real


# ---------------------------------------------------------------------------
# Concentrating (Gaussian) kernel
# ---------------------------------------------------------------------------

def concentrating_closed(X, Y):
    """(1/2 pi) exp(-Y^2 log^2 X / 4 pi); even in log X."""
    X = float(X)
    Y = float(Y)
    if X <= 0 or Y <= 0:
        raise ValueError("need X > 0 and Y > 0")
    return math.exp(-(Y**2) * math.log(X) ** 2 / (4 * math.pi)) / (2 * math.pi)


def concentrating_contour(X, Y, quad):
    """Quadrature of (1/2 pi i) int exp(pi s^2/Y^2) X^s / Y ds.

    The integrand is entire with Gaussian decay, so any abscissa works and
    T >= 10 Y already puts the truncation tail below 1e-8.
    """
    X = float(X)
    Y = float(Y)

    def integrand(s):
        yield np.exp(np.pi * s * s / (Y * Y)) * X**s / Y

    return _vertical_trapezoid(integrand, quad)[0].real


# ---------------------------------------------------------------------------
# Compact cutoff phi_Y / Phi_Y
# ---------------------------------------------------------------------------

def _bump_sigma(u):
    """The standard exp(-1/t) partition step: 0 at u<=0, 1 at u>=1,
    g(u)/(g(u)+g(1-u)) in between; C-infinity and symmetric."""
    u = np.asarray(u, dtype=np.float64)
    lo = u <= 0.0
    hi = u >= 1.0
    mid = ~(lo | hi)
    out = np.zeros(u.shape)
    out[hi] = 1.0
    um = u[mid]
    g = np.exp(-1.0 / um)
    g1 = np.exp(-1.0 / (1.0 - um))
    out[mid] = g / (g + g1)
    return out


def compact_phi(Y, x):
    """Smooth cutoff: 1 for x <= 1, 0 for x >= 1 + 1/Y, monotone between.

    The transition band uses sigma(Y (1 + 1/Y - x)) with the exp(-1/t)
    partition, so phi is C-infinity with phi(1 + 1/(2Y)) = 1/2.
    """
    Y = float(Y)
    if Y < 2:
        raise ValueError("compact cutoff needs Y >= 2")
    x_arr = np.asarray(x, dtype=np.float64)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if np.any(x_arr <= 0):
        raise ValueError("x must be positive")
    out = _bump_sigma(Y * (1.0 + 1.0 / Y - x_arr))
    out[x_arr <= 1.0] = 1.0
    out[x_arr >= 1.0 + 1.0 / Y] = 0.0
    return float(out[0]) if scalar else out


def compact_Phi(Y, s):
    """Mellin transform Phi_Y(s) = int_0^infty t^{s-1} phi_Y(t) dt, Re s > 0.

    The piece over [0, 1] integrates to 1/s exactly; the transition band
    [1, 1 + 1/Y] is integrated by composite Gauss-Legendre with the panel
    count scaled to the oscillation t^{i Im s}.  Satisfies
    |Phi_Y(s) - 1/s| <= 2/Y for |s| <= Y/2.
    """
    Y = float(Y)
    s = complex(s)
    if s.real <= 0:
        raise ValueError("Phi_Y is defined for Re(s) > 0")
    cycles = abs(s.imag) * math.log1p(1.0 / Y) / (2 * math.pi)
    panels = max(8, int(4 * cycles) + 1)
    x_gl, w_gl = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(1.0, 1.0 + 1.0 / Y, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * x_gl[None, :]).ravel()
    w = (half[:, None] * w_gl[None, :]).ravel()
    band = np.sum(w * np.exp((s - 1.0) * np.log(t)) * compact_phi(Y, t))
    return 1.0 / s + complex(band)


# ---------------------------------------------------------------------------
# The coefficient-side entry point
# ---------------------------------------------------------------------------

def kernel_weights(kernel, n, X):
    """Per-coefficient weights w(n) the kernel assigns at scale X."""
    n = np.asarray(n, dtype=np.float64)
    if kernel.kind == "exponential":
        return np.exp(-n / X)
    if kernel.kind == "cesaro":
        w = 1.0 - n / X
        w[w < 0] = 0.0
        return w**kernel.k / math.factorial(kernel.k)
    if kernel.kind == "concentrating":
        lg = np.log(X / n)
        return np.exp(-(kernel.Y**2) * lg * lg / (4 * np.pi)) / (2 * np.pi)
    return compact_phi(kernel.Y, n / X)  # compact: KernelSpec admits no other kind


def kernel_support(kernel, X):
    """Largest n whose kernel weight at scale X is summed: n <= 40X for the
    exponential weight (about 4e-18 there), else the largest n at which
    the weight still exceeds the 1e-12 floor.  An exponential or
    concentrating support past 2^63, which no table reaches, reads as 2^63."""
    X = float(X)
    if X <= 0:
        raise ValueError("X must be positive")
    if kernel.kind == "exponential":
        return int(40 * X) if 40 * X < 2.0**63 else 2**63
    if kernel.kind == "cesaro":
        return int(math.floor(X))
    if kernel.kind == "concentrating":
        spread = math.sqrt(-4 * math.pi * math.log(2 * math.pi * _WEIGHT_FLOOR)) / kernel.Y
        if math.log(X) + spread >= 63 * math.log(2):
            return 2**63
        return int(math.ceil(X * math.exp(spread)))
    return int(math.ceil(X * (1.0 + 1.0 / kernel.Y)))  # compact: KernelSpec admits no other kind


def apply_kernel(n, b, kernel, X):
    """sum b(n) w_kernel(n; X) over the points n given, on the coefficient
    side: np.sum of the products, with no BLAS call, so no bit depends on
    a BLAS library or its thread count.  Each b is rounded to float64 (b may
    hold Python ints).  The caller sees that the points cover the kernel's
    support, ``kernel_support``."""
    X = float(X)
    if X <= 0:
        raise ValueError("X must be positive")
    return float(np.sum(np.asarray(b, dtype=np.float64) * kernel_weights(kernel, n, X)))

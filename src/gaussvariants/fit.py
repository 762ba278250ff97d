"""Least-squares asymptotic fits and the log-term model verdict.

Count series live on geometric X-grids, so fits happen against bases
X^a (log X)^b via QR orthogonalization.  ``log_term_verdict`` decides the
square / non-square dichotomy empirically: a log term is accepted only
when it both collapses the residual and carries a coefficient that stands
clear of its own bootstrap spread.  The thresholds are engineering
choices, fixed as the module constants RESIDUAL_FACTOR, COEF_SIGMA and
BOOTSTRAP_DRAWS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AsymptoticFit:
    """Fitted coefficients for a basis of (exponent, log-power) terms."""

    model: tuple  # ((exponent, log_power), ...)
    coefficients: tuple
    residual_norm: float
    slope_estimate: float
    condition_number: float


def _design_matrix(grid, model):
    cols = [grid**a * np.log(grid) ** b for a, b in model]
    return np.column_stack(cols)


def _loglog_slope(grid, values):
    return float(np.polyfit(np.log(grid), np.log(values), 1)[0])


def _require_positive(grid, values):
    """Every fit takes logs of X and of the values: each must be finite and > 0."""
    both = np.concatenate((grid, values))
    if not np.all(np.isfinite(both) & (both > 0)):
        raise ValueError("a fit needs finite positive X and values")


def fit_model(series, model):
    """Ordinary least squares of a CountSeries onto {X^a (log X)^b} bases.

    Solved by QR; deterministic, and rank-deficiency (collinear bases on
    the given grid) raises rather than silently truncating the model.
    """
    model = tuple((float(a), int(b)) for a, b in model)
    grid = series.grid_array
    values = series.value_array
    if len(grid) < len(model) + 2:
        raise ValueError("grid must exceed the model size by at least 2")
    _require_positive(grid, values)
    A = _design_matrix(grid, model)
    # Column scaling keeps the conditioning of huge X^a columns honest.
    scale = np.linalg.norm(A, axis=0)
    if np.any(scale == 0):
        raise ValueError("degenerate basis column")
    q, r = np.linalg.qr(A / scale)
    diag = np.abs(np.diag(r))
    if np.any(diag < 1e-10 * diag.max()):
        raise np.linalg.LinAlgError(
            "rank-deficient design: bases are collinear on this grid"
        )
    coef = np.linalg.solve(r, q.T @ values) / scale
    resid = float(np.linalg.norm(A @ coef - values))
    cond = float(np.linalg.cond(A / scale))
    return AsymptoticFit(
        model=model,
        coefficients=tuple(float(c) for c in coef),
        residual_norm=resid,
        slope_estimate=_loglog_slope(grid, values),
        condition_number=cond,
    )


def estimate_exponent(series):
    """Log-log regression slope of a positive series; the growth exponent."""
    grid = series.grid_array
    values = series.value_array
    if len(grid) < 3:
        raise ValueError("need at least 3 grid points")
    _require_positive(grid, values)
    return _loglog_slope(grid, values)


@dataclass(frozen=True)
class VerdictRecord:
    verdict: str  # "log" | "no-log" | "inconclusive"
    log_coefficient: float
    log_coefficient_se: float
    residual_ratio: float
    fit_with: AsymptoticFit
    fit_without: AsymptoticFit


def _leading_log_index(model):
    logs = [(a, b, j) for j, (a, b) in enumerate(model) if b > 0]
    if not logs:
        raise ValueError("the with-log model carries no log term")
    return max(logs)[2]


RESIDUAL_FACTOR = 5.0  # residual cut a "log" verdict needs from the log term
COEF_SIGMA = 3.0  # bootstrap standard errors that separate "log" from "no-log"
BOOTSTRAP_DRAWS = 200


def log_term_verdict(series, model_with_log, model_without_log, *, seed=0):
    """Decide whether a series carries an X^a log X main term.

    "log"    : the with-log fit cuts the residual by >= RESIDUAL_FACTOR AND
               its log coefficient is positive and >= COEF_SIGMA bootstrap
               standard errors;
    "no-log" : the log coefficient is within COEF_SIGMA of zero;
    anything else is "inconclusive".  The bootstrap refits the with-log
    model on BOOTSTRAP_DRAWS resamples of the grid rows, drawn with
    replacement by ``_draws``: the rows of ``np.random.default_rng(seed)``'s
    ``choice``, bit for bit, without importing ``numpy.random``.  ``seed``
    is an int >= 0.
    """
    from . import _draws  # loaded only by the commands that bootstrap

    fit_with = fit_model(series, model_with_log)
    fit_without = fit_model(series, model_without_log)
    idx = _leading_log_index(fit_with.model)
    coef_log = fit_with.coefficients[idx]

    grid = series.grid_array
    values = series.value_array
    n = len(grid)
    rng = _draws.Generator(seed)
    A = _design_matrix(grid, fit_with.model)
    scale = np.linalg.norm(A, axis=0)
    samples = []
    for _ in range(BOOTSTRAP_DRAWS):
        rows = rng.integers(0, n, size=n)
        # the distinct rows, counted without np.unique, which loads numpy.ma
        if np.count_nonzero(np.bincount(rows, minlength=n)) < len(fit_with.model) + 1:
            continue
        sub = A[rows] / scale
        try:
            c, *_ = np.linalg.lstsq(sub, values[rows], rcond=None)
        except np.linalg.LinAlgError:
            continue
        samples.append((c / scale)[idx])
    if len(samples) < 2:
        raise RuntimeError("bootstrap produced too few fits")
    se = float(np.std(samples, ddof=1))
    # Floor at the relative float noise of the dominant coefficient so a
    # synthetic exact fit cannot make 3*se an impossible target.
    coef_scale = max(abs(c) for c in fit_with.coefficients)
    se = max(se, 1e-9 * coef_scale)

    ratio = fit_without.residual_norm / max(fit_with.residual_norm, 1e-300)
    strong = ratio >= RESIDUAL_FACTOR and coef_log > 0 and coef_log >= COEF_SIGMA * se
    if strong:
        verdict = "log"
    elif abs(coef_log) < COEF_SIGMA * se:
        verdict = "no-log"
    else:
        verdict = "inconclusive"
    return VerdictRecord(
        verdict=verdict,
        log_coefficient=float(coef_log),
        log_coefficient_se=se,
        residual_ratio=float(ratio),
        fit_with=fit_with,
        fit_without=fit_without,
    )

"""Least-squares fitting helpers for slopes, norm trends and inverse-log
series."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import ilg


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x (requires x, y > 0)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (x > 0) & (y > 0)
    if mask.sum() < 2:
        raise ValueError("loglog_slope: need at least two positive samples")
    return float(np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)[0])


# a norm series is called bounded when its last three values spread by
# less than this fraction of their largest
TREND_STABILITY = 0.05


@dataclass(frozen=True)
class Trend:
    bounded: bool
    variation: float                 # spread of the last three values
    growth_exponent: float | None    # log-log slope of the last four


def classify_trend(r_maxes, norms) -> Trend:
    """Bounded/divergent verdict on norms measured at growing truncation
    radii r_maxes: bounded when the last three norms vary by less than
    TREND_STABILITY, else divergent with the log-log slope of the last
    four as its growth exponent.  A series with any non-finite norm (an
    estimator that overflowed) is divergent with infinite variation and
    growth exponent; no slope is fitted to it."""
    if not np.all(np.isfinite(norms)):
        return Trend(False, math.inf, math.inf)
    tail = np.array(norms[-3:])
    var = float((tail.max() - tail.min()) / tail.max())
    if var < TREND_STABILITY:
        return Trend(True, var, None)
    return Trend(False, var, loglog_slope(r_maxes[-4:], norms[-4:]))


def ilg_powers(ks, deg: int) -> np.ndarray:
    """Vandermonde matrix in powers of ilg(k), shape (len(ks), deg+1)."""
    il = ilg(np.asarray(ks, dtype=float))
    return np.vander(il, deg + 1, increasing=True)


def fit_ilg_series(ks, values, deg: int):
    """Fit values[j] ~ sum_i c_i ilg(k_j)^i by least squares.

    values may be shape (nk,) or (nk, m); the coefficient array comes back
    as (deg+1,) or (deg+1, m).
    """
    V = ilg_powers(ks, deg)
    vals = np.asarray(values, dtype=float)
    coef, *_ = np.linalg.lstsq(V, vals, rcond=None)
    return coef

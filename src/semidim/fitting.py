"""Log-log regression shared by every scaling-exponent check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import Record
from .errors import DegenerateGrid


@dataclass(frozen=True)
class ScalingFit(Record):
    """Least-squares fit of log(statistic) against log(scale).

    ``slope`` is the fitted power-law exponent, ``residual`` the RMS of the
    log-space fit residuals, and ``scale_range`` the (min, max) scales that
    entered the fit after windowing.
    """

    slope: float
    intercept: float
    residual: float
    scale_range: tuple[float, float]
    n_points: int


def fit_loglog(scales, values, drop_low: int = 0, drop_high: int = 0) -> ScalingFit:
    """Fit log(values) = slope*log(scales) + intercept by least squares.

    ``drop_low``/``drop_high`` remove that many points from the small-scale
    and large-scale ends after sorting by scale.  Zero values are rejected
    (the fit lives in log space).
    """
    s = np.asarray(scales, dtype=float)
    v = np.asarray(values, dtype=float)
    if s.shape != v.shape or s.ndim != 1:
        raise ValueError("scales and values must be 1-d arrays of equal length")
    order = np.argsort(s)
    s, v = s[order], v[order]
    if drop_low:
        s, v = s[drop_low:], v[drop_low:]
    if drop_high:
        s, v = s[:-drop_high], v[:-drop_high]
    if len(np.unique(s)) < 2:
        raise DegenerateGrid("need at least 2 distinct scales to fit a slope")
    if np.any(s <= 0) or np.any(v <= 0):
        raise ValueError("scales and values must be positive for a log-log fit")
    x = np.log(s)
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        residual=float(np.sqrt(np.mean(resid**2))),
        scale_range=(float(s[0]), float(s[-1])),
        n_points=int(len(s)),
    )

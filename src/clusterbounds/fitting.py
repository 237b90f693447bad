"""Least-squares exponential-growth fits of census data.

Cluster counts grow roughly geometrically in the weight; fitting
ln(count) = intercept + slope * m recovers the growth rate.  Both the
slope (log units per unit weight) and its exponential, the growth base,
are reported, since the counting ceilings constrain the base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import ValidationError


@dataclass(frozen=True)
class FitResult:
    intercept: float
    slope: float
    growth_base: float
    rss: float
    weights: tuple[int, ...]


def fit_log_growth(
    counts: Mapping[int, int], m_range: tuple[int, int] | None = None
) -> FitResult:
    """Ordinary least squares of ln(count) against weight m, over the
    weights in m_range (inclusive; all of them when None).

    counts maps weight to count, e.g. ClusterCensus.counts("irreducible").
    Weights with zero counts are excluded; at least three nonzero
    points are required.
    """
    lo, hi = m_range if m_range is not None else (min(counts, default=1), max(counts, default=1))
    points = [(m, c) for m, c in sorted(counts.items()) if lo <= m <= hi and c > 0]
    if len(points) < 3:
        raise ValidationError(
            f"need at least 3 nonzero counts in [{lo}, {hi}], got {len(points)}"
        )
    x = [float(m) for m, _ in points]
    ylog = [math.log(c) for _, c in points]
    x_mean = math.fsum(x) / len(x)
    y_mean = math.fsum(ylog) / len(ylog)
    dx = [xi - x_mean for xi in x]
    slope = math.fsum(d * (yi - y_mean) for d, yi in zip(dx, ylog)) / math.fsum(d * d for d in dx)
    intercept = y_mean - slope * x_mean
    rss = math.fsum((yi - (intercept + slope * xi)) ** 2 for xi, yi in zip(x, ylog))
    return FitResult(
        intercept=intercept,
        slope=slope,
        growth_base=math.exp(slope),
        rss=rss,
        weights=tuple(m for m, _ in points),
    )

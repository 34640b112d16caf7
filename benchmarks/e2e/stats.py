"""Small order statistics used by the benchmark and its compare tool."""

from __future__ import annotations

import math
import statistics

#: candidate tail percentiles, ascending
PERCENTILE_LADDER = (50, 60, 70, 75, 80, 90, 95, 99)

#: samples a reported percentile must leave beyond it
MIN_BEYOND = 10


def tail_percentile(count: int, cap: int = 90) -> int:
    """Highest ladder percentile <= ``cap`` with >= 10 samples beyond it.

    With ``count`` samples, ``count * (1 - p/100)`` of them lie beyond
    the p-th percentile.  A tail read from fewer than ten samples is
    one outlier away from a different number, so the benchmark reports
    the highest percentile that keeps ten; below 20 samples not even
    the median does, and the median is returned regardless.
    """
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        # integer arithmetic: count * (100 - p) >= 10 * 100
        if p <= cap and count * (100 - p) >= MIN_BEYOND * 100:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with >= p% at or below."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def spread(values) -> float | None:
    """Interquartile range as a share of the median (None below 2 runs).

    The same figure the driver computes: ``statistics.quantiles(values,
    n=4)`` gives the quartiles, and the distance between the first and
    the third is divided by the median.
    """
    values = list(values)
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else None

"""Small statistics shared by the runner and the comparison tool."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: The tail percentile is the highest one with at least this many
#: samples beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that has at
    least :data:`TAIL_BEYOND` samples above it (the maximum when there
    are too few samples)."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def gmean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, as ``statistics.quantiles(n=4)`` gives
    them (all three equal the value for a single sample)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf

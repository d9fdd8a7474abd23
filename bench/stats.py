"""Order statistics shared by the runner and ``compare.py``."""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, Optional[float]]:
    """``(pct, value)`` of the highest percentile with enough samples beyond.

    With too few samples for any such percentile the median stands in,
    reported as percentile 50: the slowest of a handful of samples is too
    noisy to gate on.
    """
    n = len(values)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct)
    return 50.0, (statistics.median(values) if values else None)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    data: List[float] = list(values)
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, statistics.median(data), q3

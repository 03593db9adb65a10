"""Order statistics used for the timing metrics."""

from __future__ import annotations

import math
import statistics

P90_MIN_SAMPLES = 100


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """Nearest-rank 90th percentile; refused below 100 samples, so that at
    least ten samples lie beyond it."""
    values = sorted(values)
    if len(values) < P90_MIN_SAMPLES:
        raise ValueError(f"p90 needs at least {P90_MIN_SAMPLES} samples, got {len(values)}")
    return float(values[math.ceil(0.9 * len(values)) - 1])


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

"""Measurement protocol helpers: summaries, percentiles, interleaving.

Kept free of numpy and of the ``repro`` package so the tests for them
run without the program under measurement.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

MIN_BEYOND = 10
"""A reported percentile must have at least this many samples beyond it."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them (exclusive method); a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def samples_for_percentile(p: float) -> int:
    """The fewest samples that leave ``MIN_BEYOND`` of them beyond the
    nearest-rank ``p``-th percentile."""
    if not 0 < p < 100:
        raise ValueError("p must be in (0, 100)")
    return math.ceil(round(MIN_BEYOND * 100.0 / (100.0 - p), 6))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(values)
    # Rounded first, so 99.9% of 10000 is rank 9990, not 9991.
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 9)))
    return float(ordered[rank - 1])


def interleave(pair_index: int) -> Tuple[str, str]:
    """Order of the two sides in one interleaved pair: even pairs run
    the MRHS unit first, odd pairs the original unit first, so a drift
    in machine speed during the window biases neither side."""
    if pair_index < 0:
        raise ValueError("pair_index must be non-negative")
    return ("mrhs", "orig") if pair_index % 2 == 0 else ("orig", "mrhs")

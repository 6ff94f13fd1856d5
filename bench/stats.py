"""Percentiles for the run record (stdlib only)."""

from __future__ import annotations

import math

# the tail percentile reported is the highest of these with enough samples beyond it
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int, candidates=TAIL_CANDIDATES, min_beyond: int = MIN_BEYOND):
    """Highest candidate percentile with at least min_beyond samples beyond it, or None."""
    for p in sorted(candidates, reverse=True):
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


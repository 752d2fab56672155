"""Nearest-rank percentiles, and how many samples a tail percentile needs.

A tail percentile is trustworthy when at least ``TAIL`` samples lie beyond
it; ``min_samples`` says how many samples that takes.
"""

from __future__ import annotations

TAIL = 10


def _rank(n: int, pct: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile of ``n`` samples."""
    return max(1, -(-pct * n // 100))


def beyond(n: int, pct: int) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank percentile."""
    return n - _rank(n, pct)


def min_samples(pct: int, tail: int = TAIL) -> int:
    """Fewest samples that leave ``tail`` of them beyond the percentile."""
    n = 1
    while beyond(n, pct) < tail:
        n += 1
    return n


def percentile(samples, pct: int) -> float:
    """Nearest-rank percentile (``pct`` a whole number from 1 to 100)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), pct) - 1]

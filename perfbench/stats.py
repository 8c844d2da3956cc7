"""Arithmetic the benchmark reports with: percentiles, tails, ratios, spread.

Kept free of numpy and of dualdit so the tests can check it by hand.
"""

from __future__ import annotations

import math
import statistics

# a tail percentile is trustworthy only with at least this many samples beyond it
TAIL_SAMPLES = 10
TAIL_CANDIDATES = (90.0, 99.0, 99.9)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-th percentile's rank."""
    return n - math.ceil(n * q / 100.0)


def min_samples_for(q: float) -> int:
    """Smallest sample count that leaves TAIL_SAMPLES beyond the q-th percentile."""
    n = 1
    while samples_beyond(n, q) < TAIL_SAMPLES:
        n += 1
    return n


def tail_percentile(n: int):
    """Highest candidate percentile with TAIL_SAMPLES samples beyond it, or None."""
    ok = [q for q in TAIL_CANDIDATES if samples_beyond(n, q) >= TAIL_SAMPLES]
    return max(ok) if ok else None


def failure_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("failure ratio needs at least one attempt")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med

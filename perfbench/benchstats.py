"""Order statistics computed from the benchmark's own raw samples.

Every percentile the benchmark reports comes from here, over the samples it
timed itself.  Nothing reads the server's histogram quantiles, which
interpolate inside coarse buckets and can over-estimate the tail.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence


def percentile(samples: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0 to 100) of ``samples``.

    Linear interpolation between the two closest ranks, the method
    ``numpy.percentile`` uses by default.  The result never leaves the
    observed ``[min, max]``.
    """
    ordered: List[float] = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    position = (len(ordered) - 1) * q / 100.0
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    fraction = position - lo
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * fraction
    return min(max(value, ordered[0]), ordered[-1])


def median(samples: Iterable[float]) -> float:
    """The 50th percentile."""
    return percentile(samples, 50.0)


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sample (a layer that did no work)."""
    return sum(samples) / len(samples) if samples else 0.0


def interval_union(intervals: Iterable[Sequence[float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted((float(a), float(b)) for a, b in intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total

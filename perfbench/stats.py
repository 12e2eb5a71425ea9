"""Order statistics: the percentile rule and span self time."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: A tail percentile counts only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of the *q*-quantile among *n* samples."""
    # round() absorbs float error such as 0.9 * 110 = 99.00000000000001.
    return max(1, math.ceil(round(q * n, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-quantile (``0 < q <= 1``); 0.0 when there are no values."""
    if not values:
        return 0.0
    return sorted(values)[_rank(q, len(values)) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the nearest-rank *q*-quantile."""
    return n - _rank(q, n) if n else 0


def tail_supported(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether *n* samples support the *q*-quantile (p90 needs n >= 100)."""
    return samples_beyond(n, q) >= min_beyond


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(children, start, end)


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0

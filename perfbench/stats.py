"""Tail percentiles, trimmed means and failure ratios."""

import math

# A tail percentile is reported only where at least this many samples lie
# beyond it, so that one stray sample cannot set it.
TAIL_MIN_BEYOND = 10


def tail(values) -> tuple[int, float, int]:
    """(level, value, sample count) for the highest whole percentile with at
    least ``TAIL_MIN_BEYOND`` samples beyond it.

    With 1,000 or more samples that is p99, with 100 it is p90.  Fewer than
    11 samples leave no such percentile, and the maximum is reported with
    level 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    for level in range(99, 0, -1):
        # nearest rank: the smallest sample with level percent at or below it
        rank = max(1, math.ceil(level / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return level, ordered[rank - 1], n
    return 100, ordered[-1], n


def interquartile_mean(values) -> float:
    """Mean of the values left after dropping the lowest and the highest
    quarter (none of them when there are fewer than four)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("mean of no samples")
    cut = len(ordered) // 4
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def fail_ratio(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside 0..{attempted}")
    return failed / attempted


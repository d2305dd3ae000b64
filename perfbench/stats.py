"""Order statistics for the benchmark's timings.

A timing is reported as its median plus the highest tail percentile
that still has at least :data:`MIN_BEYOND` samples beyond it, so a
tail figure always rests on more than one or two slow operations.
"""

import math

#: Samples a tail percentile needs strictly beyond it to be reported.
MIN_BEYOND = 10

#: Tail percentiles considered, highest last.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)


def percentile(values, pct):
    """Linear-interpolated percentile of *values* (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return percentile(values, 50.0)


def samples_beyond(n, pct):
    """How many of *n* samples lie strictly above the *pct* percentile
    rank — the count the reporting rule checks."""
    return n - 1 - math.floor((n - 1) * pct / 100.0)


def reportable(n, pct):
    """True when a run of *n* samples may report percentile *pct*."""
    return n > 0 and samples_beyond(n, pct) >= MIN_BEYOND


def tail(values):
    """``(pct, value)`` of the highest reportable tail percentile, or
    ``None`` when the run is too short for any."""
    best = None
    for pct in TAIL_PERCENTILES:
        if reportable(len(values), pct):
            best = (pct, percentile(values, pct))
    return best


def describe(values, unit="s"):
    """One human-readable line: count, median and reportable tail."""
    if not values:
        return "n=0"
    text = f"n={len(values)} p50={median(values):.6g} {unit}"
    top = tail(values)
    if top is not None:
        text += f" p{top[0]:g}={top[1]:.6g} {unit}"
    else:
        text += f" (no tail percentile: needs {MIN_BEYOND} beyond p90)"
    return text

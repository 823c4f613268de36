"""Summary arithmetic shared by the run report and the record."""

from __future__ import annotations

import statistics

import numpy as np

#: Candidate tail percentiles, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n: int, beyond: int = 10) -> float | None:
    """The highest candidate percentile with at least ``beyond`` of
    ``n`` samples above it, or None when even the median has fewer."""
    best = None
    for p in TAIL_PERCENTILES:
        if round(n * (100.0 - p), 6) >= beyond * 100:
            best = p
    return best


def summarize(values) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``), the tail
    percentile the sample count supports, and the count."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no samples")
    if len(vals) > 1:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    med = statistics.median(vals)
    p = tail_percentile(len(vals))
    return {
        "n": len(vals),
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "tail_p": p,
        "tail": float(np.percentile(vals, p)) if p is not None else None,
    }

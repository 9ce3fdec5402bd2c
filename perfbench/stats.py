"""Percentiles, medians and the WindowStats digest of the correctness gate."""

from __future__ import annotations

import hashlib
import json
import math
import statistics

#: a percentile is reported as a tail figure only with at least this
#: many samples beyond it (otherwise it is one or two lucky samples)
MIN_BEYOND = 10


def percentile(samples, p):
    """Nearest-rank ``p``-th percentile (0 for no samples)."""
    xs = sorted(samples)
    if not xs:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def beyond(n, p):
    """How many of ``n`` samples lie beyond the nearest-rank ``p``-th."""
    return n - max(1, math.ceil(p / 100.0 * n)) if n else 0


def supported(n, p):
    """Whether ``n`` samples leave at least MIN_BEYOND beyond the p-th."""
    return beyond(n, p) >= MIN_BEYOND


def reported(samples, p):
    """``(q, value)``: the ``p``-th percentile when the samples support
    it, else the highest lower one of 90 and 50 they support, else the
    median — never a tail figure resting on fewer than MIN_BEYOND
    samples beyond it."""
    for q in (p, 90, 50):
        if q <= p and supported(len(samples), q):
            return q, percentile(samples, q)
    return 50, percentile(samples, 50)


def median(samples):
    return statistics.median(samples) if samples else 0.0


def stats_digest(stats_list):
    """SHA-256 of the canonical JSON of a sequence of WindowStats.

    The order is part of the digest: callers pass results in the order
    their workload defines (job order of the sweep).
    """
    blob = json.dumps(
        [s.to_dict() for s in stats_list],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()

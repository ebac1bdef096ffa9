"""Latency accounting and run-to-run summaries."""

from __future__ import annotations

import statistics

import numpy as np


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (NumPy's default), 0.0 when empty."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, pct))


def censored_latencies(
    due: np.ndarray, done: np.ndarray, ok: np.ndarray, grace_end: float
) -> np.ndarray:
    """Per-request latency (s) from the due time.

    A request answered ``ok`` counts from its due time to its answer.
    Anything else (a failed, rejected, bad_request or error answer, or
    no answer by the end of grace) counts at the grace cap: from its due
    time to the end of grace, the least it could have cost a user.
    """
    due = np.asarray(due, dtype=np.float64)
    done = np.asarray(done, dtype=np.float64)
    ok = np.asarray(ok, dtype=bool)
    return np.where(ok, done - due, grace_end - due)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("quartiles of an empty sequence")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return abs(q3 - q1) / abs(median)

"""Statistics of the perfbench benchmark.

Medians and quartiles of a run's samples, the tail-percentile rule (report
the highest percentile that still has at least ten samples beyond it) and
failure counting. Self-tests: `python3 perfbench/test_stats.py`.
"""

import math
import statistics

# Sample statuses the driver reports. Everything except "ok" is a failure:
# a thrown run, an unverified result, a digest that differs from the
# reference, and a served request answered kRejected or kError.
OK = "ok"
FAILED_STATUSES = ("thrown", "unverified", "mismatch", "rejected", "error")

# Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)


def median(values):
    return statistics.median(values)


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def tail_percentile(count):
    """Highest candidate percentile with at least ten of `count` samples
    strictly beyond it, or None when even the median has fewer."""
    for p in TAIL_CANDIDATES:
        if count * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def count_failures(samples):
    """(attempted, failed) over sample dicts carrying a "status"."""
    attempted = len(samples)
    failed = sum(1 for s in samples if s["status"] != OK)
    return attempted, failed


def error_rate(samples):
    attempted, failed = count_failures(samples)
    return failed / attempted if attempted else 1.0

"""Self-tests of perfbench's statistics code. Run: python3 perfbench/test_stats.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_exclusive_method(self):
        # statistics.quantiles(n=4), method "exclusive": positions (n+1)p.
        q1, q2, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               (8.25 - 2.75) / 5.5)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)

    def test_percentile_interpolates_between_ranks(self):
        values = list(range(1, 101))  # 1..100
        self.assertAlmostEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 90), 90.1)
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)


class FailureCounting(unittest.TestCase):
    def test_every_failure_kind_counts(self):
        samples = [{"status": "ok"}] * 5
        samples += [{"status": s} for s in stats.FAILED_STATUSES]
        attempted, failed = stats.count_failures(samples)
        self.assertEqual(attempted, 5 + len(stats.FAILED_STATUSES))
        self.assertEqual(failed, len(stats.FAILED_STATUSES))
        for kind in ("rejected", "error", "mismatch", "unverified"):
            self.assertIn(kind, stats.FAILED_STATUSES)

    def test_unknown_status_is_a_failure(self):
        self.assertEqual(stats.count_failures([{"status": "odd"}]), (1, 1))

    def test_error_rate(self):
        self.assertEqual(stats.error_rate([{"status": "ok"}] * 4), 0.0)
        self.assertEqual(
            stats.error_rate([{"status": "ok"}, {"status": "rejected"}]), 0.5)
        self.assertEqual(stats.error_rate([]), 1.0)


if __name__ == "__main__":
    unittest.main()

"""Tests of the trace summarizer's percentile and self-time code.

Run: python3 perfbench/test_summarize.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from summarize import (Metrics, covered_length, percentile,  # noqa: E402
                       self_times)


def span(sid, start, end, parent=0):
    return {"id": sid, "parent": parent, "start": start, "end": end}


class PercentileTest(unittest.TestCase):
    def test_median_interpolates_between_middle_samples(self):
        self.assertEqual(percentile(list(range(1, 21)), 0.5), 10.5)
        self.assertEqual(percentile(list(range(21)), 0.5), 10)

    def test_matches_the_inclusive_quantile_definition(self):
        values = [float(v * v % 97) for v in range(1000)]
        want = statistics.quantiles(values, n=100, method="inclusive")
        self.assertAlmostEqual(percentile(values, 0.99), want[98])
        self.assertAlmostEqual(percentile(values, 0.90), want[89])

    def test_order_of_input_does_not_matter(self):
        values = list(range(200))
        self.assertEqual(percentile(values[::-1], 0.9),
                         percentile(values, 0.9))

    def test_needs_ten_samples_beyond(self):
        # p99 with 999 samples has 9 beyond it; with 1000 it has 10.
        self.assertIsNone(percentile(list(range(999)), 0.99))
        self.assertIsNotNone(percentile(list(range(1000)), 0.99))
        # p50 needs 20 samples, p90 needs 100.
        self.assertIsNone(percentile(list(range(19)), 0.5))
        self.assertIsNotNone(percentile(list(range(20)), 0.5))
        self.assertIsNone(percentile(list(range(99)), 0.9))
        self.assertIsNotNone(percentile(list(range(100)), 0.9))

    def test_empty_is_none_even_without_the_rule(self):
        self.assertIsNone(percentile([], 0.5, 0))
        self.assertEqual(percentile([7], 0.5, 0), 7)

    def test_metrics_say_so_instead_of_printing_a_number(self):
        m = Metrics()
        m.pct("lat_p99_ms", list(range(500)), 0.99, "ms", 1)
        self.assertNotIn("lat_p99_ms", m.values)
        self.assertIn("too few samples", m.notes[0])

    def test_per_layer_falls_back_to_a_labelled_mean(self):
        m = Metrics()
        m.pct_or_mean("checkpoint.ms", [2e6, 4e6], 0.5, "ms", 1e6)
        self.assertEqual(m.values["checkpoint.ms"]["value"], 3.0)
        self.assertIn("mean of 2 samples", m.notes[0])
        m.pct_or_mean("absent", [], 0.5, "ms", 1)
        self.assertNotIn("absent", m.values)
        self.assertIn("not measured", m.notes[1])


class SelfTimeTest(unittest.TestCase):
    def test_covered_length_merges_overlaps_and_clips(self):
        self.assertEqual(covered_length([], 0, 10), 0)
        self.assertEqual(covered_length([(2, 4), (3, 6)], 0, 10), 4)
        self.assertEqual(covered_length([(-5, 2), (8, 20)], 0, 10), 4)
        self.assertEqual(covered_length([(1, 2), (4, 5), (1, 5)], 0, 10), 4)
        self.assertEqual(covered_length([(5, 5), (7, 6)], 0, 10), 0)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(self_times([span(1, 10, 30)]), {1: 20})

    def test_children_are_subtracted_once(self):
        spans = [span(1, 0, 100), span(2, 10, 30, parent=1),
                 span(3, 20, 50, parent=1), span(4, 60, 70, parent=1)]
        got = self_times(spans)
        # Children cover [10, 50) and [60, 70): 50 of 100.
        self.assertEqual(got[1], 50)
        self.assertEqual(got[2], 20)
        self.assertEqual(got[4], 10)

    def test_grandchildren_count_against_their_parent_only(self):
        spans = [span(1, 0, 100), span(2, 0, 60, parent=1),
                 span(3, 10, 40, parent=2)]
        got = self_times(spans)
        self.assertEqual(got[1], 40)
        self.assertEqual(got[2], 30)
        self.assertEqual(got[3], 30)

    def test_child_outside_the_parent_is_clipped(self):
        # A completion recorded on another thread can end after the
        # parent's end stamp; only the overlap counts.
        spans = [span(1, 0, 10), span(2, 5, 25, parent=1)]
        self.assertEqual(self_times(spans)[1], 5)


if __name__ == "__main__":
    unittest.main()

"""Tests for the benchmark's arithmetic, on synthetic timestamps.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import stats  # noqa: E402


class ScheduleTest(unittest.TestCase):
    def test_minute_is_due_at_the_end_of_its_interval(self):
        self.assertEqual(stats.due_times(10.0, 0.1, 3), [10.1, 10.2, 10.3000000000000003])

    def test_lateness_counts_only_late_finishes(self):
        due = [1.0, 2.0, 3.0]
        done = [0.999, 2.25, 3.0005]
        late = stats.lateness_ms(due, done)
        self.assertEqual(late[0], 0.0)
        self.assertAlmostEqual(late[1], 250.0)
        self.assertAlmostEqual(late[2], 0.5)

    def test_a_stall_makes_later_minutes_late_too(self):
        # The generator writes back-to-back after a stall instead of
        # skipping ahead, so every minute behind the stall is late.
        due = stats.due_times(0.0, 0.1, 4)
        done = [0.1, 0.5, 0.51, 0.52]
        late = stats.lateness_ms(due, done)
        self.assertEqual(late[0], 0.0)
        self.assertAlmostEqual(late[1], 300.0)
        self.assertAlmostEqual(late[2], 210.0)
        self.assertAlmostEqual(late[3], 120.0)


class TailTest(unittest.TestCase):
    def test_sixty_windows_give_about_p83(self):
        self.assertEqual(stats.tail_index(60), 49)
        self.assertAlmostEqual(stats.tail_percentile(60), 83.333, places=3)

    def test_ten_samples_stay_beyond_the_tail(self):
        values = [float(v) for v in range(100, 0, -1)]
        tail = stats.tail_value(values)
        self.assertEqual(sum(1 for v in values if v > tail), 10)
        self.assertEqual(tail, 90.0)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(stats.tail_index(10))
        self.assertIsNone(stats.tail_value([1.0] * 10))
        self.assertEqual(stats.tail_value([float(v) for v in range(11)]), 0.0)


class SelfTimeTest(unittest.TestCase):
    @staticmethod
    def span(id, parent, start, end):
        return {"id": id, "parent": parent, "start": start, "end": end}

    def test_leaf_self_time_is_its_duration(self):
        own = stats.self_times([self.span(1, -1, 2.0, 2.5)])
        self.assertAlmostEqual(own[1], 0.5)

    def test_children_are_subtracted_from_the_parent(self):
        spans = [self.span(1, -1, 0.0, 10.0), self.span(2, 1, 1.0, 3.0),
                 self.span(3, 1, 4.0, 8.0), self.span(4, 3, 5.0, 6.0)]
        own = stats.self_times(spans)
        self.assertAlmostEqual(own[1], 4.0)
        self.assertAlmostEqual(own[2], 2.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 1.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [self.span(1, -1, 0.0, 10.0), self.span(2, 1, 1.0, 5.0),
                 self.span(3, 1, 4.0, 6.0), self.span(4, 1, 9.0, 12.0)]
        self.assertAlmostEqual(stats.self_times(spans)[1], 10.0 - 5.0 - 1.0)


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402


def span(sid, parent, start, end, name="layer", thread=0):
    return analysis.Span(sid, parent, thread, name, start, end, -1, 0.0)


class PercentileTest(unittest.TestCase):
    def test_refused_when_fewer_than_ten_samples_lie_beyond(self):
        self.assertEqual(analysis.percentile(range(1, 101), 0.90), 90)
        with self.assertRaises(analysis.PercentileRefused):
            analysis.percentile(range(1, 100), 0.90)
        self.assertEqual(analysis.percentile(range(1000), 0.99), 989)
        with self.assertRaises(analysis.PercentileRefused):
            analysis.percentile(range(999), 0.99)
        with self.assertRaises(analysis.PercentileRefused):
            analysis.percentile(range(19), 0.50)

    def test_nearest_rank_ignores_input_order(self):
        values = list(range(200, 0, -1))
        self.assertEqual(analysis.percentile(values, 0.5), 100)

    def test_unexercised_layer_reports_zero(self):
        self.assertEqual(analysis.percentile_or_zero([], 0.99), 0.0)
        with self.assertRaises(analysis.PercentileRefused):
            analysis.percentile_or_zero([1.0, 2.0], 0.99)


class SelfTimeTest(unittest.TestCase):
    def test_subtracts_union_of_overlapping_children_on_parallel_workers(self):
        spans = [
            span(1, 0, 0, 100, "exp.grid"),
            span(2, 1, 10, 50, thread=1),
            span(3, 1, 30, 70, thread=2),  # overlaps span 2
            span(4, 1, 60, 80, thread=3),  # overlaps span 3
        ]
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs[1], 100 - 70)  # union [10, 80), not 40+40+20
        self.assertEqual(selfs[2], 40)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 90, 130, thread=1)]
        self.assertEqual(analysis.self_times(spans)[1], 90)

    def test_grandchildren_only_reduce_their_own_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 0, 60), span(3, 2, 10, 30)]
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs[1], 40)
        self.assertEqual(selfs[2], 40)
        self.assertEqual(selfs[3], 20)

    def test_phase_is_the_top_level_span(self):
        spans = [span(1, 0, 0, 10, "bench.setup"),
                 span(2, 1, 1, 2, "exp.grid"),
                 span(3, 2, 1, 2, "sim.run", thread=1),
                 span(4, 0, 20, 30, "bench.timed"),
                 span(5, 4, 21, 22, "sim.run")]
        phase = analysis.phase_of(spans)
        self.assertEqual(phase[3], "bench.setup")
        self.assertEqual(phase[5], "bench.timed")

    def test_unattributed_is_what_no_printed_metric_reports(self):
        spans = [span(1, 0, 0, 100, "bench.timed"),
                 span(2, 1, 10, 60, "exp.cell", thread=1),
                 span(3, 2, 20, 40, "api.fit.sparsity", thread=1),
                 span(4, 1, 50, 90, "bench.sink"),
                 span(5, 1, 92, 97, "unlisted")]
        m = analysis.self_time_metrics(spans, analysis.self_times(spans))
        self.assertAlmostEqual(m["exp.self_s"][0], 30e-9)
        self.assertAlmostEqual(m["api.fit_s.sparsity"][0], 20e-9)
        # Self times: root 100 - 85 = 15 (children cover [10, 90) and
        # [92, 97)), exp.cell 30, fit 20, bench.sink 40, unlisted 5: of
        # 110, the printed metrics report 50.
        self.assertAlmostEqual(m["bench.unattributed_share"][0], 60 / 110)

    def test_read_spans_round_trip(self):
        with tempfile.NamedTemporaryFile("w", suffix=".tsv",
                                         delete=False) as f:
            f.write("7\t3\t1\tapi.fit.sparsity\t100\t250\t4\t12\n")
        try:
            (s,) = analysis.read_spans(f.name)
        finally:
            os.remove(f.name)
        self.assertEqual((s.id, s.parent, s.thread, s.name, s.duration, s.run,
                          s.value), (7, 3, 1, "api.fit.sparsity", 150, 4, 12.0))


class OpenLoopTest(unittest.TestCase):
    def test_latency_is_measured_from_the_due_time(self):
        due = [0, 10, 20]
        start = [1, 25, 26]  # the second read stalled; the third waited.
        end = [2, 26, 27]
        self.assertEqual(analysis.open_loop_latencies(due, end), [2, 16, 7])
        record = {"read_due_ns": due, "read_start_ns": start,
                  "read_end_ns": end}
        self.assertEqual(analysis.read_latencies_us(record),
                         [0.002, 0.016, 0.007])
        self.assertEqual(analysis.reader_lateness_us(record),
                         [0.001, 0.015, 0.006])

    def test_mismatched_lengths_are_rejected(self):
        with self.assertRaises(ValueError):
            analysis.open_loop_latencies([0, 1], [2])


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, median, q3, spread = analysis.spread([1, 2, 3, 4, 5, 6, 7, 8, 9,
                                                  10])
        self.assertEqual((q1, median, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(spread, 1.0)


if __name__ == "__main__":
    unittest.main()

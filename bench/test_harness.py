"""Tests for the benchmark harness itself (stdlib only).

    python3 bench/test_harness.py
"""

import random
import unittest
from fractions import Fraction
from unittest import mock

import run
import stats
import tracing


class TailPercentile(unittest.TestCase):
    def test_known_sample_counts(self):
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(99), 75.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))

    def test_against_brute_force(self):
        rng = random.Random(7)
        for n in list(range(1, 260)) + [rng.randint(260, 20000) for _ in range(40)]:
            values = rng.sample(range(10 * n), n)         # distinct samples
            chosen = stats.tail_percentile(n)

            def beyond(p):
                cut = stats.percentile(values, p)
                return sum(1 for v in values if v > cut)

            enough = [p for p in stats.TAIL_CANDIDATES if beyond(p) >= 10]
            self.assertEqual(chosen, max(enough) if enough else None, n)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile([3.0], 99), 3.0)


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            (1, None, "a", 0.0, 10.0),
            (2, 1, "b", 1.0, 4.0),
            (3, 1, "c", 3.0, 6.0),      # overlaps b, as a worker thread would
            (4, 2, "d", 2.0, 3.0),
            (5, None, "e", 20.0, 21.0),
        ]
        own = tracing.self_times(spans)
        self.assertAlmostEqual(own[1], 10.0 - 5.0)    # children cover [1, 6]
        self.assertAlmostEqual(own[2], 3.0 - 1.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 1.0)
        self.assertAlmostEqual(own[5], 1.0)

    def test_self_times_sum_to_root_duration(self):
        rng = random.Random(3)
        spans, next_id = [], [1]

        def build(parent, start, end, depth):
            sid = next_id[0]
            next_id[0] += 1
            spans.append((sid, parent, f"f{depth}", start, end))
            t = start
            while depth < 4 and rng.random() < 0.7:
                c_start = t + rng.random() * (end - t) / 3
                c_end = c_start + rng.random() * (end - c_start) / 2
                if c_end <= c_start:
                    break
                build(sid, c_start, c_end, depth + 1)
                t = c_end

        build(None, 0.0, 100.0, 0)
        own = tracing.self_times(spans)
        self.assertAlmostEqual(sum(own.values()), 100.0)
        self.assertTrue(all(v >= -1e-12 for v in own.values()))

    def test_wrapper_records_parents(self):
        tracer = tracing.Tracer()

        def inner(x):
            return x + 1

        wrapped_inner = tracer.wrap("m.inner", inner)

        def outer(x):
            return wrapped_inner(x) * 2

        wrapped_outer = tracer.wrap("m.outer", outer)
        self.assertEqual(wrapped_outer(1), 4)
        by_name = {s[2]: s for s in tracer.spans}
        self.assertIsNone(by_name["m.outer"][1])
        self.assertEqual(by_name["m.inner"][1], by_name["m.outer"][0])
        tracer.finish_op()
        self.assertEqual(tracer.calls, {"m.outer": 1, "m.inner": 1})


class ZeroOperandFraction(unittest.TestCase):
    def brute(self, a, b):
        zero = total = 0
        for i in range(len(a)):
            for j in range(len(b[0]) if b else 0):
                for k in range(len(b)):
                    total += 1
                    zero += a[i][k] == 0 or b[k][j] == 0
        return zero, total

    def test_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(300):
            r, k, c = rng.randint(1, 6), rng.randint(0, 6), rng.randint(0, 6)
            density = rng.random()

            def entry():
                return Fraction(rng.randint(1, 5)) if rng.random() < density else Fraction(0)

            a = [[entry() for _ in range(k)] for _ in range(r)]
            b = [[entry() for _ in range(c)] for _ in range(k)]
            self.assertEqual(tracing.zero_operand_products(a, b), self.brute(a, b))


class EntryBits(unittest.TestCase):
    def test_nested_values(self):
        value = ([[Fraction(3, 4), Fraction(-1)]], {Fraction(1, 1024): 2})
        self.assertEqual(tracing.entry_bits(value), 11)
        self.assertEqual(tracing.entry_bits([]), 0)
        self.assertEqual(tracing.entry_bits(Fraction(2 ** 70 + 1, 3)), 71)


class ReferenceTime(unittest.TestCase):
    def measure(self, slow):
        """measure() on a fake workload whose host runs `slow` times slower."""
        clock = [0.0]
        durations = {"a": [0.003, 0.001, 0.002], "b": [0.002, 0.004, 0.003], "c": [0.001] * 3}

        class Op:
            def __init__(self, cell):
                self.cell = cell

        class Fake:
            in_process = True
            rounds = [[Op("a"), Op("b")], [Op("c")]]
            done = {}

            def run(self, op):
                k = self.done.get(op.cell, 0)
                self.done[op.cell] = k + 1
                clock[0] += slow * durations[op.cell][k]
                return k

            def check(self, op, k):
                return op.cell != "c" or k != 1         # c is wrong on its second pass

        def reference(child):
            clock[0] += slow * run.REFERENCE_S["in_process"]
            return slow * run.REFERENCE_S["in_process"]

        with mock.patch.object(run.time, "perf_counter", lambda: clock[0]), \
                mock.patch.object(run, "reference", reference):
            return run.measure(Fake(), 0.0)

    def test_times_and_counts(self):
        result = self.measure(1)
        self.assertEqual(result["passes"], run.MIN_PASSES)
        self.assertEqual(result["samples"], 9)
        self.assertEqual(result["runner"].failed, 1)
        # times in ms: 3 2 1 / 1 4 1 / 2 3 1
        self.assertAlmostEqual(result["latency_p50_ms"], 2.0)
        self.assertAlmostEqual(result["latency_p90_ms"], 4.0)
        self.assertAlmostEqual(result["verdicts_per_s"], 8 / 0.018)
        self.assertEqual(result["cells"]["c"], {"samples": 3, "median_ms": 1.0})

    def test_host_speed_cancels(self):
        quiet, slow = self.measure(1), self.measure(2)
        for name in ("verdicts_per_s", "latency_p50_ms", "latency_p90_ms"):
            self.assertAlmostEqual(quiet[name], slow[name])
        self.assertAlmostEqual(slow["wall"]["verdicts_per_s"], quiet["wall"]["verdicts_per_s"] / 2)


if __name__ == "__main__":
    unittest.main()

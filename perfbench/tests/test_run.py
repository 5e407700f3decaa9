"""Self-tests of `run.py` and `steady.py`: their statistics, adjustments
and output checks.

    python3 -m unittest discover -s perfbench/tests

The worker's own checks (serve error accounting, stage replay bit
identity, spans) are Rust tests:

    cargo test --release --manifest-path perfbench/harness/Cargo.toml
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import run  # noqa: E402
import steady  # noqa: E402


class TailRule(unittest.TestCase):
    def test_a_tail_needs_ten_samples_beyond_it(self):
        self.assertEqual(run.tail(range(1000), 0.99), 989)
        self.assertIsNone(run.tail(range(999), 0.99))
        self.assertEqual(run.tail(range(20), 0.5), 9)
        self.assertIsNone(run.tail(range(19), 0.5))
        self.assertIsNone(run.tail([], 0.5))

    def test_nearest_rank_ignores_input_order(self):
        samples = list(range(2000))
        self.assertEqual(run.tail(reversed(samples), 0.99), run.tail(samples, 0.99))

    def test_quantile_must_be_inside_the_unit_interval(self):
        for q in (0.0, 1.0, 1.5):
            with self.assertRaises(ValueError):
                run.tail(range(100), q)


class Digest(unittest.TestCase):
    def write(self, directory, name, data):
        with open(os.path.join(directory, name), "wb") as f:
            f.write(data)

    def test_a_one_byte_drift_in_a_result_document_is_caught(self):
        with tempfile.TemporaryDirectory() as d:
            doc = json.dumps({"schema": "diversim-result/v1", "value": 0.125}).encode()
            self.write(d, "e01_el_model.json", doc)
            self.write(d, "e02_lm_model.json", b'{"checks":[]}')
            self.write(d, "e01_el_model.csv", b"ignored")
            first, count = run.results_digest(d)
            self.assertEqual(count, 2)
            self.write(d, "e01_el_model.json", doc.replace(b"0.125", b"0.126"))
            second, _ = run.results_digest(d)
            self.assertNotEqual(first, second)
            self.assertEqual(run.drifted([first, first, second]), 1)
            self.assertEqual(run.drifted([first, first]), 0)

    def test_the_digest_covers_file_names(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            self.write(a, "x.json", b"{}")
            self.write(b, "y.json", b"{}")
            self.assertNotEqual(run.results_digest(a)[0], run.results_digest(b)[0])


class Reproductions(unittest.TestCase):
    def reproduction(self, exit=0, docs=20, checks=301, failed=0, digest="a"):
        return {"exit": exit, "docs": docs, "checks": checks, "failed_checks": failed,
                "digest": digest}

    def test_every_check_and_every_extra_digest_is_attempted(self):
        runs = [self.reproduction(), self.reproduction(), self.reproduction()]
        self.assertEqual(run.tally(runs), (3 * 301 + 2, 0))

    def test_failed_checks_and_a_drifted_digest_count(self):
        runs = [self.reproduction(), self.reproduction(failed=2), self.reproduction(digest="b")]
        self.assertEqual(run.tally(runs), (3 * 301 + 2, 3))

    def test_a_broken_reproduction_fails_all_its_checks(self):
        self.assertEqual(run.tally([self.reproduction(exit=101)]), (301, 301))
        self.assertEqual(run.tally([self.reproduction(docs=19)]), (301, 301))
        self.assertEqual(run.tally([self.reproduction(exit=1, checks=0)]), (1, 1))


class HostScaling(unittest.TestCase):
    def round_(self, wall, scale, ran=1.0):
        return {"wall_s": wall, "cpu_s": 2 * wall * ran, "peak_rss_mb": 4.0, "work": 20,
                "busy_s": wall, "scale": scale, "ran": ran, "lat_ms": [1e3 * wall],
                "lat_scale": [scale]}

    def test_a_probe_at_reference_speed_leaves_times_alone(self):
        self.assertEqual(run.host_scale([run.PROBE_REF_S, run.PROBE_REF_S]), 1.0)

    def test_a_slower_probe_scales_times_down_by_the_exponent(self):
        half = 0.5 ** run.PROBE_EXPONENT
        self.assertAlmostEqual(run.host_scale([2 * run.PROBE_REF_S] * 2), half)
        # The two probes around an interval are averaged.
        self.assertAlmostEqual(run.host_scale([run.PROBE_REF_S, 3 * run.PROBE_REF_S]), half)

    def test_each_interval_is_scaled_by_its_own_round(self):
        # The second round ran on a host half as fast: its probe took twice
        # as long, and so did its work.
        done = [self.round_(5.0, 1.0), self.round_(10.0, 0.5), self.round_(5.2, 1.0)]
        setup = [(0.002, 1.0), (0.004, 0.5), (0.0021, 1.0)]
        result = run.measured(setup, done)
        scaled, timed = result["metrics"], result["unscaled"]
        self.assertEqual(scaled["wall_s"], 5.0)
        self.assertEqual(timed["wall_s"], 5.2)
        self.assertEqual(scaled["cpu_s"], 10.0)
        self.assertEqual(scaled["setup_s"], 0.002)
        self.assertEqual(scaled["throughput_rps"], 4.0)
        self.assertEqual(scaled["latency_p50_ms"], 5000.0)
        self.assertEqual(scaled["peak_rss_mb"], timed["peak_rss_mb"])
        self.assertEqual(sorted(result["latency_samples"]), [5000.0, 5000.0, 5200.0])

    def test_stolen_time_leaves_wall_time_but_not_cpu_time(self):
        # A fifth of the middle round's time was stolen: its wall time grew
        # by 1/0.8 while its CPU time, which leaves steal out, did not.
        done = [self.round_(5.0, 1.0), self.round_(6.25, 1.0, ran=0.8), self.round_(5.1, 1.0)]
        scaled = run.measured([(0.002, 1.0)], done)["metrics"]
        self.assertEqual(scaled["wall_s"], 5.0)
        self.assertEqual(scaled["cpu_s"], 10.0)

    def test_the_unstolen_share_comes_from_steal_among_busy_ticks(self):
        self.assertEqual(run.ran_share((10, 100), (30, 200)), 0.8)
        self.assertEqual(run.ran_share((10, 100), (10, 100)), 1.0)
        _, ran = run.unstolen(lambda: None)
        self.assertTrue(0.0 <= ran <= 1.0)


class Agreement(unittest.TestCase):
    def test_the_gap_is_signed_by_the_worse_direction(self):
        self.assertAlmostEqual(steady.worse_share(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(steady.worse_share(10.0, 11.0, "higher"), -0.1)

    def test_a_gap_fails_in_either_direction(self):
        self.assertTrue(steady.agrees(0.2, 0.24))
        self.assertTrue(steady.agrees(-0.2, 0.24))
        self.assertFalse(steady.agrees(0.25, 0.24))
        self.assertFalse(steady.agrees(-0.25, 0.24))


class Host(unittest.TestCase):
    def test_diagnostics_read_steal_and_load(self):
        start = run.host_sample()
        summary = run.host_summary(start, run.host_sample())
        self.assertGreaterEqual(summary["steal_share"], 0.0)
        self.assertGreaterEqual(start["total_ticks"], start["steal_ticks"])
        self.assertGreaterEqual(start["load1"], 0.0)


if __name__ == "__main__":
    unittest.main()

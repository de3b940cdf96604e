"""Tests of the benchmark itself (not of the package).

Run from the root of a checkout::

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import os
import random
import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(sid, name, parent, start, end, thread=1, work=None, tag=None, error=None):
    return (sid, name, parent, start, end, thread, work, tag, error)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOAD_NAMES:
            self.assertEqual(workloads.generate(name, 7), workloads.generate(name, 7))

    def test_other_seed_other_inputs_same_work(self):
        for name in workloads.WORKLOAD_NAMES:
            first = workloads.generate(name, 1)
            for seed in range(2, 12):
                jobs = workloads.generate(name, seed)
                self.assertNotEqual(jobs, first)
                self.assertEqual(workloads.work_signature(jobs),
                                 workloads.work_signature(first))

    def test_rasters_are_point_symmetric_with_fixed_lit_count(self):
        line_lit = 2 * (2 + workloads.LINE_RASTER_SEEDED_PAIRS)  # corners + seeded pairs
        for seed in range(20):
            rng = random.Random(seed)
            for rows, lit in ((workloads.line_raster(rng), line_lit),
                              (workloads.grid_raster(rng), 2)):
                grid = rows.split(";")
                self.assertEqual(rows.count("1"), lit)
                self.assertEqual(grid, [row[::-1] for row in reversed(grid)])

    def test_threads_never_exceed_nproc(self):
        for name in workloads.WORKLOAD_NAMES:
            for cpus in (1, 2, 3, 8):
                self.assertLessEqual(workloads.threads_for(name, cpus), cpus)
        self.assertEqual(workloads.threads_for("twin_extended", 8), 4)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [span(0, "a", None, 0.0, 10.0), span(1, "b", 0, 2.0, 5.0),
                 span(2, "c", 1, 3.0, 4.0), span(3, "b", 0, 6.0, 7.0)]
        self.assertEqual(tracer.self_times(spans), {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})

    def test_children_on_two_threads_overlap_once(self):
        spans = [span(0, "scan", None, 0.0, 10.0),
                 span(1, "rate", 0, 1.0, 6.0, thread=2),
                 span(2, "rate", 0, 4.0, 8.0, thread=3),
                 span(3, "rate", 0, 9.0, 12.0, thread=2)]
        self.assertAlmostEqual(tracer.self_times(spans)[0], 10.0 - 7.0 - 1.0)

    def test_summary_counts_kernel_points_inside_integrals_and_error_origins(self):
        spans = [span(0, "scansim.scan", None, 0.0, 10.0, work=16, tag="twin.slit"),
                 span(1, "coincidence.integrate_sample", 0, 1.0, 9.0, thread=2,
                      error="QuadratureError"),
                 span(2, "coincidence.kernel_field", 1, 2.0, 3.0, thread=2, work=100),
                 span(3, "coincidence.kernel_field", 0, 3.0, 4.0, work=7)]
        summary = tracer.summarize(spans)
        self.assertEqual(summary["_kernel_points_in_integrals"], 100)
        self.assertEqual(summary["_origin_errors"], {("coincidence", "QuadratureError"): 1})
        self.assertEqual(summary["scansim.scan"]["tags"]["twin.slit"]["work"], 16)
        self.assertAlmostEqual(summary["_scan_busy_s"], 9.0)


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        value, pct, beyond = run.tail([float(v) for v in range(100, 0, -1)])
        self.assertEqual((value, pct, beyond), (90.0, 90.0, 10))

    def test_eleven_samples(self):
        value, pct, beyond = run.tail([float(v) for v in range(11)])
        self.assertEqual((value, beyond), (0.0, 10))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))


class MetricNamesTest(unittest.TestCase):
    """The metrics a run prints are exactly those BENCHMARK.json declares."""

    @staticmethod
    def declared(kind):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        return [(m["name"], m["unit"]) for m in spec[kind]]

    @staticmethod
    def one_pass():
        result = run.Pass()
        result.seconds = result.wall = [1.0]
        return result

    def test_end_to_end(self):
        wl = types.SimpleNamespace(jobs=[workloads.JobSpec("j", "scan", "", scan_points=4)])
        metrics, _ = run.end_to_end(wl, [self.one_pass()], [0.5])
        self.assertEqual([(k, u) for k, (_, u) in metrics.items()], self.declared("end_to_end"))

    def test_per_layer(self):
        metrics = run.per_layer([tracer.summarize([])], [self.one_pass()], [self.one_pass()],
                                threads=1, csv_bytes=0)
        self.assertEqual([(k, u) for k, (_, u) in metrics.items()], self.declared("per_layer"))


class CheckTest(unittest.TestCase):
    def test_reference_tolerance_follows_the_sample(self):
        job = workloads.generate("twin_extended", 1)[0]
        series = {"values": [1.0, 0.5, 1.0]}
        checks.check_reference(job, series, {"values": [1.0, 0.5 + 5e-7, 1.0]})
        with self.assertRaises(checks.CheckFailed):
            checks.check_reference(job, series, {"values": [1.0, 0.5 + 5e-6, 1.0]})

    def test_invariants_reject_broken_outputs(self):
        jobs = {job.name: job for job in workloads.generate("closed_form", 1)}
        with self.assertRaises(checks.CheckFailed):
            checks.check_job(jobs["scan_line_twin_two_point"], {"values": [0.5, 1.0, 0.4]})
        with self.assertRaises(checks.CheckFailed):
            checks.check_job(jobs["params_flat_pump"],
                             {"fwhm_twin_m": [0.51], "fwhm_confocal_m": [1.0]})
        with self.assertRaises(checks.CheckFailed):
            checks.check_resolution_order({"twin": 2.0, "confocal": 1.0, "widefield": 3.0})


class TracerTest(unittest.TestCase):
    """Runs the real package: patches, worker-thread parents, restore."""

    @classmethod
    def setUpClass(cls):
        cls.tf = run.load_package()

    def test_bindings_restored_and_worker_spans_parented_to_the_scan(self):
        tf = self.tf
        modules = [getattr(tf, layer) for layer in run.LAYERS]
        before = run._bindings([tf] + modules)
        tr = tracer.Tracer([tf] + modules)
        plan = tf.ScanPlan(tf.Line(half_range=1e-6, samples=16), tf.Instrument.CONFOCAL)
        saved = os.environ.get("TWINFOCAL_THREADS")
        os.environ["TWINFOCAL_THREADS"] = "2"
        try:
            with tr:
                self.assertIsNot(tf.psf.airy_amp, before[("twinfocal.psf", "airy_amp")])
                tf.scan(plan, tf.MicroscopeConfig(), tf.TwoPoint(0.3e-6))
        finally:
            if saved is None:
                del os.environ["TWINFOCAL_THREADS"]
            else:
                os.environ["TWINFOCAL_THREADS"] = saved
        self.assertEqual(run._bindings([tf] + modules), before)
        spans = tr.take()
        scan_id = next(s[0] for s in spans if s[1] == "scansim.scan")
        workers = [s for s in spans if s[1] == "psf.psf_confocal"]
        self.assertEqual(len(workers), 4)  # two chunks, two responses each
        self.assertTrue(all(s[2] == scan_id for s in workers))
        main_thread = next(s[5] for s in spans if s[1] == "scansim.scan")
        self.assertNotIn(main_thread, {s[5] for s in workers})


if __name__ == "__main__":
    unittest.main()

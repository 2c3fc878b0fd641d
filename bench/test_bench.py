"""Tests of the benchmark itself: tracer arithmetic, wrapper lifetime,
seeded inputs, oracles and the metric names in BENCHMARK.json.

Run with ``python3 bench/run.py --smoke`` or, from the repository root,
``PYTHONPATH=src python3 -m unittest discover -s bench -t bench``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

import run
import tracer
import worker
import workloads
import tauwork as tw

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _tmpdir():
    return tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT)


class TracerArithmetic(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        t = tracer.Tracer()
        # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 6]
        t.names += ["root", "a", "b", "c"]
        t.starts += [0.0, 1.0, 2.0, 5.0]
        t.ends += [10.0, 4.0, 3.0, 6.0]
        t.parents += [-1, 0, 1, 0]
        s = t.summary()
        self.assertEqual(s["self_s"], {"root": 6.0, "a": 2.0, "b": 1.0, "c": 1.0})
        self.assertEqual(s["wall_s"], 10.0)
        self.assertEqual(sum(s["self_s"].values()), s["wall_s"])
        self.assertEqual(worker.check_accounting(s), [])

    def test_accounting_flags_a_child_outside_its_parent(self):
        t = tracer.Tracer()
        t.names += ["root", "a"]
        t.starts += [0.0, 0.0]
        t.ends += [1.0, 2.0]
        t.parents += [-1, 0]
        self.assertTrue(worker.check_accounting(t.summary()))


class WrapperLifetime(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(5)
        self.run = tw.FlatRun(
            "t", 1.0, tw.random_hermitian(3, rng), tw.random_hermitian(3, rng),
            tw.amplitude_damping_channel(0.3, 3),
        )

    def test_install_times_nested_calls_and_uninstall_restores(self):
        originals = (tw.protocol.run_protocol, tw.protocol.spectral_decompose,
                     tw.channels.QuantumChannel.__dict__["apply_matrix"],
                     tw.scenarios.ScenarioConfig.__dict__["from_dict"])
        self.assertEqual(tracer.installed_wrappers(), [])
        t = tracer.Tracer()
        patched = t.install()
        try:
            self.assertEqual(len(tracer.installed_wrappers()), patched)
            report, error, seconds = t.root("bench.op", tw.run_protocol, self.run)
        finally:
            t.uninstall()
        self.assertIsNone(error)
        self.assertTrue(abs(report.residual) < 1e-12)
        self.assertEqual(tracer.installed_wrappers(), [])
        self.assertEqual(
            originals,
            (tw.protocol.run_protocol, tw.protocol.spectral_decompose,
             tw.channels.QuantumChannel.__dict__["apply_matrix"],
             tw.scenarios.ScenarioConfig.__dict__["from_dict"]),
        )
        s = t.summary()
        self.assertEqual(s["calls"]["protocol.run_protocol"], 1)
        self.assertEqual(s["calls"]["protocol.conditional_probabilities"], 1)
        # one Kraus-family application per initial basis state, plus the
        # unitality deviation of the non-unital channel
        self.assertEqual(s["calls"]["channels.QuantumChannel.apply_matrix"], 3 + 1)
        self.assertEqual(s["counts"]["protocol.atoms_in"], 9)
        self.assertAlmostEqual(s["wall_s"], seconds, places=12)
        self.assertEqual(worker.check_accounting(s), [])

    def test_calls_outside_a_root_are_not_recorded(self):
        t = tracer.Tracer()
        t.install()
        try:
            tw.run_protocol(self.run)
        finally:
            t.uninstall()
        self.assertEqual(t.names, [])

    def test_per_layer_metrics_match_benchmark_json(self):
        spec = ROOT / "BENCHMARK.json"
        if not spec.is_file():
            self.skipTest("no BENCHMARK.json next to the benchmark")
        declared = json.loads(spec.read_text(encoding="utf-8"))
        layer = set(worker.per_layer_metrics({}, 1)) | {"trace.overhead_ratio"}
        self.assertEqual({m["name"] for m in declared["per_layer"]}, layer)
        self.assertEqual({m["name"] for m in declared["end_to_end"]}, set(run.END_TO_END))
        self.assertLessEqual({w["name"] for w in declared["workloads"]}, set(run.WORKLOADS))
        for m in declared["per_layer"] + declared["end_to_end"]:
            unit = run.END_TO_END.get(m["name"]) or run.layer_unit(m["name"])
            self.assertEqual(m["unit"], unit, m["name"])


class TracedWorker(unittest.TestCase):
    def test_spans_file_holds_one_consistent_traced_pass(self):
        with _tmpdir() as tmp:
            spans_path = Path(tmp) / "spans.json"
            result = run.launch("flat-kraus", "traced", 2, 0.1, run._now() + 120,
                                smoke=True, spans=str(spans_path))
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        self.assertTrue(result["checks_ok"], result["problems"])
        roots = [s for s in spans if s["parent"] < 0]
        self.assertEqual(len(roots), result["slots"])
        for s in spans:
            self.assertLessEqual(s["start"], s["end"])
            if s["parent"] >= 0:
                parent = spans[s["parent"]]
                self.assertLessEqual(parent["start"], s["start"])
                self.assertLessEqual(s["end"], parent["end"])
        calls = sum(1 for s in spans if s["name"] == "protocol.run_protocol")
        self.assertEqual(calls, result["metrics"]["protocol.run_protocol.calls"])


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_same_shapes(self):
        a, b, c = (workloads.FlatKraus(s, smoke=True) for s in (3, 3, 4))
        for x, y, z in zip(a.slots, b.slots, c.slots):
            np.testing.assert_array_equal(x.h0.matrix, y.h0.matrix)
            self.assertEqual(x.beta, y.beta)
            self.assertEqual(x.h0.dim, z.h0.dim)
            self.assertEqual(len(x.channel.kraus_ops), len(z.channel.kraus_ops))
            self.assertFalse(np.array_equal(x.h0.matrix, z.h0.matrix))

    def test_full_size_shapes_cover_the_stated_ranges(self):
        dims = {d for _, d, _ in workloads.FLAT_SLOTS}
        self.assertEqual((min(dims), max(dims)), (8, 64))
        self.assertTrue(all(d <= 16 for k, d, _ in workloads.FLAT_SLOTS if k == "depolarizing"))
        shapes = workloads.driven_shapes(smoke=False)
        self.assertEqual({s.dim for s in shapes}, set(workloads.DRIVEN_DIMS))
        self.assertEqual({s.segments for s in shapes}, set(range(2, 9)))
        self.assertEqual({s.final_basis for s in shapes}, {"evolved", "instantaneous"})
        self.assertEqual((min(s.steps for s in shapes), max(s.steps for s in shapes)), (1000, 30000))


class Oracles(unittest.TestCase):
    def test_flat_oracle_rejects_a_shifted_lhs(self):
        wl = workloads.FlatKraus(1, smoke=True)
        report = wl.op(1)
        self.assertIsNone(wl.check(1, report))
        self.assertIsNotNone(wl.check(1, dataclasses.replace(report, lhs=report.lhs + 1e-8)))
        self.assertIsNotNone(wl.check(1, dataclasses.replace(report, mean_work=float("nan"))))

    def test_driven_oracle_rejects_a_residual_and_a_wrong_rhs(self):
        wl = workloads.DrivenSteps(1, smoke=True)
        i = 1  # instantaneous final basis
        report = wl.op(i)
        self.assertIsNone(wl.check(i, report))
        self.assertIsNotNone(wl.check(i, dataclasses.replace(report, residual=2e-6)))
        self.assertIsNotNone(wl.check(i, dataclasses.replace(report, rhs=report.rhs * 1.001)))

    def test_cli_oracle_rejects_changed_bytes_and_bad_rows(self):
        with _tmpdir() as tmp:
            wl = workloads.CliSweep(1, smoke=True, workdir=Path(tmp), root=ROOT)
            for i in range(len(wl)):
                self.assertIsNone(wl.check(i, wl.op(i)), i)
                self.assertGreater(wl.bytes_written(i), 0)
            self.assertIsNotNone(wl.check(0, 2))
            path = wl.slots[0].report
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(",", ", ", 1), encoding="utf-8")
            self.assertIn("differs", wl.check(0, 0))
            fresh = workloads.CliSweep(1, smoke=True, workdir=Path(tmp), root=ROOT)
            lines = text.splitlines()
            cells = lines[1].split(",")
            cells[10] = "1e-09"  # residual column
            path.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
            self.assertIn("residual", fresh.check(0, 0))

    def test_cli_reports_are_byte_identical_across_processes(self):
        script = (
            "import sys, pathlib, workloads; d = pathlib.Path(sys.argv[1]); "
            "wl = workloads.CliSweep(7, smoke=True, workdir=d, root=pathlib.Path(sys.argv[2])); "
            "[wl.op(i) for i in range(len(wl))]"
        )
        with _tmpdir() as a, _tmpdir() as b:
            for d in (a, b):
                subprocess.run(
                    [sys.executable, "-c", script, d, str(ROOT)], cwd=BENCH,
                    env=run.child_env(), check=True, timeout=120,
                )
            reports_a = sorted(Path(a).glob("out-*/*.csv"))
            self.assertEqual(len(reports_a), len(workloads.SWEEP_SMOKE) + len(workloads.DEMO_SMOKE))
            for path in reports_a:
                self.assertEqual(path.read_bytes(), (Path(b) / path.relative_to(a)).read_bytes())

    def test_verify_oracle_is_passed(self):
        wl = workloads.Verify(0, smoke=True)
        result = wl.op(wl.warmup)
        self.assertIsNone(wl.check(wl.warmup, result))
        self.assertIsNotNone(wl.check(wl.warmup, dataclasses.replace(result, passed=False)))


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; runs in about ten seconds.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json is printed with its unit, that a
corrupted output stream counts as a failed attempt, that tracing changes no
output and its call counts repeat, and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def main_output(*argv: str) -> tuple[list[str], dict]:
    """Printed lines and the final JSON object of one benchmark invocation."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main([*argv, "--size", "tiny"])
    assert code == 0, code
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


class CorruptSink(run.Sink):
    """Changes the first character of the stream."""

    def write(self, s: str) -> int:
        if not getattr(self, "corrupted", False) and s:
            self.corrupted = True
            s = "#" + s[1:]
        return super().write(s)


def _is_reference(argv: list[str]) -> bool:
    return argv[-2:] == ["--workers", "1"]


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.SRC))

    def test_metric_names_match_benchmark_json(self):
        self.assertEqual(run.END_TO_END, {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
        self.assertEqual(run.PER_LAYER, {m["name"]: m["unit"] for m in SPEC["per_layer"]})
        self.assertEqual(list(workloads.NAMES), [w["name"] for w in SPEC["workloads"]])

    def test_every_metric_printed_with_unit(self):
        for trace, units in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
            lines, result = main_output("--workload", "all", "--seconds", "0.2", "--trace", trace)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            for name in workloads.NAMES:
                for key, unit in units.items():
                    self.assertEqual(result["metrics"][f"{name}.{key}"]["unit"], unit)
                    printed = [ln.split() for ln in lines if ln.startswith(name + " ")]
                    self.assertIn(unit, [p[-1] for p in printed if p[1] == key], (name, key))
                self.assertTrue(any(ln.split()[:2] == [name, "failed_share"] for ln in lines))

    def test_single_workload_reports_exactly_its_metrics(self):
        _, result = main_output("--workload", "oracle", "--seconds", "0.1", "--trace", "0")
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_corrupted_stream_is_a_failure(self):
        original = run.run_command

        def corrupting(argv, *args, **kwargs):
            if _is_reference(argv):
                return original(argv, *args, **kwargs)
            with mock.patch.object(run, "Sink", CorruptSink):
                return original(argv, *args, **kwargs)

        for name in workloads.NAMES:
            with self.subTest(name), mock.patch.object(run, "run_command", corrupting):
                _, result = main_output("--workload", name, "--seconds", "0.1", "--trace", "0")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])

    def test_tracing_changes_no_output_and_counts_repeat(self):
        from c4quartic.intarith import _trial_primes

        _trial_primes()
        for name in workloads.NAMES:
            with self.subTest(name):
                wl = workloads.make(name, workloads.DEFAULT_SEED, "tiny")
                plain = run.run_command(wl.argv, wl.capture, header_lines=wl.header_lines)
                tr = tracing.Tracer()
                tr.worker_dir = run.OUT / "selftest-workers"
                tr.worker_dir.mkdir(parents=True, exist_ok=True)
                tr.install(run.layer_hooks(tr))
                try:
                    per_command = []
                    for _ in range(2):
                        traced = run.run_command(wl.argv, wl.capture, tr, wl.header_lines)
                        self.assertEqual(traced.digest, plain.digest)
                        strips = tr.merged_worker_buffers()
                        buffers = [tr.take()] + [buf for _, buf in strips]
                        agg = tracing.aggregate(tr.names, buffers)
                        per_command.append((agg["calls"], agg["counters"], len(strips)))
                finally:
                    tr.uninstall()
                    shutil.rmtree(tr.worker_dir, ignore_errors=True)
                self.assertEqual(per_command[0], per_command[1])
                self.assertEqual(per_command[0][2], 2 if name == "box-csv-w2" else 0)
                after = run.run_command(wl.argv, wl.capture, header_lines=wl.header_lines)
                self.assertEqual(after.digest, plain.digest)

    def test_refuses_to_run_without_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "theorem", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark itself (not collected by the repository's pytest run).

    python3 pctbench/selftest.py

Covers run.py's input validation, a tiny run of every workload that must
print every metric named in BENCHMARK.json with its unit, the tracer's
handling of absent names, of self time and of calls outside the benchmark's
root spans, and the refusal to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "pctbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class InputValidation(unittest.TestCase):
    BAD = [
        ["--workload", "nope", "--seed", "1", "--seconds", "1"],
        ["--workload", "query_large", "--seed", "x", "--seconds", "1"],
        ["--workload", "query_large", "--seed", "-3", "--seconds", "1"],
        ["--workload", "query_large", "--seed", "1.5", "--seconds", "1"],
        ["--workload", "query_large", "--seed", "1", "--seconds", "0"],
        ["--workload", "query_large", "--seed", "1", "--seconds", "-2"],
        ["--workload", "query_large", "--seed", "1", "--seconds", "ten"],
        ["--workload", "query_large", "--seed", "1", "--seconds", "100000"],
        ["--workload", "query_large", "--seed", "1", "--seconds", "1", "--trace", "2"],
        ["--seed", "1", "--seconds", "1"],
    ]

    def test_bad_arguments_end_in_one_line_and_nonzero_exit(self):
        for argv in self.BAD:
            with self.subTest(argv=argv):
                proc = bench(*argv)
                self.assertNotEqual(proc.returncode, 0)
                self.assertEqual(proc.stdout, "")
                self.assertNotIn("Traceback", proc.stderr)
                lines = proc.stderr.strip().splitlines()
                self.assertEqual(len(lines), 1, proc.stderr)
                self.assertTrue(lines[0].startswith("error: "), lines[0])


class TinyRuns(unittest.TestCase):
    def _result(self, workload, trace):
        proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--size", "small")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_end_to_end_metric_with_its_unit(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                text, result = self._result(workload, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, unit in want.items():
                    self.assertGreater(result["metrics"][name]["value"], 0)
                    self.assertIn(f"{name} = ", text)
                self.assertIn("failed_frac = 0 ", text)

    def test_traced_run_reports_every_per_layer_metric(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                _, result = self._result(workload, 1)
                self.assertTrue(result["correct"])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                self.assertGreater(result["metrics"][f"{run.KEY_SPANS[workload]}.calls"]["value"], 0)
                self.assertEqual(result["metrics"]["trace.absent"]["value"], 0)

    def test_benchmark_json_lists_the_runners_metrics(self):
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]],
                         run.per_layer_names())
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))


class Tracer(unittest.TestCase):
    def test_absent_names_are_reported_not_raised(self):
        saved = dict(spans.TRACED)
        try:
            spans.TRACED.clear()
            spans.TRACED.update({"traces": ("lift", "no_such_function"),
                                 "no_such_module": ("f",)})
            tracer = spans.Tracer()
            tracer.install()
            tracer.uninstall()
        finally:
            spans.TRACED.clear()
            spans.TRACED.update(saved)
        self.assertEqual(sorted(tracer.absent), ["no_such_module.f", "traces.no_such_function"])

    def test_self_times_add_up_to_the_root(self):
        from pct import traces
        from pct.traces import BOOL, Port, Signature
        original = traces.lift
        tracer = spans.Tracer()
        tracer.install()
        try:
            # port names no other test uses, so no cached index map is reused
            small = Signature.of(uncontrolled=[Port("selftest_a", BOOL)])
            big = Signature.of(uncontrolled=[Port("selftest_a", BOOL), Port("selftest_b", BOOL)])
            with tracer.root("bench.root"):
                traces.product(traces.universe(small, 2), traces.universe(big, 2))
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        self.assertTrue(summary["consistent"])
        self.assertEqual(summary["funcs"]["traces.product"]["calls"], 1)
        self.assertGreaterEqual(summary["funcs"]["traces.lift"]["calls"], 2)
        root = summary["roots"]["bench.root"]
        self.assertAlmostEqual(sum(root["modules"].values()), root["wall_s"], places=9)
        self.assertGreater(summary["bytes_out"], 0)
        self.assertIs(traces.lift, original, "uninstall must restore the original functions")

    def test_calls_outside_every_root_are_not_recorded(self):
        from pct import traces
        from pct.traces import BOOL, Port, Signature
        sig = Signature.of(uncontrolled=[Port("selftest_d", BOOL)])
        tracer = spans.Tracer()
        tracer.install()
        try:
            traces.product(traces.universe(sig, 1), traces.universe(sig, 1))  # an untimed check
            with tracer.root("bench.root"):
                traces.product(traces.universe(sig, 1), traces.universe(sig, 1))
            traces.product(traces.universe(sig, 1), traces.universe(sig, 1))
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        self.assertEqual(list(summary["roots"]), ["bench.root"])
        self.assertEqual(summary["funcs"]["traces.product"]["calls"], 1)

    def test_stop_removes_the_wrappers_before_the_checks(self):
        from pct import oracle
        original = oracle.materialize
        alt = worker.Alternating(trace=True)
        for i in range(4):
            _, tracer = alt.choose(i)
            self.assertIs(oracle.materialize is original, tracer is None)
        alt.stop()
        self.assertIs(oracle.materialize, original)

    def test_stale_binding_fails_the_traced_run(self):
        from pct.traces import BOOL, Port, Signature
        from pct.traces import slot_values as stale  # bound before the wrappers exist
        tracer = spans.Tracer()
        tracer.install()
        try:
            sig = Signature.of(uncontrolled=[Port("selftest_c", BOOL)])
            with tracer.root("bench.root"):
                stale(sig, 1, "selftest_c", 0)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        self.assertNotIn("traces.slot_values", summary["funcs"])
        self.assertEqual(len(run.trace_errors(summary, "query_large")), 1)
        summary["absent"] = ["traces.slot_values"]
        self.assertEqual(run.trace_errors(summary, "query_large"), [])


class WithoutProgram(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "pctbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", "query_large", "--seed", "1", "--seconds", "1", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertNotIn("Traceback", proc.stderr)


if __name__ == "__main__":
    unittest.main()

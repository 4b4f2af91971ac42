"""Self-test of the benchmark harness.

Run from the root of the repository (builds the harness on first use):

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("compile-suite", "run-suite", "serve-mix")


def work_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    path = os.path.join(os.path.abspath(base), "perfbench", "selftest")
    os.makedirs(path, exist_ok=True)
    return path


def run_tiny(workload, trace=0, seed=7, extra=()):
    """Runs one tiny workload; returns (exit code, result JSON)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_metric_names_match_benchmark_json(self):
        # Every workload reports every metric of the section, in its unit.
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.spec[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result = run_tiny(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(declared))
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], declared[name], name)
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_corrupted_reference_line_is_a_failed_operation(self):
        src = os.path.join(BENCH, "reference", "expected.tsv")
        bad = os.path.join(work_dir(), "corrupted.tsv")
        with open(src) as f:
            original = f.read().splitlines(True)
        # richards at 1/20 of its test input: a warm-up job of every
        # serve-mix set-up runs it.
        i = next(i for i, l in enumerate(original)
                 if l.startswith("richards\t21\t"))
        lines = list(original)
        lines[i] = lines[i].replace("\\n29\\n", "\\n30\\n")
        self.assertNotEqual(lines[i], original[i])
        with open(bad, "w") as f:
            f.writelines(lines)
        code, result = run_tiny("serve-mix", extra=["--reference", bad])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["failed"], result["attempted"])

    def test_serve_mix_seed_fixes_the_job_sequence(self):
        def jobs(seed, tag):
            path = os.path.join(work_dir(), "jobs-%s.txt" % tag)
            code, _ = run_tiny("serve-mix", seed=seed,
                               extra=["--jobs-out", path])
            self.assertEqual(code, 0)
            with open(path) as f:
                return f.read().splitlines()

        first, second = jobs(11, "a"), jobs(11, "b")
        n = min(len(first), len(second))
        self.assertGreaterEqual(n, 48)
        self.assertEqual(first[:n], second[:n])
        self.assertNotEqual(jobs(12, "c")[:n], first[:n])


if __name__ == "__main__":
    unittest.main()

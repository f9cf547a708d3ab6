#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the driver the way run.py does and check that
  * every metric BENCHMARK.json names is printed, with its unit, as a finite
    number, in the mode that reports it, and that the names are valid;
  * a planted digest mismatch counts as a failed op;
  * a short-window run of each workload completes in both modes.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's build step)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()
    if BINARY is None:
        raise RuntimeError("perfbench build failed")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def drive(*args):
    """Runs the driver; returns (exit code, record, result)."""
    out = subprocess.run([BINARY, *args], capture_output=True, text=True,
                         timeout=170)
    lines = out.stdout.strip().splitlines()
    record = result = None
    if len(lines) >= 2:
        record = json.loads(lines[-2])["perfbench"]
        result = json.loads(lines[-1])
    return out.returncode, record, result


def short(workload, trace, *extra):
    return drive("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--short", *extra)


class CatalogueTest(unittest.TestCase):
    def test_names_and_units_are_valid(self):
        bench = load_benchmark()
        seen = set()
        for group in ("workloads", "end_to_end", "per_layer"):
            for entry in bench[group]:
                self.assertRegex(entry["name"], NAME)
                self.assertNotIn(entry["name"], seen)
                seen.add(entry["name"])
                if "unit" in entry:
                    self.assertRegex(entry["unit"], UNIT)
        for m in bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(
            setup[0]["bound"], max(m["bound"] for m in bench["end_to_end"]))


class ShortRunTest(unittest.TestCase):
    """Each workload, both modes, short windows: completes and prints every
    metric BENCHMARK.json names for that mode with its unit."""

    def check_mode(self, trace, group):
        bench = load_benchmark()
        want = {m["name"]: m["unit"] for m in bench[group]}
        for w in bench["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                code, record, result = short(w["name"], trace)
                self.assertEqual(code, 0)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], record["failures"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(want))
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], want[name], name)
                    self.assertTrue(math.isfinite(m["value"]), name)
                self.assertEqual(record["seed"], 3)
                self.assertIn("ndebug", record["build"])

    def test_timed_mode_prints_end_to_end_metrics(self):
        self.check_mode(0, "end_to_end")

    def test_traced_mode_prints_per_layer_metrics(self):
        self.check_mode(1, "per_layer")


class DigestTest(unittest.TestCase):
    def test_planted_mismatch_fails_the_op(self):
        out = subprocess.run(
            [BINARY, "--workload", "cluster_faulty", "--seed", "3", "--short",
             "--print-digests"], capture_output=True, text=True, timeout=170)
        self.assertEqual(out.returncode, 0)
        refs = out.stdout.strip().splitlines()
        self.assertTrue(refs)
        with tempfile.TemporaryDirectory() as tmp:
            good = os.path.join(tmp, "good.txt")
            with open(good, "w") as f:
                f.write("\n".join(refs) + "\n")
            code, record, result = short("cluster_faulty", 0, "--digests", good)
            self.assertEqual(code, 0)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(
                {d["checked_against"] for d in record["digests"].values()},
                {"reference"})

            workload, seed, op, digest = refs[0].split()
            planted = "%016x" % (int(digest, 16) ^ 1)
            bad = os.path.join(tmp, "bad.txt")
            with open(bad, "w") as f:
                f.write("\n".join([f"{workload} {seed} {op} {planted}"] +
                                  refs[1:]) + "\n")
            code, record, result = short("cluster_faulty", 0, "--digests", bad)
            self.assertEqual(code, 0)
            self.assertFalse(result["correct"])
            self.assertGreaterEqual(result["failed"], 1)
            self.assertTrue(any(f.startswith(op + ":")
                                for f in record["failures"]))


if __name__ == "__main__":
    unittest.main()

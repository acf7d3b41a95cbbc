#!/usr/bin/env python3
"""The benchmark's own tests: liveness, seeds, exact counts, known defect.

    python3 perfbench/tests/test_perfbench.py

Run from anywhere; every run goes through perfbench/run.py from the
checkout root, with short timed phases. Needs the simulator sources
(../../src) and builds into .bench_build/ like the benchmark itself.
"""
import glob
import json
import os
import subprocess
import sys
import unittest

TESTS = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(TESTS)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py: build() and paths)

WORKLOADS = ["grid", "compile", "durable"]
DEFAULT_SEED = 1      # run.py's default
HELD_OUT_SEED = 9001  # never used while the benchmark was tuned
THESIS_SEED = 0       # grid runs the embedded thesis sources verbatim


def bench(workload, seed, *extra, seconds=1, trace=0):
    """Run the benchmark; return (exit code, stdout, parsed last line)."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = result.stdout.strip().split("\n")
    return result.returncode, result.stdout, json.loads(lines[-1])


def counts_file(workload, seed, trace=0):
    return os.path.join(run.BUILD, "work",
                        f"{workload}-seed{seed}-trace{trace}.counts.json")


class Liveness(unittest.TestCase):
    """A corrupted check must fail the run: verified_share < 1, exit != 0."""

    def check(self, workload, message):
        code, out, verdict = bench(workload, DEFAULT_SEED, "--corrupt")
        self.assertNotEqual(code, 0)
        self.assertFalse(verdict["correct"])
        self.assertLess(verdict["metrics"]["verified_share"]["value"], 1)
        self.assertGreater(verdict["failed"], 0)
        self.assertIn(message, out)

    def test_grid_corrupted_expected_word(self):
        self.check("grid", "matmul.pe1: c[0]")

    def test_compile_corrupted_reference(self):
        self.check("compile", "program 0: res[0]")

    def test_durable_flipped_checkpoint_byte(self):
        self.check("durable", "loadCheckpoint refused the checkpoint")


class Seeds(unittest.TestCase):
    def test_default_and_held_out_seed_verify(self):
        for workload in WORKLOADS:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                with self.subTest(workload=workload, seed=seed):
                    code, out, verdict = bench(workload, seed)
                    self.assertEqual(code, 0, out)
                    self.assertTrue(verdict["correct"])
                    self.assertEqual(
                        verdict["metrics"]["verified_share"]["value"], 1)

    def test_thesis_seed_matches_ch6_speedup_cells(self):
        """grid at the thesis seed: per-cell cycles equal the sweep's."""
        run.build(("bench_ch6_speedup",))
        workdir = os.path.join(run.BUILD, "ch6")
        os.makedirs(workdir, exist_ok=True)
        subprocess.run([os.path.join(run.CMAKE_DIR, "bench_ch6_speedup"),
                        "--jobs", "1"], cwd=workdir, check=True,
                       stdout=subprocess.DEVNULL, timeout=300)
        with open(os.path.join(workdir, "BENCH_ch6_speedup.json")) as f:
            sweep = json.load(f)
        code, out, _ = bench("grid", THESIS_SEED)
        self.assertEqual(code, 0, out)
        with open(counts_file("grid", THESIS_SEED)) as f:
            counts = json.load(f)
        label = {"binary fan-out (recursive)": "fan_recursive",
                 "binary fan-out (iterative)": "fan_iterative"}
        cells = 0
        for series in sweep["series"]:
            name = label.get(series["name"], series["name"])
            for r in series["runs"]:
                key = f"0/untraced/cell.{name}.pe{r['pes']}.cycles"
                self.assertEqual(counts[key], r["cycles"], key)
                cells += 1
        self.assertEqual(cells, 48)


class ExactCounts(unittest.TestCase):
    def test_counts_repeat_across_runs(self):
        """run.py fails a run whose counts differ from the first run's."""
        seed = 7
        for workload in WORKLOADS:
            for trace in (0, 1):
                tag = f"{workload}-seed{seed}-trace{trace}-"
                for stale in glob.glob(os.path.join(run.BUILD, "counts",
                                                    tag + "*.json")):
                    os.remove(stale)
                for attempt in range(2):
                    with self.subTest(workload=workload, trace=trace,
                                      attempt=attempt):
                        code, out, verdict = bench(workload, seed,
                                                   trace=trace)
                        self.assertEqual(code, 0, out)
                        self.assertTrue(verdict["correct"])
                        self.assertNotIn("mismatch", out)


class KnownDefect(unittest.TestCase):
    """On more than one PE, a read of an array that precedes a
    replicated par writing that array can see the par's writes. The
    program generator therefore opens a new phase before every such
    par. This test pins the wrong result; once it is fixed, the test
    fails so that the workaround in progen.cpp and this test go."""

    SOURCE = ("var r[1], arr[16]:\n"
              "var g:\n"
              "seq\n"
              "  seq i = [0 for 16]\n"
              "    arr[i] := i\n"
              "  g := arr[5] * 3\n"
              "  par p = [0 for 8]\n"
              "    arr[p + 4] := 100 + p\n"
              "  r[0] := g\n")

    def result(self, pes):
        path = os.path.join(run.BUILD, "war.occ")
        with open(path, "w") as f:
            f.write(self.SOURCE)
        out = subprocess.run(
            [os.path.join(run.CMAKE_DIR, "occamc"), "--run", "--pes",
             str(pes), path], cwd=run.BUILD, stdout=subprocess.PIPE,
            text=True, check=True, timeout=60).stdout
        return next(line for line in out.split("\n")
                    if line.startswith("r[0..3] = ")).split()[2]

    def test_read_before_replicated_par_write(self):
        run.build(("occamc",))
        self.assertEqual(self.result(1), "15")
        # 15 is right; 303 = 3 * 101 reads the par's write to arr[5].
        self.assertEqual(self.result(8), "303",
                         "the defect is fixed: drop the phase split before "
                         "array-writing pars in progen.cpp and this test")


if __name__ == "__main__":
    unittest.main(verbosity=2)

#!/usr/bin/env python3
"""Build and run the simulator's host-speed benchmark.

    python3 perfbench/run.py --workload grid|compile|durable \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
`perfbench` (and the simulator libraries it links, from ../src) into
.bench_build/; later runs only rebuild what changed. The benchmark's
stdout is passed through; its last line is the JSON result.

On top of the binary's own checks (outputs, exact counts within a run,
span coverage), every exact count is compared with the counts of the
first run of the same workload, seed and trace mode in this checkout:
a count that differs fails the run and is named.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kwargs):
    """Run @p cmd in its own process group; on timeout kill the whole
    group (make and compiler children included) and wait for it."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return proc.returncode, out


def build(targets=("perfbench",)):
    """Configure once, then build incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
                  *targets])
    for cmd in steps:
        try:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if code != 0:
            fail(f"build step {' '.join(cmd)} exited {code}")


def compare_counts(path, counts):
    """Return a mismatch description against the stored counts, or ''."""
    if not os.path.isfile(path):
        with open(path, "w") as f:
            json.dump(counts, f, indent=1, sort_keys=True)
        return ""
    with open(path) as f:
        stored = json.load(f)
    for name in sorted(set(stored) | set(counts)):
        if stored.get(name) != counts.get(name):
            return (f"count {name} is {counts.get(name)}, the first run at "
                    f"this seed had {stored.get(name)}")
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid", "compile", "durable"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one check's input (liveness tests)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    work = os.path.join(BUILD, "work")
    counts_dir = os.path.join(BUILD, "counts")
    os.makedirs(work, exist_ok=True)
    os.makedirs(counts_dir, exist_ok=True)
    # Counts are compared only between runs of the same binary.
    with open(BINARY, "rb") as f:
        binary_id = hashlib.sha256(f.read()).hexdigest()[:16]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    counts_out = os.path.join(work, f"{tag}.counts.json")
    if os.path.exists(counts_out):
        os.remove(counts_out)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--counts-out", os.path.relpath(counts_out, ROOT),
           "--work-dir", os.path.relpath(work, ROOT)]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        code, stdout = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT,
                                 stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = stdout.rstrip("\n").split("\n")
    try:
        verdict = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(stdout)
        fail(f"benchmark printed no result (exit {code})", 1)
    for line in lines[:-1]:
        print(line)

    # Corrupted runs are expected to differ; keep them out of the record.
    if os.path.isfile(counts_out) and not args.corrupt:
        with open(counts_out) as f:
            counts = json.load(f)
        mismatch = compare_counts(
            os.path.join(counts_dir, f"{tag}-{binary_id}.json"), counts)
        if mismatch:
            print(f"FAILED: exact-count mismatch across runs: {mismatch}")
            verdict["correct"] = False
            code = code or 1
    print(json.dumps(verdict), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

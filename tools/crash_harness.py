#!/usr/bin/env python3
"""Crash-injection harness for the durability layer.

Four attack modes, all seeded and reproducible:

  run    kill -9 an `occamc --checkpoint-file` run at a randomized
         point, then `--resume` from whatever checkpoint survived and
         require stdout byte-identical to an uninterrupted reference.
         A landed kill that left a checkpoint must also leave the
         flight recorder's parseable qm.flight.v1 black box beside it.
  sweep  kill -9 a journaled bench (`--resume-dir`) mid-sweep, re-run
         with the same journal dir, and require both the final stdout
         and the BENCH_*.json byte-identical to an uninterrupted run.
         Any *.flight.json the sweep dropped in the journal dir must
         parse as qm.flight.v1, and a kill that landed after sweep
         progress must have left at least one.
  fuzz   mutate a valid checkpoint (random bit flips, truncations,
         random-garbage splices) and require every mutant to be
         refused cleanly: occamc must diagnose on stderr, fall back to
         a cold start, and still produce the reference stdout.
  reseal flip one bit inside one section payload of a valid
         checkpoint (flat and rings:2x2) and recompute that section's
         CRC, so the hostile bytes reach the section decoders instead
         of failing the CRC. A mutant may load and change the run, so
         the contract is weaker but absolute: `occamc --resume` ends
         with one of its structured exit codes - never a signal -
         with no sanitizer report, within RESEAL_TIMEOUT_S seconds.

A kill that lands after the process already exited counts as a
"no-kill" trial - the resume path is still exercised (journal/
checkpoint replay of a complete run), so trials are never wasted.

Exit 0 when every trial holds the byte-identity/rejection invariant,
1 otherwise.

Examples:
  crash_harness.py run   --occamc build/examples/occamc --trials 5
  crash_harness.py sweep --bench build/bench/bench_ch5_bus --trials 3
  crash_harness.py fuzz  --occamc build/examples/occamc --mutants 40
  crash_harness.py reseal --occamc build/examples/occamc --mutants 120
"""

import argparse
import glob
import json
import os
import random
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import time
import zlib

PIPELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "..", "examples", "pipeline.occ")

failures = 0


def report(name, ok, detail=""):
    global failures
    print(("ok: " if ok else "FAIL: ") + name +
          (f" ({detail})" if detail and not ok else ""), flush=True)
    if not ok:
        failures += 1


def run(cmd, cwd=None):
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd)


def kill_after(cmd, delay, cwd=None):
    """Start cmd, SIGKILL it after delay seconds; True if it was killed."""
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, cwd=cwd)
    try:
        proc.wait(timeout=delay)
        return False  # finished before the kill landed
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return True


def flight_dumps(directory):
    """(paths, all_parse) for every *.flight.json under directory."""
    paths = sorted(glob.glob(os.path.join(directory, "*.flight.json")))
    all_parse = True
    for path in paths:
        try:
            with open(path) as f:
                if json.load(f).get("schema") != "qm.flight.v1":
                    all_parse = False
        except (OSError, ValueError):
            all_parse = False
    return paths, all_parse


def occamc_cmd(args, extra):
    return [args.occamc, "--run", "--pes", "4", "--recover",
            "--checkpoint-every", "150", "--stats"] + extra + [PIPELINE]


def mode_run(args, rng):
    started = time.monotonic()
    ref = run(occamc_cmd(args, []))
    ref_secs = time.monotonic() - started
    report("reference run succeeds", ref.returncode == 0,
           f"rc={ref.returncode}")
    kills = 0
    for trial in range(args.trials):
        tmp = tempfile.mkdtemp(prefix="crash_run_")
        ckpt = os.path.join(tmp, "run.qmc")
        delay = rng.uniform(0.05, 0.9) * max(ref_secs, 0.01)
        killed = kill_after(occamc_cmd(args, ["--checkpoint-file",
                                              ckpt]), delay)
        kills += killed
        # kill -9 is uncatchable, so the only black box is the one the
        # checkpoint boundary persisted: if a checkpoint survived the
        # kill, the flight dump next to it must too, and must parse.
        if killed and os.path.exists(ckpt):
            dumps, all_parse = flight_dumps(tmp)
            report(f"trial {trial}: flight dump survives the kill",
                   all_parse and ckpt + ".flight.json" in dumps,
                   f"dumps={dumps}")
        # Resume from whatever survived; a missing/partial checkpoint
        # must degrade to a cold start, never to different output.
        resume = run(occamc_cmd(args, ["--resume", ckpt]))
        report(f"trial {trial}: resume after "
               f"{'kill@%.0fms' % (delay * 1e3) if killed else 'no-kill'}"
               " is byte-identical",
               resume.returncode == 0 and resume.stdout == ref.stdout,
               f"rc={resume.returncode}")
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"run mode: {kills}/{args.trials} trials landed the kill")


def bench_cmd(args, resume_dir):
    cmd = [args.bench, "--jobs", "2"]
    if args.bench_args:
        cmd += args.bench_args.split()
    if resume_dir:
        cmd += ["--resume-dir", resume_dir]
    return cmd


def read_bench_outputs(cwd):
    docs = {}
    for path in sorted(glob.glob(os.path.join(cwd, "BENCH_*.json"))):
        with open(path, "rb") as f:
            docs[os.path.basename(path)] = f.read()
    return docs


def mode_sweep(args, rng):
    ref_dir = tempfile.mkdtemp(prefix="crash_ref_")
    started = time.monotonic()
    ref = run(bench_cmd(args, ""), cwd=ref_dir)
    ref_secs = time.monotonic() - started
    report("reference sweep succeeds", ref.returncode == 0,
           f"rc={ref.returncode}")
    ref_json = read_bench_outputs(ref_dir)
    report("reference sweep wrote BENCH json", bool(ref_json))
    kills = 0
    for trial in range(args.trials):
        tmp = tempfile.mkdtemp(prefix="crash_sweep_")
        journal = os.path.join(tmp, "journal")
        os.mkdir(journal)
        # Sample the kill inside the measured sweep duration so it
        # actually lands mid-sweep on any machine speed (ASan CI runs
        # are ~10x slower than a release laptop).
        delay = rng.uniform(0.05, 0.9) * max(ref_secs, 0.01)
        killed = kill_after(bench_cmd(args, journal), delay, cwd=tmp)
        kills += killed
        # Every run the sweep started dropped a qm.flight.v1 marker in
        # the journal dir before executing (atomic write, so a kill
        # can never leave a partial one). If the kill landed after any
        # sweep progress, at least one must be there, and every one
        # present must parse.
        if killed:
            dumps, all_parse = flight_dumps(journal)
            progressed = bool(os.listdir(journal))
            report(f"trial {trial}: journal flight dumps parse",
                   all_parse and (dumps or not progressed),
                   f"dumps={len(dumps)} progressed={progressed}")
        done = run(bench_cmd(args, journal), cwd=tmp)
        label = (f"kill@{delay * 1e3:.0f}ms" if killed else "no-kill")
        report(f"trial {trial}: post-{label} rerun exits 0",
               done.returncode == 0, f"rc={done.returncode}")
        report(f"trial {trial}: stdout byte-identical",
               done.stdout == ref.stdout)
        report(f"trial {trial}: BENCH json byte-identical",
               read_bench_outputs(tmp) == ref_json)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"sweep mode: {kills}/{args.trials} trials landed the kill")


def mode_fuzz(args, rng):
    tmp = tempfile.mkdtemp(prefix="crash_fuzz_")
    ckpt = os.path.join(tmp, "seed.qmc")
    ref = run(occamc_cmd(args, ["--checkpoint-file", ckpt]))
    report("seed checkpoint run succeeds", ref.returncode == 0,
           f"rc={ref.returncode}")
    with open(ckpt, "rb") as f:
        seed = f.read()
    report("seed checkpoint non-trivial", len(seed) > 64,
           f"{len(seed)} bytes")
    rejected = 0
    for i in range(args.mutants):
        img = bytearray(seed)
        kind = rng.randrange(3)
        if kind == 0:  # bit flips
            for _ in range(rng.randrange(1, 4)):
                pos = rng.randrange(len(img))
                img[pos] ^= 1 << rng.randrange(8)
        elif kind == 1:  # truncation (possibly to nothing)
            img = img[:rng.randrange(len(img))]
        else:  # splice random garbage over a span
            start = rng.randrange(len(img))
            span = rng.randrange(1, 64)
            for j in range(start, min(start + span, len(img))):
                img[j] = rng.randrange(256)
        mutant = os.path.join(tmp, f"mutant_{i}.qmc")
        with open(mutant, "wb") as f:
            f.write(bytes(img))
        p = run(occamc_cmd(args, ["--resume", mutant]))
        # A mutant may survive by accident (flip in a dead byte that
        # the CRC covers is impossible, but e.g. truncation at the
        # exact container end is the original); either way the output
        # contract is absolute: exit 0 and the reference stdout.
        report(f"mutant {i} ({['flip', 'trunc', 'splice'][kind]}): "
               "clean outcome",
               p.returncode == 0 and p.stdout == ref.stdout,
               f"rc={p.returncode}")
        if "cannot resume" in p.stderr:
            rejected += 1
        os.remove(mutant)
    report("fuzzer reached the rejection path",
           rejected > args.mutants // 2,
           f"only {rejected}/{args.mutants} mutants rejected")
    print(f"fuzz mode: {rejected}/{args.mutants} mutants rejected, "
          "rest were no-op mutations")
    shutil.rmtree(tmp, ignore_errors=True)


# occamc's structured exit codes: ok, usage, compile error, watchdog or
# deadline, run failure, fatal/panic. (128+sig needs a shutdown signal,
# which reseal never sends.)
STRUCTURED_EXITS = {0, 2, 3, 4, 5, 6}
SANITIZER_MARKERS = ("Sanitizer", "runtime error:")
# A resumed pipeline run takes well under a second even under ASan.
RESEAL_TIMEOUT_S = 60


def sections(image):
    """(tag, payload start, payload end) of each section of a QMCKPT01
    image: [magic 8][version u32][count u32][header crc u32], then per
    section [tag 4][length u64][crc u32][payload]."""
    (count,) = struct.unpack_from("<I", image, 12)
    pos, found = 20, []
    for _ in range(count):
        (length,) = struct.unpack_from("<Q", image, pos + 4)
        found.append((image[pos:pos + 4].decode(), pos + 16,
                      pos + 16 + length))
        pos += 16 + length
    return found


def mode_reseal(args, rng):
    tmp = tempfile.mkdtemp(prefix="crash_reseal_")
    seeds = []
    for name, extra in (("flat", []),
                        ("rings:2x2",
                         ["--pes", "8", "--topology", "rings:2x2"])):
        ckpt = os.path.join(tmp, f"seed_{len(seeds)}.qmc")
        p = run(occamc_cmd(args, extra + ["--checkpoint-file", ckpt]))
        report(f"{name} seed checkpoint run succeeds", p.returncode == 0,
               f"rc={p.returncode}")
        with open(ckpt, "rb") as f:
            seeds.append((name, extra, f.read()))
    refused = 0
    for i in range(args.mutants):
        name, extra, seed = seeds[i % len(seeds)]
        img = bytearray(seed)
        tag, start, end = rng.choice([s for s in sections(img)
                                      if s[2] > s[1]])
        pos = rng.randrange(start, end)
        img[pos] ^= 1 << rng.randrange(8)
        struct.pack_into("<I", img, start - 4, zlib.crc32(img[start:end]))
        mutant = os.path.join(tmp, f"mutant_{i}.qmc")
        with open(mutant, "wb") as f:
            f.write(bytes(img))
        label = f"mutant {i} ({name} {tag}+{pos - start})"
        try:
            # errors="replace": a refusal may quote the flipped bytes.
            p = subprocess.run(occamc_cmd(args, extra + ["--resume",
                                                         mutant]),
                               capture_output=True, text=True,
                               errors="replace", timeout=RESEAL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            report(f"{label}: ends within {RESEAL_TIMEOUT_S}s", False)
            continue
        sanitizer = any(m in p.stderr for m in SANITIZER_MARKERS)
        report(f"{label}: structured exit, no sanitizer report",
               p.returncode in STRUCTURED_EXITS and not sanitizer,
               f"rc={p.returncode} sanitizer={sanitizer}")
        if "cannot resume" in p.stderr and "bad-format: section" in p.stderr:
            refused += 1
        os.remove(mutant)
    report("resealed mutants reached the section decoders", refused > 0,
           f"{refused}/{args.mutants} refused by a decoder")
    print(f"reseal mode: {refused}/{args.mutants} mutants refused by a "
          "section decoder, the rest loaded")
    shutil.rmtree(tmp, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=["run", "sweep", "fuzz", "reseal"])
    parser.add_argument("--occamc", default="build/examples/occamc")
    parser.add_argument("--bench", default="build/bench/bench_ch5_bus")
    parser.add_argument("--bench-args", default="",
                        help="extra flags passed to the bench binary")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--mutants", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1985)
    args = parser.parse_args()
    # Bench trials run in per-trial temp cwds (BENCH_*.json lands in
    # the cwd), so binary paths must survive the chdir.
    args.occamc = os.path.abspath(args.occamc)
    args.bench = os.path.abspath(args.bench)
    rng = random.Random(args.seed)

    {"run": mode_run, "sweep": mode_sweep, "fuzz": mode_fuzz,
     "reseal": mode_reseal}[args.mode](args, rng)

    if failures:
        print(f"{failures} invariant violation(s)")
        return 1
    print("crash harness: all invariants held")
    return 0


if __name__ == "__main__":
    sys.exit(main())

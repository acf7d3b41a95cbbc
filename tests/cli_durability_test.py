#!/usr/bin/env python3
"""CLI durability smoke test, run by ctest.

Asserts:
  * occamc's structured exit codes, one per failure class
    (usage 2, compile 3, watchdog/deadline 4, structured run
    failure 5, fatal 6, interrupted 128+signo);
  * occamc --checkpoint-file / --resume byte-identity on stdout,
    and the cold-start fallback for a corrupt checkpoint and for one
    whose free-page list aliases a live context;
  * qmprof diff exit codes, and a passing and a failing case for every
    gate mode CI runs through it;
  * the flight recorder: every failure class leaves a parseable
    qm.flight.v1 black box, clean runs leave none, --flight off
    suppresses it;
  * --metrics byte-identity between a checkpointed run and its resume;
  * --telemetry NDJSON streams are schema-tagged and cycle-monotone;
  * the removed intra-run threading flag is a usage error (exit 2),
    and so is a malformed prime_sieve PE count;
  * qmprof flight exit codes and verdicts;
  * the sweep benches' front end: one note line per failed and per
    recovered BENCH row, --topology refused (exit 2) by every bench
    but bench_partitioned, the usage line an unknown flag (the
    removed simulation-core selector among them) prints, and exit 6
    with one diagnostic on an output path a sweep cannot open;
  * a par too wide for any operand-queue page is refused (exit 3)
    before its children are built;
  * input nested past the parser's bound, or a call chain past the
    graph builder's, is refused (exit 3) with its line, not killed by
    a signal;
  * occamc --interp agrees with the simulated run;
  * bench_ch5_msgproc prints the message-cache tables (Tables 5.3/5.4
    and 6.7) byte for byte.

Usage: cli_durability_test.py OCCAMC SOURCE_DIR QMPROF PRIME_SIEVE
           BENCH_CH6_SPEEDUP BENCH_CH5_BUS BENCH_CH6_ABLATION
           BENCH_PARTITIONED BENCH_CH5_MSGPROC
"""

import json
import os
import signal
import struct
import subprocess
import sys
import tempfile
import time
import zlib

failures = []

# bench_ch5_msgproc's whole stdout. Table cells are padded to their
# column's width, so two lines end in a space.
MSGPROC_TABLES = (
    "Message-cache entry state transitions "
    "(thesis Tables 5.3/5.4, capacity-1 entry)\n"
    "\n"
    "state     send request               receive request \n"
    "-----------------------------------------------------\n"
    "Idle      complete -> Full           park -> RecvWait\n"
    "Full      park -> Full               complete -> Idle\n"
    "RecvWait  complete -> Full (wake 1)  park -> RecvWait\n"
    "\n"
    "Accessible states over all depth-6 request interleavings "
    "(Table 6.7): Full Idle RecvWait \n"
    "(3 states - every protocol state is reachable and no "
    "undocumented state occurs)\n"
)


def check(name, ok, detail=""):
    tag = "ok" if ok else "FAIL"
    print(f"{tag}: {name}" + (f" ({detail})" if detail and not ok else ""))
    if not ok:
        failures.append(name)


def check_rc(name, proc, rc):
    check(name, proc.returncode == rc, f"rc={proc.returncode}")


def run(cmd, **kw):
    return subprocess.run(cmd, capture_output=True, text=True, **kw)


def alias_free_page(image):
    """Rewrite the last free queue page in a QMCKPT01 image's KERN
    section to the queue page of a live context, and re-seal the
    section CRC. Returns the patched image, or None when the
    checkpoint has no live context or no free page."""
    (count,) = struct.unpack_from("<I", image, 12)
    pos = 20  # magic, version, section count, header crc
    for _ in range(count):
        tag = bytes(image[pos:pos + 4])
        (length,) = struct.unpack_from("<Q", image, pos + 4)
        start = pos + 16
        pos = start + length
        if tag != b"KERN":
            continue
        kern = image[start:pos]
        at, live = 8, []
        for _ in range(struct.unpack_from("<Q", kern, 0)[0]):
            at += 4 * 17  # id, pc, qp, pom, nar, lastResult, 11 generals
            status = kern[at]
            at += 1 + 8 + 4 + 4  # status, homePe, inChan, outChan
            (queue_page,) = struct.unpack_from("<I", kern, at)
            at += 4 + 8  # queuePage, readyAt
            (replays,) = struct.unpack_from("<Q", kern, at)
            at += 8 + 18 * replays  # kind u8, arg, result, cycles, flag
            if status != 4:  # not Done
                live.append(queue_page)
        (free,) = struct.unpack_from("<Q", kern, at)
        if not live or not free:
            return None
        struct.pack_into("<I", image, start + at + 8 + 4 * (free - 1),
                         live[0])
        struct.pack_into("<I", image, start - 4,
                         zlib.crc32(image[start:pos]))
        return image
    return None


def main():
    # Absolute paths: several runs set cwd to scratch directories.
    occamc, srcdir, qmprof, prime_sieve = map(os.path.abspath,
                                              sys.argv[1:5])
    speedup, bus, ablation, partitioned, msgproc = map(os.path.abspath,
                                                       sys.argv[5:10])
    pipeline = os.path.join(srcdir, "examples", "pipeline.occ")
    tmp = tempfile.mkdtemp(prefix="cli_durability_")

    def path(name):
        return os.path.join(tmp, name)

    def write(name, text):
        with open(path(name), "w") as f:
            f.write(text)
        return path(name)

    # --- occamc exit-code classes -------------------------------------
    p = run([occamc, "--definitely-not-a-flag"])
    check_rc("usage error exits 2", p, 2)

    # Intra-run threading was removed; its flag is now unknown.
    p = run([occamc, "--run", "--pes", "4", "--threads", "4", pipeline])
    check_rc("removed threading flag exits 2", p, 2)
    check("removed threading flag prints the usage line",
          p.stderr.startswith("usage: occamc") and not p.stdout,
          p.stderr[:200])

    p = run([prime_sieve, "abc"])
    check_rc("malformed prime_sieve PE count exits 2", p, 2)
    check("malformed prime_sieve PE count prints a usage line",
          "usage: prime_sieve" in p.stderr, p.stderr[:200])

    p = run([occamc, path("missing.occ")])
    check_rc("unreadable input exits 2", p, 2)

    bad = write("bad.occ", "seq !!! not occam\n")
    p = run([occamc, bad])
    check_rc("compile error exits 3", p, 3)

    # A par forks all its children before it joins any; past 256 the
    # compiler refuses it up front instead of compiling for hours.
    wide = write("wide.occ",
                 "var a[1]:\npar i = [0 for 100000]\n  a[0] := i\n")
    started = time.monotonic()
    p = run([occamc, wide], timeout=120)
    elapsed = time.monotonic() - started
    check("a 100000-instance par exits 3 naming its line",
          p.returncode == 3 and "line 2: par forks 100000" in p.stderr,
          f"rc={p.returncode} {p.stderr[:200]}")
    check("a 100000-instance par is refused in under 2 s", elapsed < 2,
          f"{elapsed:.1f} s")

    huge = write("huge.occ",
                 "var r[1]:\nseq\n  r[0] := 12345678901234567890123\n")
    p = run([occamc, "--run", huge])
    check("oversized literal exits 3 naming line:col",
          p.returncode == 3 and "line 3:11" in p.stderr,
          f"rc={p.returncode} {p.stderr[:200]}")

    # Nesting past the parser's bound is a compile error on its line;
    # both of these used to overflow the host stack (SIGSEGV).
    for what, expr in (("100000-deep parentheses",
                        "(" * 100000 + "1" + ")" * 100000),
                       ("a 100000-term chain",
                        " + ".join(["1"] * 100000))):
        deep = write("deep.occ", "var r:\nr := " + expr + "\n")
        p = run([occamc, "--run", deep])
        check(f"{what} exit 3 naming line 2",
              p.returncode == 3 and "line 2:" in p.stderr and
              "nested deeper than" in p.stderr,
              f"rc={p.returncode} {p.stderr[:200]}")

    # A chain of calls (p1 calls p0, p2 calls p1, ...) builds each
    # procedure's body inside its caller's; past 256 it is refused on
    # the call's line. The 10,000-long chain used to die by SIGSEGV.
    chain = "var r[1]:\nvar v:\nproc p0 (var x) =\n  x := x + 1\n:\n"
    for i in range(1, 10000):
        chain += f"proc p{i} (var x) =\n  p{i - 1} (x)\n:\n"
    chain += "seq\n  v := 0\n  p9999 (v)\n  r[0] := v\n"
    p = run([occamc, "--run", write("chain.occ", chain)])
    check("a 10000-procedure call chain exits 3 with no signal",
          p.returncode == 3 and
          "nests procedure bodies deeper than 256 levels" in p.stderr,
          f"rc={p.returncode} {p.stderr[:200]}")

    # INT32_MIN / -1 wraps to INT32_MIN, as the ALU defines it; the
    # host division used to kill the run with SIGFPE.
    minint = write("minint.occ",
                   "var r[4]:\nseq\n  r[0] := 0 - 2147483647\n"
                   "  r[1] := r[0] - 1\n  r[2] := 0 - 1\n"
                   "  r[3] := r[1] / r[2]\n")
    p = run([occamc, "--run", minint])
    check("INT32_MIN / -1 runs to completion",
          p.returncode == 0 and
          "r[0..3] = -2147483647 -2147483648 -1 -2147483648" in p.stdout,
          f"rc={p.returncode} {p.stdout[-200:]}")

    slow = write("slow.occ",
                 "var results[1]:\nvar total:\nseq\n  total := 0\n"
                 "  seq i = [1 for 500000]\n    total := total + i\n"
                 "  results[0] := total\n")
    # Failure-class runs get cwd=tmp: with no explicit sibling file the
    # flight recorder's default dump path is ./qm.flight.json.
    p = run([occamc, "--run", "--deadline-ms", "1", slow], cwd=tmp)
    check_rc("host deadline exits 4 (watchdog class)", p, 4)
    check("deadline row is structured",
          "failure: deadline:" in p.stdout, p.stdout[-200:])

    def read_flight(flight_path):
        try:
            with open(flight_path) as f:
                return json.load(f)
        except (OSError, ValueError):
            return None

    flight = read_flight(path("qm.flight.json"))
    check("deadline abort leaves a parseable flight dump",
          flight is not None and flight.get("schema") == "qm.flight.v1"
          and "deadline" in flight.get("reason", ""))
    check("flight dump notice goes to stderr",
          "flight recorder dump" in p.stderr, p.stderr[:200])
    os.remove(path("qm.flight.json"))

    p = run([occamc, "--run", "--pes", "4", "--faults",
             "seed=7,rate=0.5,kinds=corrupt", pipeline], cwd=tmp)
    check_rc("structured run failure exits 5", p, 5)
    flight = read_flight(path("qm.flight.json"))
    check("structured failure leaves a parseable flight dump",
          flight is not None and flight.get("schema") == "qm.flight.v1"
          and any(r.get("name") == "fault" and r.get("recorded", 0) > 0
                  for r in flight.get("rings", [])))
    fault_flight = path("fault.flight.json")
    os.rename(path("qm.flight.json"), fault_flight)

    dead = write("dead.occ", "chan a:\nvar x:\nseq\n  a ? x\n")
    p = run([occamc, "--run", dead], cwd=tmp)
    check_rc("kernel panic exits 6", p, 6)
    flight = read_flight(path("qm.flight.json"))
    check("fatal fault leaves a parseable flight dump",
          flight is not None and flight.get("schema") == "qm.flight.v1")
    os.remove(path("qm.flight.json"))

    p = run([occamc, "--run", "--flight", "off", dead], cwd=tmp)
    check_rc("--flight off still exits 6", p, 6)
    check("--flight off suppresses the dump",
          not os.path.exists(path("qm.flight.json")))

    proc = subprocess.Popen([occamc, "--run", slow],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, cwd=tmp)
    time.sleep(0.3)
    proc.send_signal(signal.SIGTERM)
    rc = proc.wait(timeout=30)
    check("SIGTERM exits 143 after wind-down",
          rc == 128 + signal.SIGTERM, f"rc={rc}")
    flight = read_flight(path("qm.flight.json"))
    check("SIGTERM leaves a parseable flight dump",
          flight is not None and flight.get("schema") == "qm.flight.v1")
    os.remove(path("qm.flight.json"))

    clean_dir = path("clean")
    os.mkdir(clean_dir)
    p = run([occamc, "--run", slow], cwd=clean_dir)
    check_rc("clean run succeeds", p, 0)
    check("clean run leaves no flight dump",
          os.listdir(clean_dir) == [], repr(os.listdir(clean_dir)))

    # --- checkpoint / resume ------------------------------------------
    ckpt = path("pipeline.qmc")
    base_cmd = [occamc, "--run", "--pes", "4", "--recover",
                "--checkpoint-every", "200", "--stats"]
    p_full = run(base_cmd + ["--checkpoint-file", ckpt, pipeline])
    check_rc("checkpointed run succeeds", p_full, 0)
    check("checkpoint file written", os.path.exists(ckpt))

    p_res = run(base_cmd + ["--resume", ckpt, pipeline])
    check_rc("resumed run succeeds", p_res, 0)
    check("resumed stdout is byte-identical",
          p_res.stdout == p_full.stdout)
    check("resume notice goes to stderr only",
          "resumed from" in p_res.stderr)

    with open(ckpt, "rb") as f:
        image = bytearray(f.read())
    image[len(image) // 2] ^= 0x40
    corrupt = path("corrupt.qmc")
    with open(corrupt, "wb") as f:
        f.write(image)
    p_bad = run(base_cmd + ["--resume", corrupt, pipeline])
    check("corrupt checkpoint falls back to cold start",
          p_bad.returncode == 0 and p_bad.stdout == p_full.stdout,
          f"rc={p_bad.returncode}")
    check("corrupt checkpoint diagnosed on stderr",
          "cannot resume" in p_bad.stderr, p_bad.stderr[:200])

    # A free queue page that aliases a live context's page, behind
    # valid CRCs: refused as malformed, not resumed into a deadlock.
    alias_cmd = [occamc, "--run", "--pes", "4", "--checkpoint-every",
                 "1200"]
    ckpt3 = path("alias.qmc")
    p = run(alias_cmd + ["--checkpoint-file", ckpt3, pipeline])
    check_rc("checkpoint for the aliasing case succeeds", p, 0)
    with open(ckpt3, "rb") as f:
        aliased = alias_free_page(bytearray(f.read()))
    check("checkpoint has a live context and a free page to alias",
          aliased is not None)
    if aliased is not None:
        with open(ckpt3, "wb") as f:
            f.write(aliased)
        p = run(alias_cmd + ["--resume", ckpt3, pipeline])
        check("aliased free page is refused and the run starts cold",
              p.returncode == 0 and "cannot resume" in p.stderr and
              "bad-format: section KERN" in p.stderr and
              "starting cold" in p.stderr and
              "results[0..3] = 1496 16 0 0" in p.stdout,
              f"rc={p.returncode} {p.stderr[:300]}")

    # Durable-checkpoint runs persist the black box at every boundary
    # so a kill -9 still leaves evidence on disk.
    flight = read_flight(ckpt + ".flight.json")
    check("checkpoint boundary persists a flight dump",
          flight is not None and flight.get("schema") == "qm.flight.v1"
          and flight.get("reason") == "checkpoint")

    # --- checkpoint replay ---------------------------------------------
    # Boot-checkpoint replay with link-layer retries off: the first plan
    # is rescued by one replay, the second spends all maxReplays (2).
    replay_dir = path("replay")
    os.mkdir(replay_dir)
    lossy = [occamc, "--pes", "4", "--recover", "--faults"]
    p = run(lossy + ["seed=8,rate=0.7,kinds=drop,retries=0", pipeline],
            cwd=replay_dir)
    check_rc("run rescued by a checkpoint replay exits 0", p, 0)
    check("rescued run reports one replay",
          "completed=1 cycles=22828 " in p.stdout and
          "recovery: 1 checkpoint replay(s), run recovered\n" in p.stdout,
          p.stdout[-300:])
    p = run(lossy + ["seed=2,rate=0.75,kinds=drop,retries=0", pipeline],
            cwd=replay_dir)
    check_rc("run that spends its replays exits 4 (watchdog class)", p, 4)
    check("spent replays are reported",
          "recovery: 2 checkpoint replay(s), run still failed\n"
          in p.stdout and "failure: deadlock:" in p.stdout,
          p.stdout[-300:])

    # --- metrics byte-identity across resume --------------------------
    metrics = path("metrics.json")
    ckpt2 = path("metrics.qmc")
    p1 = run(base_cmd + ["--checkpoint-file", ckpt2, "--metrics",
                         metrics, pipeline])
    check_rc("metrics run succeeds", p1, 0)
    with open(metrics, "rb") as f:
        metrics_full = f.read()
    p2 = run(base_cmd + ["--resume", ckpt2, "--metrics", metrics,
                         pipeline])
    check_rc("metrics resume succeeds", p2, 0)
    with open(metrics, "rb") as f:
        metrics_resumed = f.read()
    check("resumed --metrics document is byte-identical",
          metrics_full == metrics_resumed)

    # --- telemetry stream ---------------------------------------------
    telemetry = path("t.ndjson")
    p = run([occamc, "--run", "--pes", "4", "--telemetry", telemetry,
             "--telemetry-every", "100", pipeline])
    check_rc("telemetry run succeeds", p, 0)
    with open(telemetry, "rb") as f:
        stream = f.read()
    check("telemetry stream is non-empty", len(stream) > 0)
    lines = stream.decode().splitlines()
    parsed = [json.loads(line) for line in lines]
    check("telemetry lines are qm.telemetry.v1 and cycle-monotone",
          all(s.get("schema") == "qm.telemetry.v1" for s in parsed)
          and all(a["cycle"] < b["cycle"]
                  for a, b in zip(parsed, parsed[1:])))

    # --- qmprof diff: the one regression comparator -------------------
    def report(name, runs, doc=None):
        """Write a one-series BENCH report (or @doc verbatim)."""
        report_path = path(name)
        with open(report_path, "w") as f:
            json.dump(doc if doc is not None else {
                "bench": "t", "series": [{"name": "s", "runs": runs}]}, f)
        return report_path

    def cell(pes, cycles, host=None):
        c = {"pes": pes, "cycles": cycles, "verified": True}
        if host is not None:
            c["host_wall_ms"] = host
        return c

    def check_diff(name, rc, needle, *args):
        """qmprof diff ARGS must exit rc and print needle."""
        p = run([qmprof, "diff"] + list(args))
        check(f"qmprof diff: {name}",
              p.returncode == rc and needle in p.stdout + p.stderr,
              f"rc={p.returncode} {(p.stdout + p.stderr)[-200:]}")
        return p

    good = report("BENCH_good.json", [cell(1, 100)])
    check_diff("identical reports exit 0", 0, "within tolerance", good, good)
    check_diff("regression exits 1 naming the cell", 1, "FAIL: s @ 1 PEs",
               good, report("BENCH_regressed.json", [cell(1, 200)]))
    p = check_diff("missing report exits 2", 2, "nope.json",
                   path("nope.json"), good)
    check("qmprof diff: missing report is a one-line diagnostic",
          len(p.stderr.strip().splitlines()) == 1, p.stderr[:200])
    check_diff("malformed report exits 2", 2, "", good,
               write("BENCH_malformed.json", "{not json"))
    for name, doc in (("top level", [1, 2, 3]),
                      ("series entry", {"bench": "t", "series": [1]}),
                      ("run entry", {"bench": "t", "series": [
                          {"name": "s", "runs": [1]}]})):
        check_diff(f"non-object {name} exits 2", 2, "not an object",
                   report("BENCH_bad.json", None, doc), good)
    # A zero-cycle cell still has its host time gated.
    check_diff("5x host regression on a zero-cycle cell exits 1", 1,
               "host tolerance", report("BENCH_z0.json", [cell(1, 0, 1.0)]),
               report("BENCH_z1.json", [cell(1, 0, 5.0)]))

    # --host-aggregate: best-of-N total host time, as the obs job runs.
    def repeats(side, totals, cycles=60):
        """Repeated reports with these host totals; later ones' second
        cell has @cycles cycles."""
        return ",".join(report(f"BENCH_{side}{i}.json", [
            cell(1, 100, ms / 2), cell(2, cycles if i else 60, ms / 2)])
            for i, ms in enumerate(totals))
    agg = ("--tolerance", "0", "--host-tolerance", "0.02",
           "--host-aggregate")
    off = repeats("off", (10.0, 9.0))
    check_diff("--host-aggregate: +1.1% best-of-2 passes", 0,
               "overhead ok", off, repeats("on", (9.5, 9.1)), *agg)
    check_diff("--host-aggregate: +4.4% best-of-2 fails", 1,
               "FAIL: aggregate host", off, repeats("on", (9.5, 9.4)), *agg)
    check_diff("--host-aggregate: repeats that disagree fail", 1,
               "first repetition", off, repeats("on", (9.5, 9.1), 61), *agg)

    # --- qmprof flight ------------------------------------------------
    p = run([qmprof, "flight", fault_flight])
    check_rc("qmprof flight: post-mortem exits 0", p, 0)
    check("qmprof flight: probable cause reported",
          "probable cause" in p.stdout, p.stdout[:200])

    p = run([qmprof, "flight", good])
    check_rc("qmprof flight: non-flight JSON exits 2", p, 2)

    # --- sweep bench front end ----------------------------------------
    def bench_rows(bench_dir, name):
        with open(os.path.join(bench_dir, f"BENCH_{name}.json")) as f:
            return [r for s in json.load(f)["series"] for r in s["runs"]]

    lossy_plan = ["--faults", "seed=8,rate=0.7,kinds=drop,retries=0"]
    bench_dir = path("bench")
    os.mkdir(bench_dir)
    p = run([ablation, "--jobs", "2"] + lossy_plan, cwd=bench_dir)
    failed = [r for r in bench_rows(bench_dir, "ch6_ablation")
              if r.get("failure_reason")]
    check("ablation prints one failed: note per failed row",
          p.returncode == 0 and failed and
          p.stdout.count(" failed: ") == len(failed),
          f"rc={p.returncode} rows={len(failed)} "
          f"notes={p.stdout.count(' failed: ')}")
    p = run([partitioned, "--jobs", "2", "--max-pes", "16", "--recover"]
            + lossy_plan, cwd=bench_dir)
    recovered = [r for r in bench_rows(bench_dir, "partitioned")
                 if r.get("recovered")]
    check("bench_partitioned prints one note per recovered row",
          p.returncode == 0 and recovered and
          p.stdout.count("recovered after") == len(recovered),
          f"rc={p.returncode} rows={len(recovered)} "
          f"notes={p.stdout.count('recovered after')}")
    for bench in (speedup, bus, ablation):
        p = run([bench, "--topology", "ring"], cwd=bench_dir)
        name = os.path.basename(bench)
        check(f"{name} refuses --topology with a one-line diagnostic",
              p.returncode == 2 and not p.stdout and
              len(p.stderr.strip().splitlines()) == 1,
              f"rc={p.returncode} {p.stderr[:200]}")
    p = run([partitioned, "--jobs", "2", "--topology", "ring",
             "--max-pes", "8"], cwd=bench_dir)
    check_rc("bench_partitioned takes --topology and --max-pes", p, 0)
    # An unknown flag, the removed simulation-core selector among them,
    # prints the usage line; only bench_partitioned's lists --topology
    # and --max-pes.
    for bench in (speedup, bus, ablation, partitioned):
        name = os.path.basename(bench)
        usage = (f"usage: {name} [--jobs N] [--faults SPEC] [--recover] "
                 "[--checkpoint-every N] [--metrics FILE] "
                 "[--trace-dir DIR] "
                 + ("[--topology SPEC] [--max-pes N] "
                    if bench == partitioned else "")
                 + "[--host-time] [--resume-dir DIR] [--deadline-ms N] "
                 "[--telemetry FILE] [--telemetry-every N]\n")
        for flags in (["--no-such-flag"], ["--core", "tick"]):
            p = run([bench] + flags, cwd=bench_dir)
            check(f"{name} {flags[0]} exits 2 with the usage line",
                  p.returncode == 2 and not p.stdout and p.stderr == usage,
                  f"rc={p.returncode} {p.stderr[:300]}")

    # An output path a sweep cannot open ends it with one diagnostic
    # line and exit 6, from a worker thread too; the uncaught FatalError
    # used to abort the bench (SIGABRT). An unwritable --telemetry path
    # stays a stderr note.
    def check_bad_path(bench, flags, needle):
        p = run([bench] + flags, cwd=bench_dir)
        name = os.path.basename(bench)
        lines = p.stderr.splitlines()
        check(f"{name} {' '.join(flags)} exits 6 with one diagnostic",
              p.returncode == 6 and len(lines) == 1 and
              lines[0].startswith(f"{name}: ") and needle in lines[0] and
              "terminate called" not in p.stderr,
              f"rc={p.returncode} {p.stderr[:300]}")
    for bench, jobs in ((speedup, "2"), (bus, "1"), (ablation, "1"),
                        (partitioned, "1")):
        check_bad_path(bench, ["--jobs", jobs, "--trace-dir", "nodir"],
                       "cannot open trace output file: nodir/")
    check_bad_path(bus, ["--jobs", "1", "--resume-dir", "nodir"],
                   "'nodir/ch5_bus.journal'")
    check_bad_path(bus, ["--jobs", "1", "--metrics", "nodir/m.json"],
                   "cannot open metrics file: nodir/m.json")
    p = run([bus, "--jobs", "1", "--telemetry", "nodir/t.ndjson"],
            cwd=bench_dir)
    check("an unwritable --telemetry path is a note, exit 0",
          p.returncode == 0 and
          "cannot open telemetry file nodir/t.ndjson" in p.stderr,
          f"rc={p.returncode} {p.stderr[:200]}")

    # --- occamc --interp ------------------------------------------------
    p = run([occamc, "--run", "--interp", "--pes", "4", pipeline])
    check_rc("occamc --interp exits 0", p, 0)
    def counts(prefix):
        """key=value fields of the stdout line starting with prefix."""
        line = next((l for l in p.stdout.splitlines()
                     if l.startswith(prefix)), "")
        return dict(kv.split("=") for kv in line.split() if "=" in kv)
    sim, interp = counts("completed="), counts("abstract:")
    check("interpreter agrees with the simulated run",
          p.stdout.count("results[0..3] = 1496 16 0 0\n") == 2 and
          sim.get("contexts") == interp.get("contexts") == "106" and
          sim.get("rendezvous") == interp.get("transfers") == "454",
          p.stdout[-300:])

    # --- bench_ch5_msgproc ---------------------------------------------
    p = run([msgproc])
    check("bench_ch5_msgproc prints the transition tables byte for byte",
          p.returncode == 0 and p.stdout == MSGPROC_TABLES,
          f"rc={p.returncode} {p.stdout!r}")

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

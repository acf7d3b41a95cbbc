#!/usr/bin/env python3
"""CLI durability smoke test, run by ctest.

Asserts:
  * occamc's structured exit codes, one per failure class
    (usage 2, compile 3, watchdog/deadline 4, structured run
    failure 5, fatal 6, interrupted 128+signo);
  * occamc --checkpoint-file / --resume byte-identity on stdout,
    and the corrupt-checkpoint cold-start fallback;
  * bench_compare.py's exit-2 diagnostics on missing/unreadable/
    malformed report files (no tracebacks);
  * the flight recorder: every failure class leaves a parseable
    qm.flight.v1 black box, clean runs leave none, --flight off
    suppresses it;
  * --metrics byte-identity between a checkpointed run and its resume;
  * --telemetry NDJSON streams are schema-tagged and cycle-monotone;
  * the removed intra-run threading flag is a usage error (exit 2);
  * qmprof diff / qmprof flight exit codes and verdicts.

Usage: cli_durability_test.py OCCAMC BENCH_COMPARE SOURCE_DIR QMPROF
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

failures = []


def check(name, ok, detail=""):
    tag = "ok" if ok else "FAIL"
    print(f"{tag}: {name}" + (f" ({detail})" if detail and not ok else ""))
    if not ok:
        failures.append(name)


def run(cmd, **kw):
    return subprocess.run(cmd, capture_output=True, text=True, **kw)


def main():
    # Absolute paths: several runs set cwd to scratch directories.
    occamc, bench_compare, srcdir, qmprof = map(os.path.abspath,
                                                sys.argv[1:5])
    pipeline = os.path.join(srcdir, "examples", "pipeline.occ")
    tmp = tempfile.mkdtemp(prefix="cli_durability_")

    def path(name):
        return os.path.join(tmp, name)

    # --- occamc exit-code classes -------------------------------------
    p = run([occamc, "--definitely-not-a-flag"])
    check("usage error exits 2", p.returncode == 2, f"rc={p.returncode}")

    # Intra-run threading was removed; its flag is now unknown.
    p = run([occamc, "--run", "--pes", "4", "--threads", "4", pipeline])
    check("removed threading flag exits 2", p.returncode == 2,
          f"rc={p.returncode}")
    check("removed threading flag prints the usage line",
          p.stderr.startswith("usage: occamc") and not p.stdout,
          p.stderr[:200])

    p = run([occamc, path("missing.occ")])
    check("unreadable input exits 2", p.returncode == 2,
          f"rc={p.returncode}")

    bad = path("bad.occ")
    with open(bad, "w") as f:
        f.write("seq !!! not occam\n")
    p = run([occamc, bad])
    check("compile error exits 3", p.returncode == 3,
          f"rc={p.returncode}")

    slow = path("slow.occ")
    with open(slow, "w") as f:
        f.write("var results[1]:\nvar total:\nseq\n  total := 0\n"
                "  seq i = [1 for 500000]\n    total := total + i\n"
                "  results[0] := total\n")
    # Failure-class runs get cwd=tmp: with no explicit sibling file the
    # flight recorder's default dump path is ./qm.flight.json.
    p = run([occamc, "--run", "--deadline-ms", "1", slow], cwd=tmp)
    check("host deadline exits 4 (watchdog class)", p.returncode == 4,
          f"rc={p.returncode}")
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
    check("structured run failure exits 5", p.returncode == 5,
          f"rc={p.returncode}")
    flight = read_flight(path("qm.flight.json"))
    check("structured failure leaves a parseable flight dump",
          flight is not None and flight.get("schema") == "qm.flight.v1"
          and any(r.get("name") == "fault" and r.get("recorded", 0) > 0
                  for r in flight.get("rings", [])))
    fault_flight = path("fault.flight.json")
    os.rename(path("qm.flight.json"), fault_flight)

    dead = path("dead.occ")
    with open(dead, "w") as f:
        f.write("chan a:\nvar x:\nseq\n  a ? x\n")
    p = run([occamc, "--run", dead], cwd=tmp)
    check("kernel panic exits 6", p.returncode == 6,
          f"rc={p.returncode}")
    flight = read_flight(path("qm.flight.json"))
    check("fatal fault leaves a parseable flight dump",
          flight is not None and flight.get("schema") == "qm.flight.v1")
    os.remove(path("qm.flight.json"))

    p = run([occamc, "--run", "--flight", "off", dead], cwd=tmp)
    check("--flight off still exits 6", p.returncode == 6,
          f"rc={p.returncode}")
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
    check("clean run succeeds", p.returncode == 0,
          f"rc={p.returncode}")
    check("clean run leaves no flight dump",
          os.listdir(clean_dir) == [], repr(os.listdir(clean_dir)))

    # --- checkpoint / resume ------------------------------------------
    ckpt = path("pipeline.qmc")
    base_cmd = [occamc, "--run", "--pes", "4", "--recover",
                "--checkpoint-every", "200", "--stats"]
    p_full = run(base_cmd + ["--checkpoint-file", ckpt, pipeline])
    check("checkpointed run succeeds", p_full.returncode == 0,
          f"rc={p_full.returncode}")
    check("checkpoint file written", os.path.exists(ckpt))

    p_res = run(base_cmd + ["--resume", ckpt, pipeline])
    check("resumed run succeeds", p_res.returncode == 0,
          f"rc={p_res.returncode}")
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

    # Durable-checkpoint runs persist the black box at every boundary
    # so a kill -9 still leaves evidence on disk.
    flight = read_flight(ckpt + ".flight.json")
    check("checkpoint boundary persists a flight dump",
          flight is not None and flight.get("schema") == "qm.flight.v1"
          and flight.get("reason") == "checkpoint")

    # --- metrics byte-identity across resume --------------------------
    metrics = path("metrics.json")
    ckpt2 = path("metrics.qmc")
    p1 = run(base_cmd + ["--checkpoint-file", ckpt2, "--metrics",
                         metrics, pipeline])
    check("metrics run succeeds", p1.returncode == 0,
          f"rc={p1.returncode}")
    with open(metrics, "rb") as f:
        metrics_full = f.read()
    p2 = run(base_cmd + ["--resume", ckpt2, "--metrics", metrics,
                         pipeline])
    check("metrics resume succeeds", p2.returncode == 0,
          f"rc={p2.returncode}")
    with open(metrics, "rb") as f:
        metrics_resumed = f.read()
    check("resumed --metrics document is byte-identical",
          metrics_full == metrics_resumed)

    # --- telemetry stream ---------------------------------------------
    telemetry = path("t.ndjson")
    p = run([occamc, "--run", "--pes", "4", "--telemetry", telemetry,
             "--telemetry-every", "100", pipeline])
    check("telemetry run succeeds", p.returncode == 0,
          f"rc={p.returncode}")
    with open(telemetry, "rb") as f:
        stream = f.read()
    check("telemetry stream is non-empty", len(stream) > 0)
    lines = stream.decode().splitlines()
    parsed = [json.loads(line) for line in lines]
    check("telemetry lines are qm.telemetry.v1 and cycle-monotone",
          all(s.get("schema") == "qm.telemetry.v1" for s in parsed)
          and all(a["cycle"] < b["cycle"]
                  for a, b in zip(parsed, parsed[1:])))

    # --- bench_compare robustness -------------------------------------
    good = path("BENCH_good.json")
    with open(good, "w") as f:
        json.dump({"bench": "t", "series": [
            {"name": "s", "runs": [
                {"pes": 1, "cycles": 100, "verified": True}]}]}, f)

    p = run([sys.executable, bench_compare, good, good])
    check("bench_compare accepts a valid report", p.returncode == 0,
          f"rc={p.returncode}")

    p = run([sys.executable, bench_compare, path("nope.json"), good])
    check("missing report exits 2", p.returncode == 2,
          f"rc={p.returncode}")
    check("missing report: one-line diagnostic, no traceback",
          "Traceback" not in p.stderr and
          len(p.stderr.strip().splitlines()) == 1, p.stderr[:200])

    malformed = path("BENCH_malformed.json")
    with open(malformed, "w") as f:
        f.write("{not json")
    p = run([sys.executable, bench_compare, good, malformed])
    check("malformed report exits 2", p.returncode == 2,
          f"rc={p.returncode}")
    check("malformed report: no traceback", "Traceback" not in p.stderr)

    wrongshape = path("BENCH_list.json")
    with open(wrongshape, "w") as f:
        f.write("[1, 2, 3]")
    p = run([sys.executable, bench_compare, wrongshape, good])
    check("non-object report exits 2", p.returncode == 2,
          f"rc={p.returncode}")

    # --- qmprof diff / flight -----------------------------------------
    p = run([qmprof, "diff", good, good])
    check("qmprof diff: identical reports exit 0", p.returncode == 0,
          f"rc={p.returncode}")
    check("qmprof diff: verdict line present",
          "within tolerance" in p.stdout, p.stdout[:200])

    regressed = path("BENCH_regressed.json")
    with open(regressed, "w") as f:
        json.dump({"bench": "t", "series": [
            {"name": "s", "runs": [
                {"pes": 1, "cycles": 200, "verified": True}]}]}, f)
    p = run([qmprof, "diff", good, regressed])
    check("qmprof diff: regression exits 1", p.returncode == 1,
          f"rc={p.returncode}")
    check("qmprof diff: regression names the cell",
          "FAIL" in p.stdout and "s @ 1 PEs" in p.stdout,
          p.stdout[:200])

    p = run([qmprof, "diff", path("nope.json"), good])
    check("qmprof diff: missing input exits 2", p.returncode == 2,
          f"rc={p.returncode}")

    p = run([qmprof, "flight", fault_flight])
    check("qmprof flight: post-mortem exits 0", p.returncode == 0,
          f"rc={p.returncode}")
    check("qmprof flight: probable cause reported",
          "probable cause" in p.stdout, p.stdout[:200])

    p = run([qmprof, "flight", good])
    check("qmprof flight: non-flight JSON exits 2", p.returncode == 2,
          f"rc={p.returncode}")

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare a BENCH_*.json report against a committed baseline.

Usage: bench_compare.py BASELINE.json CURRENT.json [--tolerance FRAC]
                        [--host-tolerance FRAC] [--min-host-speedup X]
                        [--host-aggregate]

A missing, unreadable, or malformed report file is a one-line
diagnostic and exit 2 (distinct from exit 1 = a real regression), so
CI logs say "the bench never wrote its JSON" rather than dumping a
traceback.

Walks every (series, PE-count) cell present in the baseline and fails
(exit 1) when the current report's cycle count regressed by more than
the tolerance (default 0.10 = 10%), or when a baseline cell is missing
or no longer verified in the current report. Improvements and
within-tolerance drift are reported but pass. The simulator is fully
deterministic, so any drift at all is a real behavior change; the
tolerance only exists to keep intentional small costs (added checks,
instrumentation) from blocking CI.

Host-time cells (host_wall_ms, emitted only under --host-time) are
machine-dependent, so they are gated only when BOTH documents carry
them - i.e. when both were produced on the same machine in the same CI
job. A cell whose host_wall_ms grows past --host-tolerance (default
0.25 = 25%) fails; host cells missing from either side are skipped
silently.

--host-aggregate changes what --host-tolerance gates: instead of each
per-cell time (sub-millisecond on the small sweeps, far below
scheduler noise on a shared runner), it compares the two reports'
TOTAL host_wall_ms summed across every cell. To squeeze the noise
further, BASELINE and CURRENT may each be a comma-separated list of
repeated --host-time reports from the same machine; the gate takes
the minimum total per side (the classic best-of-N timing estimator)
and fails when CURRENT's best total exceeds BASELINE's best by more
than --host-tolerance. Cycle and verification checks still run on
every listed report - repetitions that disagree on cycles fail, since
the simulator is deterministic.

--min-host-speedup X switches to speedup mode: BASELINE and CURRENT
are two --host-time reports from the same machine (e.g. the unit-tick
core vs the event-driven core on one CI runner), and the check is that
CURRENT's aggregate host time at --speedup-pes (default 8) is at least
X times faster than BASELINE's, summed across every series present in
both. Cycle and verification checks still run first - a faster core
that changes results must not pass.
"""

import argparse
import json
import sys


class ReportError(Exception):
    """A report file that cannot be compared (missing/unreadable/bad)."""


def load_runs(path):
    """(doc, {(series name, pes): run dict}) from one BENCH_*.json.

    Raises ReportError with a one-line diagnostic instead of letting a
    missing, unreadable, or malformed file escape as a traceback: CI
    calls this on generated artifacts, and "the bench crashed before
    writing its JSON" must read as exactly that, not as a tool bug.
    """
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as err:
        raise ReportError(f"{path}: cannot read report: "
                          f"{err.strerror or err}") from err
    except json.JSONDecodeError as err:
        raise ReportError(f"{path}: malformed JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ReportError(f"{path}: not a BENCH report "
                          f"(top level is {type(doc).__name__}, "
                          f"expected an object)")
    runs = {}
    for series in doc.get("series", []):
        if not isinstance(series, dict):
            raise ReportError(f"{path}: malformed series entry "
                              f"({type(series).__name__})")
        for run in series.get("runs", []):
            if not isinstance(run, dict):
                raise ReportError(f"{path}: malformed run entry "
                                  f"({type(run).__name__})")
            runs[(series.get("name", "?"), run.get("pes", 0))] = run
    return doc, runs


def total_host_ms(path, runs):
    """Sum of host_wall_ms across every cell of one report.

    Raises ReportError when any cell lacks host timing: an aggregate
    over a partial sweep would silently compare different work.
    """
    total = 0.0
    for (series, pes), cell in sorted(runs.items()):
        ms = cell.get("host_wall_ms")
        if ms is None:
            raise ReportError(f"{path}: {series} @ {pes} PEs has no "
                              f"host_wall_ms (rerun with --host-time)")
        total += ms
    return total


def check_host_aggregate(base_reports, cur_reports, tolerance):
    """Best-of-N aggregate host-overhead gate.

    Each side is a list of (path, runs) repetitions from the same
    machine; the estimator is the minimum total host_wall_ms per side,
    which discards scheduler hiccups instead of averaging them in.
    """
    try:
        base_totals = [(total_host_ms(p, r), p) for p, r in base_reports]
        cur_totals = [(total_host_ms(p, r), p) for p, r in cur_reports]
    except ReportError as err:
        print(f"FAIL: {err}")
        return 1
    for label, totals in (("baseline", base_totals),
                          ("current", cur_totals)):
        for ms, path in totals:
            print(f"note: {label} {path}: total host {ms:.2f}ms")
    base_best = min(base_totals)[0]
    cur_best = min(cur_totals)[0]
    if base_best <= 0:
        print("FAIL: baseline best total host time is zero")
        return 1
    overhead = (cur_best - base_best) / base_best
    summary = (f"best-of-{len(cur_totals)} total host "
               f"{base_best:.2f}ms -> {cur_best:.2f}ms "
               f"({overhead:+.1%}, tolerance {tolerance:.0%})")
    if overhead > tolerance:
        print(f"FAIL: aggregate host overhead: {summary}")
        return 1
    print(f"aggregate host overhead ok: {summary}")
    return 0


def check_host_speedup(base_runs, cur_runs, pes, minimum):
    """Aggregate host-time speedup gate at one PE count.

    Sums host_wall_ms across every series both reports measured at
    `pes` and fails when baseline/current falls below `minimum`.
    """
    base_total = 0.0
    cur_total = 0.0
    cells = 0
    for (series, cell_pes), base in sorted(base_runs.items()):
        if cell_pes != pes:
            continue
        cur = cur_runs.get((series, cell_pes))
        base_ms = base.get("host_wall_ms")
        cur_ms = cur.get("host_wall_ms") if cur else None
        if base_ms is None or cur_ms is None:
            print(f"FAIL: {series} @ {pes} PEs: host_wall_ms missing "
                  f"(rerun both sweeps with --host-time)")
            return 1
        base_total += base_ms
        cur_total += cur_ms
        cells += 1
        per_cell = base_ms / cur_ms if cur_ms > 0 else float("inf")
        print(f"note: {series} @ {pes} PEs: host "
              f"{base_ms:.2f}ms -> {cur_ms:.2f}ms ({per_cell:.2f}x)")
    if cells == 0:
        print(f"FAIL: no cells at {pes} PEs to aggregate")
        return 1
    speedup = base_total / cur_total if cur_total > 0 else float("inf")
    if speedup < minimum:
        print(f"FAIL: aggregate host speedup at {pes} PEs is "
              f"{speedup:.2f}x ({base_total:.2f}ms -> "
              f"{cur_total:.2f}ms), below the {minimum:.2f}x floor")
        return 1
    print(f"aggregate host speedup at {pes} PEs: {speedup:.2f}x "
          f"({base_total:.2f}ms -> {cur_total:.2f}ms) over "
          f"{cells} series, floor {minimum:.2f}x")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="max allowed fractional cycle regression "
                             "(default 0.10)")
    parser.add_argument("--host-tolerance", type=float, default=0.25,
                        help="max allowed fractional host_wall_ms "
                             "regression when both reports carry it "
                             "(default 0.25)")
    parser.add_argument("--host-aggregate", action="store_true",
                        help="gate --host-tolerance on the best-of-N "
                             "TOTAL host_wall_ms instead of per-cell "
                             "times; BASELINE and CURRENT may each be "
                             "a comma-separated list of repeated "
                             "reports (minimum total per side wins)")
    parser.add_argument("--min-host-speedup", type=float, default=None,
                        metavar="X",
                        help="speedup mode: require CURRENT's aggregate "
                             "host time at --speedup-pes to beat "
                             "BASELINE's by at least X times")
    parser.add_argument("--speedup-pes", type=int, default=8,
                        help="PE count the speedup gate aggregates "
                             "over (default 8)")
    args = parser.parse_args()

    # In aggregate mode each positional may list repeated reports; the
    # first of each side anchors the cycle checks, and later ones are
    # only admitted if their cycles agree (determinism cross-check).
    base_paths = args.baseline.split(",") if args.host_aggregate \
        else [args.baseline]
    cur_paths = args.current.split(",") if args.host_aggregate \
        else [args.current]
    try:
        base_reports = [(p, load_runs(p)) for p in base_paths]
        cur_reports = [(p, load_runs(p)) for p in cur_paths]
    except ReportError as err:
        print(f"bench_compare: {err}", file=sys.stderr)
        return 2
    base_doc, base_runs = base_reports[0][1]
    cur_doc, cur_runs = cur_reports[0][1]
    base_name = base_doc.get("bench", "?")
    cur_name = cur_doc.get("bench", "?")
    if base_name != cur_name:
        print(f"FAIL: comparing different benches "
              f"('{base_name}' vs '{cur_name}')")
        return 1

    failures = 0
    for side_runs, reps in ((base_runs, base_reports[1:]),
                            (cur_runs, cur_reports[1:])):
        for path, (_, rep_runs) in reps:
            for key, run in sorted(side_runs.items()):
                other = rep_runs.get(key)
                if other is None or \
                        other.get("cycles") != run.get("cycles"):
                    series, pes = key
                    print(f"FAIL: {path}: {series} @ {pes} PEs "
                          f"disagrees with its first repetition "
                          f"(nondeterministic sweep?)")
                    failures += 1
    for key in sorted(base_runs):
        series, pes = key
        base = base_runs[key]
        cell = f"{series} @ {pes} PEs"
        cur = cur_runs.get(key)
        if cur is None:
            print(f"FAIL: {cell}: missing from current report")
            failures += 1
            continue
        if not cur.get("verified", False):
            print(f"FAIL: {cell}: run no longer verifies")
            failures += 1
            continue
        base_cycles = base.get("cycles", 0)
        cur_cycles = cur.get("cycles", 0)
        if base_cycles <= 0:
            continue
        delta = (cur_cycles - base_cycles) / base_cycles
        if delta > args.tolerance:
            print(f"FAIL: {cell}: cycles {base_cycles} -> {cur_cycles} "
                  f"(+{delta:.1%} > {args.tolerance:.0%} tolerance)")
            failures += 1
        elif delta != 0:
            word = "slower" if delta > 0 else "faster"
            print(f"note: {cell}: cycles {base_cycles} -> {cur_cycles} "
                  f"({abs(delta):.1%} {word})")
        else:
            print(f"ok:   {cell}: {cur_cycles} cycles (unchanged)")
        # Host time is gated only when both sides measured it; a
        # committed (machine-independent) baseline never carries it.
        # Aggregate mode gates the totals instead - per-cell times on
        # the small sweeps are sub-millisecond, below runner noise.
        base_ms = base.get("host_wall_ms")
        cur_ms = cur.get("host_wall_ms")
        if not args.host_aggregate and \
                base_ms is not None and cur_ms is not None and \
                base_ms > 0:
            host_delta = (cur_ms - base_ms) / base_ms
            if host_delta > args.host_tolerance:
                print(f"FAIL: {cell}: host {base_ms:.2f}ms -> "
                      f"{cur_ms:.2f}ms (+{host_delta:.1%} > "
                      f"{args.host_tolerance:.0%} host tolerance)")
                failures += 1

    extra = sorted(set(cur_runs) - set(base_runs))
    for series, pes in extra:
        print(f"note: {series} @ {pes} PEs: new cell, no baseline")

    if failures:
        print(f"{failures} cell(s) regressed past tolerance; "
              f"if intentional, refresh the baseline "
              f"(tools/baselines/) in the same change")
        return 1
    print(f"all {len(base_runs)} baseline cells within tolerance")

    if args.host_aggregate:
        return check_host_aggregate(
            [(p, runs) for p, (_, runs) in base_reports],
            [(p, runs) for p, (_, runs) in cur_reports],
            args.host_tolerance)
    if args.min_host_speedup is not None:
        return check_host_speedup(base_runs, cur_runs,
                                  args.speedup_pes,
                                  args.min_host_speedup)
    return 0


if __name__ == "__main__":
    sys.exit(main())

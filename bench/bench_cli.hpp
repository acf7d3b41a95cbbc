/**
 * @file
 * Command line shared by the sweep benches (ch5 bus, ch6 speedup, ch6
 * ablation): `--jobs N` fans the independent simulations of a sweep
 * over N worker threads. The default (0) uses all hardware threads;
 * `--jobs 1` reproduces the historical serial run exactly. Reports in
 * either mode are identical - parallelism only changes wall-clock.
 * `--faults SPEC` (see fault::parseFaultPlan) runs the whole sweep
 * under seeded fault injection; the fault schedule depends only on
 * the spec, never on `--jobs`.
 * `--recover` enables the recovery layer (end-to-end retransmission,
 * heal, dedup, fail-stop re-dispatch, bounded checkpoint replay) and
 * `--checkpoint-every N` adds periodic snapshots on top of the boot
 * one. Recovered runs, like faulty ones, are identical for any
 * `--jobs` value.
 * `--metrics FILE` exports every run's full statistics registry
 * (counters, scalars, latency/occupancy histograms) as a
 * schema-versioned JSON document (see sim/metrics.hpp); the document
 * is byte-identical for any `--jobs` value.
 * `--trace-dir DIR` records a Chrome trace per run into
 * DIR/<name>-pe<N>.json (distinct paths, so it composes with
 * parallel sweeps; DIR must exist).
 * `--topology ring|ring:P|rings:KxM` overrides the ring-bus shape for
 * every run of the sweep (see mp::parseTopology); without it each
 * bench keeps its historical default.
 * `--max-pes N` drops sweep points above N PEs - the sanitizer CI leg
 * uses it to fit the partitioned sweep into its wall-clock budget.
 * `--core tick|event` selects the simulation core: `event` (default)
 * is the next-event calendar scheduler, `tick` the unit-tick scan it
 * replaced. Both produce byte-identical reports; tick exists for the
 * differential gate and for host-speed comparisons.
 * `--host-time` adds host_wall_ms / sim_cycles_per_sec to the BENCH
 * JSON. Off by default because those fields are machine-dependent and
 * the default document must stay byte-stable.
 * `--resume-dir DIR` makes the sweep crash-safe resumable: every
 * finished run is appended (fsync'd) to DIR/<series>.journal, and a
 * re-run after a mid-sweep kill replays the journaled rows instead of
 * re-simulating them - final stdout and BENCH/metrics JSON are
 * byte-identical to a sweep that was never interrupted. DIR must
 * exist. A journal for a different sweep configuration is refused.
 * `--deadline-ms N` bounds each run's host wall-clock time; a run
 * that exceeds it becomes a structured `deadline:` failed row instead
 * of wedging the sweep.
 * `--telemetry FILE` streams every run's live qm.telemetry.v1 NDJSON
 * snapshots (one line every `--telemetry-every N` simulated cycles,
 * default 1000) into FILE. Runs buffer their lines and the bench
 * writes them in spec order after the sweep, so the file is
 * byte-identical for any `--jobs` value and across a
 * journal resume.
 * With `--resume-dir DIR` the flight recorder also lands per-run
 * black boxes in DIR: a run-start marker before each simulation and
 * a full qm.flight.v1 dump on any structured failure, so a killed or
 * failing sweep leaves machine-readable evidence next to its journal.
 * Benches install a SIGINT/SIGTERM handler: on the first signal the
 * running simulations wind down, finished rows are already durable in
 * the journal, and the bench exits 128+signo after flushing.
 */
#pragma once

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "mp/system.hpp"
#include "sim/experiment.hpp"
#include "support/cli.hpp"
#include "support/shutdown.hpp"

namespace qm::benchcli {

/** Parsed sweep-bench command line. */
struct BenchArgs
{
    bool ok = true;  ///< False after a usage error (exit 2).
    int jobs = 0;    ///< 0 = all hardware threads.
    fault::FaultPlan faults{};      ///< Disabled unless --faults given.
    fault::RecoveryPlan recovery{}; ///< Disabled unless --recover given.
    std::string metricsPath;        ///< Empty = no metrics export.
    std::string traceDir;           ///< Empty = no per-run traces.
    mp::SimCore core = mp::SimCore::Event; ///< --core tick|event.
    bool hostTime = false;          ///< --host-time in BENCH JSON.
    bool topologyGiven = false;     ///< --topology present.
    mp::RingTopology topology{};    ///< Parsed --topology value.
    int maxPes = 0;                 ///< 0 = no cap on sweep points.
    std::string resumeDir;          ///< Empty = no completion journal.
    long deadlineMs = 0;            ///< 0 = no per-run deadline.
    std::string telemetryPath;      ///< Empty = no telemetry stream.
    long telemetryEvery = 1000;     ///< Cycles between snapshots.

    /**
     * Where the sweep labelled @p label keeps its journal and flight
     * black boxes (see sim::RunPolicy): both land in --resume-dir.
     */
    sim::RunPolicy
    runPolicy(std::string label = "") const
    {
        return {resumeDir, std::move(label)};
    }

    /**
     * Fold the flags every run of the sweep shares (faults, recovery,
     * core, deadline, telemetry cadence) into @p config.
     */
    void
    applyTo(mp::SystemConfig &config) const
    {
        config.faultPlan = faults;
        config.recovery = recovery;
        config.core = core;
        config.hostDeadlineMs = deadlineMs;
        if (!telemetryPath.empty())
            config.telemetryEvery = telemetryEvery;
    }
};

/**
 * Write every run's buffered telemetry lines to --telemetry FILE in
 * spec order (byte-identical for any --jobs value). No-op without the
 * flag; prints the "wrote" breadcrumb on success, a stderr diagnostic
 * on an unwritable path (the sweep's results are already out, so a
 * bad telemetry path does not fail the bench).
 */
inline void
writeTelemetryStream(const BenchArgs &args, const char *bench_name,
                     const std::vector<sim::SpeedupSeries> &all)
{
    if (args.telemetryPath.empty())
        return;
    std::ofstream out(args.telemetryPath,
                      std::ios::out | std::ios::trunc);
    if (!out) {
        std::cerr << bench_name << ": cannot open telemetry file "
                  << args.telemetryPath << "\n";
        return;
    }
    for (const sim::SpeedupSeries &series : all)
        for (const sim::RunReport &run : series.runs)
            out << run.telemetry;
    std::cout << "wrote " << args.telemetryPath << "\n";
}

/**
 * Exit status for a finished sweep: 128+signo when a shutdown signal
 * interrupted it (after flushing), otherwise 0. Call last, after every
 * report/JSON flush.
 */
inline int
benchExitCode()
{
    int sig = support::shutdownSignal();
    return sig > 0 ? 128 + sig : 0;
}

/**
 * Parse argv for the flags listed in the file comment. On malformed or
 * unknown arguments prints a one-line diagnostic (a usage line for an
 * unknown flag) and returns ok=false.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv, const char *bench_name)
{
    // First signal = wind down and flush; second = die immediately.
    support::installShutdownSignals();
    BenchArgs args;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--jobs" && i + 1 < argc) {
                args.jobs = parsePositiveIntArg(argv[++i], "--jobs",
                                                /*max=*/1024);
            } else if (arg == "--faults" && i + 1 < argc) {
                args.faults = fault::parseFaultPlan(argv[++i]);
            } else if (arg == "--metrics" && i + 1 < argc) {
                args.metricsPath = argv[++i];
            } else if (arg == "--trace-dir" && i + 1 < argc) {
                args.traceDir = argv[++i];
            } else if (arg == "--recover") {
                args.recovery.enabled = true;
            } else if (arg == "--core" && i + 1 < argc) {
                std::string core = argv[++i];
                if (core == "tick") {
                    args.core = mp::SimCore::Tick;
                } else if (core == "event") {
                    args.core = mp::SimCore::Event;
                } else {
                    std::cerr << bench_name << ": --core expects 'tick' "
                                 "or 'event', got '" << core << "'\n";
                    args.ok = false;
                    return args;
                }
            } else if (arg == "--host-time") {
                args.hostTime = true;
            } else if (arg == "--topology" && i + 1 < argc) {
                args.topology = mp::parseTopology(argv[++i]);
                args.topologyGiven = true;
            } else if (arg == "--max-pes" && i + 1 < argc) {
                args.maxPes = parsePositiveIntArg(argv[++i], "--max-pes",
                                                  /*max=*/4096);
            } else if (arg == "--resume-dir" && i + 1 < argc) {
                args.resumeDir = argv[++i];
            } else if (arg == "--deadline-ms" && i + 1 < argc) {
                args.deadlineMs = parsePositiveIntArg(
                    argv[++i], "--deadline-ms", /*max=*/1'000'000'000);
            } else if (arg == "--telemetry" && i + 1 < argc) {
                args.telemetryPath = argv[++i];
            } else if (arg == "--telemetry-every" && i + 1 < argc) {
                args.telemetryEvery = parsePositiveIntArg(
                    argv[++i], "--telemetry-every", /*max=*/1'000'000'000);
            } else if (arg == "--checkpoint-every" && i + 1 < argc) {
                args.recovery.checkpointEvery = parsePositiveIntArg(
                    argv[++i], "--checkpoint-every",
                    /*max=*/1'000'000'000);
                args.recovery.enabled = true;
            } else {
                std::cerr << "usage: " << bench_name
                          << " [--jobs N] [--faults SPEC] [--recover] "
                             "[--checkpoint-every N] [--metrics FILE] "
                             "[--trace-dir DIR] [--core tick|event] "
                             "[--topology SPEC] [--max-pes N] "
                             "[--host-time] "
                             "[--resume-dir DIR] [--deadline-ms N] "
                             "[--telemetry FILE] [--telemetry-every N]\n";
                args.ok = false;
                return args;
            }
        }
    } catch (const FatalError &e) {
        std::cerr << bench_name << ": " << e.what() << "\n";
        args.ok = false;
    }
    return args;
}

} // namespace qm::benchcli

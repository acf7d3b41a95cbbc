/**
 * @file
 * Command line and report tail shared by the four sweep benches (ch5
 * bus, ch6 speedup, ch6 ablation, partitioned): `--jobs N` fans the
 * independent simulations of a sweep over N worker threads. The
 * default (0) uses all hardware threads; `--jobs 1` reproduces the
 * historical serial run exactly. Reports in either mode are
 * identical - parallelism only changes wall-clock.
 * sim::RunFlags parses the run flags shared with occamc.
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
 * DIR/<name>[-<tag>]-pe<N>.json (see sim::traceRun: distinct paths,
 * so it composes with parallel sweeps; DIR must exist).
 * bench_partitioned alone takes `--topology ring|ring:P|rings:KxM`
 * (one shape instead of its list, see mp::parseTopology) and
 * `--max-pes N` (drops sweep points above N PEs, so the sanitizer CI
 * leg fits the sweep into its wall-clock budget).
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
 * a full qm.flight.v1 dump on any failure, so a killed or
 * failing sweep leaves machine-readable evidence next to its journal.
 * Benches install a SIGINT/SIGTERM handler: on the first signal the
 * running simulations wind down, finished rows are already durable in
 * the journal, and the bench exits 128+signo after flushing.
 * A sweep that fails on its own, such as on an output path it cannot
 * open, prints `bench_<name>: <what>` and exits 6, like occamc.
 */
#pragma once

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "mp/system.hpp"
#include "sim/bench_json.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "support/cli.hpp"
#include "support/shutdown.hpp"

namespace qm::benchcli {

/** Parsed sweep-bench command line. */
struct BenchArgs : sim::RunFlags
{
    bool ok = true;  ///< False after a usage error (exit 2).
    int jobs = 0;    ///< 0 = all hardware threads.
    std::string traceDir;           ///< Empty = no per-run traces.
    bool hostTime = false;          ///< --host-time in BENCH JSON.
    bool topologyGiven = false;     ///< --topology present.
    mp::RingTopology topology{};    ///< Parsed --topology value.
    int maxPes = 0;                 ///< 0 = no cap on sweep points.
    std::string resumeDir;          ///< Empty = no completion journal.

    /**
     * Where the sweep labelled @p label keeps its journal and flight
     * black boxes (see sim::RunPolicy): both land in --resume-dir.
     */
    sim::RunPolicy
    runPolicy(std::string label = "") const
    {
        return {resumeDir, std::move(label)};
    }
};

/**
 * Parse argv for the flags listed in the file comment; --topology and
 * --max-pes only when @p scale_study (bench_partitioned). On malformed
 * or unknown arguments prints a one-line diagnostic (a usage line for
 * an unknown flag) and returns ok=false.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv, const char *bench_name,
               bool scale_study = false)
{
    // First signal = wind down and flush; second = die immediately.
    support::installShutdownSignals();
    BenchArgs args;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (args.parse(i, argc, argv))
                continue;
            if (!scale_study && (arg == "--topology" || arg == "--max-pes"))
                fatal(arg, " applies only to bench_partitioned");
            if (arg == "--jobs" && i + 1 < argc) {
                args.jobs = parsePositiveIntArg(argv[++i], "--jobs",
                                                /*max=*/1024);
            } else if (arg == "--trace-dir" && i + 1 < argc) {
                args.traceDir = argv[++i];
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
            } else {
                std::cerr << "usage: " << bench_name
                          << " [--jobs N] [--faults SPEC] [--recover] "
                             "[--checkpoint-every N] [--metrics FILE] "
                             "[--trace-dir DIR] "
                          << (scale_study ? "[--topology SPEC] "
                                            "[--max-pes N] "
                                          : "")
                          << "[--host-time] "
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

/** Exit code of a sweep a FatalError ended (occamc's kExitFatal). */
constexpr int kExitFatal = 6;

/**
 * The main of a sweep bench: parse argv with parseBenchArgs (exit 2
 * on a usage error), then return @p sweep(args). A FatalError that
 * escapes the sweep, on a worker thread too, prints one diagnostic
 * line and exits kExitFatal.
 */
template <typename Sweep>
int
benchMain(int argc, char **argv, const char *bench_name, Sweep sweep,
          bool scale_study = false)
{
    BenchArgs args = parseBenchArgs(argc, argv, bench_name, scale_study);
    if (!args.ok)
        return 2;
    try {
        return sweep(args);
    } catch (const FatalError &e) {
        std::cerr << bench_name << ": " << e.what() << "\n";
        return kExitFatal;
    }
}

/**
 * Print the notes under a sweep table: one line per failed run, then
 * per recovered run, then per truncated trace; @p label(i) names
 * runs[i] ("PEs=4").
 */
template <typename Label>
void
printRunNotes(const std::vector<sim::RunReport> &runs, Label label)
{
    for (std::size_t i = 0; i < runs.size(); ++i)
        if (!runs[i].failureReason.empty())
            std::cout << "  " << label(i)
                      << " failed: " << runs[i].failureReason << "\n";
    for (std::size_t i = 0; i < runs.size(); ++i)
        if (runs[i].recovered)
            std::cout << "  " << label(i) << " recovered after "
                      << runs[i].replays << " checkpoint replay(s)\n";
    for (std::size_t i = 0; i < runs.size(); ++i)
        if (runs[i].traceDropped > 0)
            std::cout << "  " << label(i)
                      << " WARNING: trace truncated ("
                      << runs[i].traceDropped
                      << " events dropped past the cap)\n";
}

/**
 * End a sweep: write BENCH_<name>.json, --metrics and --telemetry,
 * each with its "wrote" line (an unwritable telemetry path is only a
 * stderr diagnostic). Returns 128+signo when a shutdown signal
 * interrupted the sweep, otherwise 0.
 */
inline int
finishSweep(const BenchArgs &args, const std::string &name,
            const std::vector<sim::SpeedupSeries> &all)
{
    std::cout << "wrote "
              << sim::writeBenchJson(name, all, "", args.hostTime)
              << "\n";
    if (!args.metricsPath.empty()) {
        std::string where =
            sim::writeMetricsJson(name, all, args.metricsPath);
        if (args.metricsPath != "-")
            std::cout << "wrote " << where << "\n";
    }
    if (!args.telemetryPath.empty()) {
        std::ofstream out(args.telemetryPath,
                          std::ios::out | std::ios::trunc);
        for (const sim::SpeedupSeries &series : all)
            for (const sim::RunReport &run : series.runs)
                out << run.telemetry;
        if (out)
            std::cout << "wrote " << args.telemetryPath << "\n";
        else
            std::cerr << "bench_" << name << ": cannot open telemetry "
                      << "file " << args.telemetryPath << "\n";
    }
    int sig = support::shutdownSignal();
    return sig > 0 ? 128 + sig : 0;
}

} // namespace qm::benchcli

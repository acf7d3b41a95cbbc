/**
 * @file
 * Experiment runner for the Chapter 6 simulation study: compiles an
 * OCCAM benchmark, runs it at a given PE count, verifies the result
 * against the reference, and reports the statistics the thesis tables
 * record (instructions, contexts, channel transfers, cycles,
 * throughput ratio, PE utilization).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mp/system.hpp"
#include "occam/compiler.hpp"
#include "support/stats.hpp"

namespace qm::sim {

/**
 * Statistics of one benchmark run (one thesis table row): the
 * simulator's mp::RunResult plus what the experiment runner adds.
 */
struct RunReport : mp::RunResult
{
    int pes = 0;
    bool verified = false;   ///< Completed AND produced the reference.

    /**
     * Served from a previous sweep's completion journal instead of
     * being re-simulated (see RunPolicy). Host-aborted rows (deadline
     * or SIGINT/SIGTERM) are never journaled, because the abort point
     * depends on the wall clock, not on the simulation.
     */
    bool journalReplayed = false;

    /**
     * The run's complete statistics registry (counters, scalars, and
     * the latency/occupancy histograms), copied out of the run's
     * mp::System so the metrics exporter can see past the summary
     * fields above. Empty when the run died before finalizing.
     */
    StatSet stats;

    // Host-side simulator performance: wall-clock time for this run
    // (System construction + run, checkpoint replays included, on
    // a steady clock) and the derived simulated-cycles-per-host-second
    // rate. These describe the simulator, not the simulated machine -
    // they are machine-dependent and excluded from every determinism
    // comparison; BENCH JSON only carries them under --host-time.
    double hostWallMs = -1.0;
    double simCyclesPerSec = -1.0;

    /**
     * Buffered live-telemetry stream (qm.telemetry.v1 NDJSON lines,
     * see sim/telemetry.hpp). Runs buffer instead of streaming so a
     * parallel sweep (--jobs) can write every run's lines in spec
     * order after the fact, keeping the stream file byte-identical
     * for any job count. Empty unless telemetryEvery was armed.
     */
    std::string telemetry;

    /**
     * Path of the qm.flight.v1 black-box dump this run wrote, if the
     * run failed with a flight path armed (empty otherwise). Journaled
     * with the row, so a resumed sweep still points at the evidence.
     */
    std::string flightDumpPath;
};

/** One benchmark swept over PE counts. */
struct SpeedupSeries
{
    std::string name;
    std::vector<RunReport> runs;  ///< Indexed by sweep position.

    /** Throughput ratio vs the 1-PE run (thesis Figs 6.8-6.12). */
    double ratio(std::size_t index) const;
};

/**
 * One simulation to execute: a compiled program (shared read-only
 * across runs; the pointee must outlive runAll), the verification
 * reference, and the machine configuration. Each executed spec gets
 * its own mp::System - and with it its own Memory, Tracer, RingBus,
 * MessageCache, and StatSet - so specs are fully isolated from each
 * other and safe to run on concurrent threads.
 */
struct RunSpec
{
    const occam::CompiledProgram *program = nullptr;
    std::string resultArray;
    std::vector<std::int32_t> expected;
    int pes = 1;
    mp::SystemConfig config{};
};

/**
 * Where runAll keeps a sweep's crash-safety files. All-default means
 * no journal and no flight-recorder files.
 */
struct RunPolicy
{
    /**
     * Directory for the sweep's files (empty disables both):
     * - the completion journal <dir>/<sanitized-label>.journal (see
     *   sim::SweepJournal). Rows a previous sweep already journaled
     *   are replayed byte-identically instead of re-simulated; a valid
     *   journal for a *different* sweep is refused (fatal), a corrupt
     *   one is recreated from scratch with a stderr notice;
     * - one flight-recorder black box per executed spec,
     *   <dir>/<sanitized-label>-r<index>-pe<N>.flight.json: a minimal
     *   "run-start" marker is written before the run (so a kill -9
     *   that lands mid-run still leaves a parseable qm.flight.v1
     *   document), and the run overwrites it with a full dump on any
     *   failure.
     */
    std::string dir;

    /** Names those files; folded into the journal fingerprint. */
    std::string label;
};

/**
 * Execute every spec across @p jobs worker threads and return the
 * reports in spec order. The sweep grid is a set of independent
 * simulations, so the reports are identical for any job count:
 * jobs <= 1 runs inline on the calling thread (the historical serial
 * behavior), jobs == 0 uses all hardware threads. Tracing composes
 * with parallelism as long as no two traced specs share the same
 * Chrome trace output path (they would race on it); duplicate paths
 * are refused when workers > 1.
 *
 * With a @p policy directory, finished rows are appended to the
 * completion journal as they complete and previously-journaled rows
 * are replayed without re-simulation, so a sweep killed mid-flight
 * resumes where it left off yet emits byte-identical reports. After
 * a shutdown signal (support::shutdownRequested) remaining specs are
 * returned as structured `interrupted:` rows instead of being run.
 */
std::vector<RunReport> runAll(const std::vector<RunSpec> &specs,
                              int jobs, const RunPolicy &policy);
std::vector<RunReport> runAll(const std::vector<RunSpec> &specs,
                              int jobs = 1);

/** "my bench!" -> "my-bench" (filesystem-safe trace file stem). */
std::string sanitizeFileStem(const std::string &name);

/**
 * Trace @p spec's run into <dir>/<sanitized stem><tag>-pe<N>.json
 * (no-op when @p dir is empty); @p tag names what else the sweep
 * varies, so each traced spec writes its own file.
 */
void traceRun(RunSpec &spec, const std::string &dir,
              const std::string &stem, const std::string &tag = "");

/**
 * The run flags occamc and the sweep benches share: --faults,
 * --recover, --checkpoint-every, --metrics, --deadline-ms,
 * --telemetry and --telemetry-every.
 */
struct RunFlags
{
    fault::FaultPlan faults{};      ///< Disabled unless --faults given.
    fault::RecoveryPlan recovery{}; ///< Disabled unless --recover given.
    std::string metricsPath;        ///< Empty = no metrics export.
    long deadlineMs = 0;            ///< 0 = no host deadline.
    std::string telemetryPath;      ///< Empty = no telemetry stream.
    long telemetryEvery = 1000;     ///< Cycles between snapshots.

    /**
     * Consume argv[i] (and its value, advancing @p i) if it is one of
     * these flags; false otherwise. Throws FatalError on a bad value.
     */
    bool parse(int &i, int argc, char **argv);

    /** Fold the flags into every run's @p config. */
    void applyTo(mp::SystemConfig &config) const;
};

/**
 * Compile @p source once per configuration and run it at every PE
 * count in @p pe_counts, checking @p expected in @p result_array.
 * The independent runs are fanned over @p jobs threads (see runAll);
 * the resulting series is identical for any job count.
 *
 * When @p trace_dir is non-empty, every run records a full event
 * trace into its own file there (see traceRun).
 */
SpeedupSeries
runSpeedupSweep(const std::string &name, const std::string &source,
                const std::string &result_array,
                const std::vector<std::int32_t> &expected,
                const std::vector<int> &pe_counts,
                const occam::CompileOptions &options = {},
                const mp::SystemConfig &base_config = {},
                int jobs = 1, const std::string &trace_dir = "",
                const RunPolicy &policy = {});

/** Single run helper used by the sweep and the ablation bench. */
RunReport runOnce(const occam::CompiledProgram &program,
                  const std::string &result_array,
                  const std::vector<std::int32_t> &expected, int pes,
                  const mp::SystemConfig &base_config = {});

} // namespace qm::sim

#include "sim/experiment.hpp"

#include <cctype>
#include <chrono>
#include <iostream>
#include <set>

#include "obs/flight.hpp"
#include "sim/journal.hpp"
#include "sim/telemetry.hpp"
#include "support/cli.hpp"
#include "support/diagnostics.hpp"
#include "support/format.hpp"
#include "support/shutdown.hpp"
#include "support/thread_pool.hpp"
#include "trace/export.hpp"

namespace qm::sim {

double
SpeedupSeries::ratio(std::size_t index) const
{
    panicIf(runs.empty(), "empty speed-up series");
    panicIf(index >= runs.size(), "speed-up index ", index,
            " out of range (", runs.size(), " runs)");
    panicIf(runs[index].cycles == 0,
            "speed-up ratio against a zero-cycle run (index ", index,
            "): run never executed or timed out before any work");
    double base = static_cast<double>(runs.front().cycles);
    return base / static_cast<double>(runs[index].cycles);
}

RunReport
runOnce(const occam::CompiledProgram &program,
        const std::string &result_array,
        const std::vector<std::int32_t> &expected, int pes,
        const mp::SystemConfig &base_config)
{
    // Host-side cost of the whole simulation, construction included:
    // allocating the simulated memory is part of what the run costs
    // the host.
    auto host_start = std::chrono::steady_clock::now();
    mp::SystemConfig config = base_config;
    config.numPes = pes;
    mp::System system(program.object, config);

    RunReport report;
    report.pes = pes;
    // Buffer the live telemetry stream into the report instead of
    // writing it here: the sweep writes every run's lines in spec
    // order afterwards, so the stream file is --jobs-independent.
    if (config.telemetryEvery > 0) {
        std::string label = config.telemetryLabel;
        system.setTelemetrySink(
            [&report, label, pes](mp::System &sys, mp::Cycle cycle) {
                report.telemetry += telemetryLine(label, pes, cycle,
                                                  sys.statsSnapshot());
            });
    }
    // A run that dies (e.g. kernel deadlock panic) still yields a
    // report row: the sweep survives and records the failure.
    bool died = true;
    try {
        static_cast<mp::RunResult &>(report) =
            system.run(program.mainLabel);
        died = false;
    } catch (const FatalError &e) {
        report.failureReason = e.what();
    } catch (const PanicError &e) {
        report.failureReason = e.what();
    }
    // System dumped the black box on every failure, thrown or
    // structured; the report just records where it landed.
    if (!report.completed && !config.flightPath.empty())
        report.flightDumpPath = config.flightPath;
    std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - host_start;
    report.hostWallMs = elapsed.count();
    if (report.hostWallMs > 0.0 && report.cycles > 0)
        report.simCyclesPerSec = static_cast<double>(report.cycles) /
                                 (report.hostWallMs / 1000.0);
    if (died)
        return report;
    report.stats = system.stats();
    report.verified = report.completed;
    if (report.verified && !expected.empty()) {
        isa::Addr base = program.arrayAddress(result_array);
        for (std::size_t i = 0; i < expected.size(); ++i) {
            auto got = static_cast<std::int32_t>(system.memory().readWord(
                base + static_cast<isa::Addr>(i) * 4));
            if (got != expected[i]) {
                report.verified = false;
                break;
            }
        }
    }
    if (config.traceConfig.enabled &&
        !config.traceConfig.chromeJsonPath.empty())
        trace::writeChromeTraceFile(config.traceConfig.chromeJsonPath,
                                    system.tracer());
    return report;
}

std::vector<RunReport>
runAll(const std::vector<RunSpec> &specs, int jobs,
       const RunPolicy &policy)
{
    unsigned workers = jobs < 1 ? defaultWorkers()
                                : static_cast<unsigned>(jobs);
    if (workers > 1) {
        // Tracing and parallelism compose as long as no two traced
        // specs write the same file; only a shared path would race.
        std::set<std::string> trace_paths;
        for (const RunSpec &spec : specs) {
            if (!spec.config.traceConfig.enabled ||
                spec.config.traceConfig.chromeJsonPath.empty())
                continue;
            fatalIf(
                !trace_paths.insert(spec.config.traceConfig.chromeJsonPath)
                     .second,
                "two traced specs share the trace file '",
                spec.config.traceConfig.chromeJsonPath,
                "' and would race under a parallel sweep; give each "
                "spec its own path (or run with jobs=1)");
        }
    }

    std::string journal_path;
    SweepJournal journal;
    if (!policy.dir.empty()) {
        journal_path = cat(policy.dir, "/", sanitizeFileStem(policy.label),
                           ".journal");
        persist::Status st = journal.open(journal_path, policy.label, specs);
        // A valid journal for a *different* sweep means the caller
        // pointed --resume-dir at stale results; replaying them would
        // be silently wrong, so refuse loudly.
        fatalIf(!st.ok(), "sweep journal '", journal_path,
                "': ", st.toString());
        if (journal.recreated())
            std::cerr << "[journal] " << journal_path
                      << ": corrupt header, starting a fresh journal\n";
        else if (journal.completedCount() > 0)
            std::cerr << "[journal] " << journal_path << ": replaying "
                      << journal.completedCount() << "/" << specs.size()
                      << " completed runs\n";
    }

    std::vector<RunReport> reports(specs.size());
    parallelFor(specs.size(), workers, [&](std::size_t i) {
        const RunSpec &spec = specs[i];
        panicIf(spec.program == nullptr, "RunSpec without a program");
        if (journal.has(i)) {
            reports[i] = journal.get(i);
            return;
        }
        if (support::shutdownRequested()) {
            // Wind-down: specs not yet started become structured
            // interrupted rows (never journaled - they never ran).
            RunReport report;
            report.pes = spec.pes;
            report.hostAborted = true;
            report.failureReason =
                cat("interrupted: ", support::shutdownSignalName(),
                    " received before this run started");
            reports[i] = report;
            return;
        }
        mp::SystemConfig config = spec.config;
        if (!policy.dir.empty() && config.flightPath.empty()) {
            std::string stem =
                policy.label.empty() ? std::string("run") : policy.label;
            // The spec index keeps paths unique even when a sweep
            // varies something other than the PE count (ablation
            // variants, bus partitions).
            config.flightPath =
                cat(policy.dir, "/", sanitizeFileStem(stem), "-r", i,
                    "-pe", spec.pes, ".flight.json");
            // Drop a minimal marker before the run starts: a kill -9
            // that lands mid-simulation still leaves a parseable
            // qm.flight.v1 document saying a run began here. A
            // structured failure overwrites it with the full dump.
            obs::writeFlightMarker(config.flightPath, "run-start");
        }
        const RunReport &report = reports[i] =
            runOnce(*spec.program, spec.resultArray, spec.expected,
                    spec.pes, config);
        // Host-aborted rows are wall-clock artifacts, not results;
        // journaling one would replay a non-deterministic outcome.
        if (journal.isOpen() && !report.hostAborted) {
            persist::Status st = journal.record(i, report);
            if (!st.ok())
                std::cerr << "[journal] " << journal_path
                          << ": append failed (" << st.toString()
                          << "); sweep continues non-resumable\n";
        }
    });
    return reports;
}

std::vector<RunReport>
runAll(const std::vector<RunSpec> &specs, int jobs)
{
    return runAll(specs, jobs, RunPolicy{});
}

std::string
sanitizeFileStem(const std::string &name)
{
    std::string stem;
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
            c == '_' || c == '.')
            stem += c;
        else if (!stem.empty() && stem.back() != '-')
            stem += '-';
    }
    while (!stem.empty() && stem.back() == '-')
        stem.pop_back();
    return stem.empty() ? "bench" : stem;
}

void
traceRun(RunSpec &spec, const std::string &dir, const std::string &stem,
         const std::string &tag)
{
    if (dir.empty())
        return;
    spec.config.traceConfig.enabled = true;
    spec.config.traceConfig.chromeJsonPath = cat(
        dir, "/", sanitizeFileStem(stem), tag, "-pe", spec.pes, ".json");
}

bool
RunFlags::parse(int &i, int argc, char **argv)
{
    const std::string arg = argv[i];
    if (arg == "--recover") {
        recovery.enabled = true;
        return true;
    }
    if (i + 1 >= argc)
        return false;
    const char *value = argv[i + 1];
    constexpr long kMax = 1'000'000'000;
    if (arg == "--faults") {
        faults = fault::parseFaultPlan(value);
    } else if (arg == "--checkpoint-every") {
        recovery.checkpointEvery = parsePositiveIntArg(value, arg, kMax);
        recovery.enabled = true;
    } else if (arg == "--metrics") {
        metricsPath = value;
    } else if (arg == "--deadline-ms") {
        deadlineMs = parsePositiveIntArg(value, arg, kMax);
    } else if (arg == "--telemetry") {
        telemetryPath = value;
    } else if (arg == "--telemetry-every") {
        telemetryEvery = parsePositiveIntArg(value, arg, kMax);
    } else {
        return false;
    }
    ++i;
    return true;
}

void
RunFlags::applyTo(mp::SystemConfig &config) const
{
    config.faultPlan = faults;
    config.recovery = recovery;
    config.hostDeadlineMs = deadlineMs;
    if (!telemetryPath.empty())
        config.telemetryEvery = telemetryEvery;
}

SpeedupSeries
runSpeedupSweep(const std::string &name, const std::string &source,
                const std::string &result_array,
                const std::vector<std::int32_t> &expected,
                const std::vector<int> &pe_counts,
                const occam::CompileOptions &options,
                const mp::SystemConfig &base_config, int jobs,
                const std::string &trace_dir, const RunPolicy &policy)
{
    occam::CompiledProgram program = occam::compileOccam(source, options);
    std::vector<RunSpec> specs;
    specs.reserve(pe_counts.size());
    for (int pes : pe_counts) {
        RunSpec spec;
        spec.program = &program;
        spec.resultArray = result_array;
        spec.expected = expected;
        spec.pes = pes;
        spec.config = base_config;
        if (spec.config.telemetryEvery > 0 &&
            spec.config.telemetryLabel.empty())
            spec.config.telemetryLabel = name;
        traceRun(spec, trace_dir, name);
        specs.push_back(std::move(spec));
    }
    SpeedupSeries series;
    series.name = name;
    RunPolicy run_policy = policy;
    if (run_policy.label.empty())
        run_policy.label = name;
    series.runs = runAll(specs, jobs, run_policy);
    return series;
}

} // namespace qm::sim

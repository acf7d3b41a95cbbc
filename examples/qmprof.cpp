/**
 * @file
 * qmprof - trace analyzer for the queue-machine simulator.
 *
 * Usage: qmprof [--top K] [--buckets N] trace.json
 *        qmprof [--top K] [--buckets N] --run file.occ [--pes N]
 *        qmprof diff [--tolerance F] [--host-tolerance F]
 *                    [--host-aggregate] [--quiet]
 *                    baseline.json current.json
 *        qmprof flight [--last N] dump.flight.json
 *
 * The first form re-ingests a Chrome trace_event JSON file written by
 * occamc --trace (or a bench --trace-dir sweep) and prints the qmprof
 * report: the run's critical path (the chain of run spans and blocked
 * gaps its length hinged on), the top-K contexts by blocked time with
 * park-reason attribution, per-PE bucketed utilization timelines, and
 * a deadlock/starvation digest of contexts that never finished.
 *
 * The second form compiles and runs an OCCAM program with tracing
 * enabled and analyzes the live event stream directly - no trace file
 * needed. Both forms are deterministic: the same trace (or the same
 * program at the same PE count) always prints the same report.
 *
 * `qmprof diff` compares two qm.metrics.v1 or BENCH JSON documents
 * (baseline first) and prints per-run metric deltas, histogram
 * percentile divergence, and a regression verdict per cell (see
 * obs::DiffOptions for the gates; every CI gate runs through it).
 * Exit 0 = within tolerance, 1 = regression, 2 = unreadable input.
 *
 * `qmprof flight` ingests a qm.flight.v1 black-box dump (written
 * automatically by any failed occamc/bench run) and prints the
 * last-N-cycles event timeline per ring, blocked-context attribution,
 * and a probable-cause digest. Exit 2 = not a flight dump.
 */
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "mp/system.hpp"
#include "obs/analytics.hpp"
#include "occam/compiler.hpp"
#include "support/cli.hpp"
#include "trace/analyze.hpp"

namespace {

int
usage()
{
    std::cerr << "usage: qmprof [--top K] [--buckets N] trace.json\n"
                 "       qmprof [--top K] [--buckets N] --run file.occ "
                 "[--pes N]\n"
                 "       qmprof diff [--tolerance F] "
                 "[--host-tolerance F] [--host-aggregate] [--quiet] "
                 "baseline.json current.json\n"
                 "       qmprof flight [--last N] dump.flight.json\n";
    return 2;
}

/** `qmprof diff baseline.json current.json`: cross-run analytics. */
int
mainDiff(int argc, char **argv)
{
    qm::obs::DiffOptions options;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        try {
            if (arg == "--tolerance" && i + 1 < argc) {
                options.tolerance =
                    qm::parseNonNegativeDoubleArg(argv[++i],
                                                  "--tolerance");
            } else if (arg == "--host-tolerance" && i + 1 < argc) {
                options.hostTolerance =
                    qm::parseNonNegativeDoubleArg(argv[++i],
                                                  "--host-tolerance");
            } else if (arg == "--host-aggregate") {
                options.hostAggregate = true;
            } else if (arg == "--quiet") {
                options.showMetrics = false;
            } else if (!arg.empty() && arg[0] != '-') {
                paths.push_back(arg);
            } else {
                return usage();
            }
        } catch (const qm::FatalError &e) {
            std::cerr << "qmprof: " << e.what() << "\n";
            return usage();
        }
    }
    if (paths.size() != 2)
        return usage();
    return qm::obs::diffReports(paths[0], paths[1], options, std::cout,
                                std::cerr);
}

/** `qmprof flight dump.flight.json`: black-box post-mortem. */
int
mainFlight(int argc, char **argv)
{
    qm::obs::FlightOptions options;
    std::string path;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        try {
            if (arg == "--last" && i + 1 < argc) {
                options.lastEvents = qm::parsePositiveIntArg(
                    argv[++i], "--last", /*max=*/100000);
            } else if (!arg.empty() && arg[0] != '-') {
                path = arg;
            } else {
                return usage();
            }
        } catch (const qm::FatalError &e) {
            std::cerr << "qmprof: " << e.what() << "\n";
            return usage();
        }
    }
    if (path.empty())
        return usage();
    return qm::obs::analyzeFlight(path, options, std::cout, std::cerr);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::string(argv[1]) == "diff")
        return mainDiff(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "flight")
        return mainFlight(argc, argv);
    bool run = false;
    int pes = 2;
    qm::trace::AnalyzeOptions options;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        try {
            if (arg == "--run") {
                run = true;
            } else if (arg == "--pes" && i + 1 < argc) {
                pes = qm::parsePositiveIntArg(argv[++i], "--pes",
                                              /*max=*/4096);
            } else if (arg == "--top" && i + 1 < argc) {
                options.topK = qm::parsePositiveIntArg(argv[++i],
                                                       "--top",
                                                       /*max=*/100000);
            } else if (arg == "--buckets" && i + 1 < argc) {
                options.timelineBuckets = qm::parsePositiveIntArg(
                    argv[++i], "--buckets", /*max=*/1024);
            } else if (!arg.empty() && arg[0] != '-') {
                path = arg;
            } else {
                return usage();
            }
        } catch (const qm::FatalError &e) {
            std::cerr << "qmprof: " << e.what() << "\n";
            return usage();
        }
    }
    if (path.empty())
        return usage();

    try {
        qm::trace::Profile profile;
        if (run) {
            std::ifstream in(path);
            if (!in) {
                std::cerr << "qmprof: cannot open " << path << "\n";
                return 1;
            }
            std::ostringstream source;
            source << in.rdbuf();
            qm::occam::CompiledProgram program =
                qm::occam::compileOccam(source.str());
            qm::mp::SystemConfig config;
            config.numPes = pes;
            config.traceConfig.enabled = true;
            qm::mp::System system(program.object, config);
            qm::mp::RunResult result = system.run(program.mainLabel);
            std::cout << "ran " << path << " on " << pes
                      << " PEs: completed=" << result.completed
                      << " cycles=" << result.cycles << "\n\n";
            profile =
                qm::trace::analyzeTrace(system.tracer().events(),
                                        options);
            profile.dropped = system.tracer().dropped();
        } else {
            std::uint64_t dropped = 0;
            std::vector<qm::trace::Event> events =
                qm::trace::loadChromeTrace(path, &dropped);
            profile = qm::trace::analyzeTrace(events, options);
            profile.dropped = dropped;
        }
        std::cout << profile.render(options);
    } catch (const std::exception &e) {
        std::cerr << "qmprof: " << e.what() << "\n";
        return 1;
    }
    return 0;
}

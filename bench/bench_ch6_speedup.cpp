/**
 * @file
 * Chapter 6 simulation study: system throughput ratio vs number of
 * processing elements for the four thesis benchmarks.
 *
 * Regenerates: Fig 6.8 + Table 6.2 (matrix multiplication),
 *              Fig 6.10 + Table 6.3 (FFT),
 *              Fig 6.11 + Table 6.4 (Cholesky decomposition),
 *              Fig 6.12 + Table 6.5 (congruence transformation),
 *              Fig 6.9 (recursive vs iterative binary fan-out).
 *
 * Every run is verified against the reference result before its
 * statistics are reported.
 */
#include <iostream>
#include <vector>

#include "bench_cli.hpp"
#include "programs/benchmarks.hpp"
#include "sim/bench_json.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "support/format.hpp"
#include "support/table.hpp"

using namespace qm;

namespace {

/** Fraction of total PE-cycles spent in @p part, as "12.3%". */
std::string
pct(mp::Cycle part, const sim::RunReport &run)
{
    double total =
        static_cast<double>(run.cycles) * static_cast<double>(run.pes);
    return total > 0 ? fixed(100.0 * static_cast<double>(part) / total,
                             1) + "%"
                     : "-";
}

void
reportSeries(const sim::SpeedupSeries &series,
             const std::string &figure)
{
    std::cout << "=== " << series.name << " (" << figure << ") ===\n";
    TextTable table({"PEs", "cycles", "throughput ratio", "instrs",
                     "contexts", "rendezvous", "switches", "util",
                     "compute", "kernel", "blocked", "ok"});
    for (std::size_t i = 0; i < series.runs.size(); ++i) {
        const sim::RunReport &run = series.runs[i];
        bool has_ratio =
            run.cycles > 0 && series.runs.front().cycles > 0;
        table.addRow({std::to_string(run.pes),
                      std::to_string(run.cycles),
                      has_ratio ? fixed(series.ratio(i), 3) : "-",
                      std::to_string(run.instructions),
                      std::to_string(run.contexts),
                      std::to_string(run.rendezvous),
                      std::to_string(run.contextSwitches),
                      fixed(run.utilization, 3),
                      pct(run.computeCycles, run),
                      pct(run.kernelCycles, run),
                      pct(run.blockedCycles, run),
                      run.verified ? "yes" : "NO"});
    }
    std::cout << table.render();
    for (const sim::RunReport &run : series.runs)
        if (!run.failureReason.empty())
            std::cout << "  PEs=" << run.pes
                      << " failed: " << run.failureReason << "\n";
    for (const sim::RunReport &run : series.runs)
        if (run.recovered)
            std::cout << "  PEs=" << run.pes << " recovered after "
                      << run.replays << " checkpoint replay(s)\n";
    for (const sim::RunReport &run : series.runs)
        if (run.traceDropped > 0)
            std::cout << "  PEs=" << run.pes
                      << " WARNING: trace truncated ("
                      << run.traceDropped
                      << " events dropped past the cap)\n";
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    benchcli::BenchArgs args =
        benchcli::parseBenchArgs(argc, argv, "bench_ch6_speedup");
    if (!args.ok)
        return 2;
    mp::SystemConfig base_config;
    args.applyTo(base_config);
    const sim::RunPolicy policy = args.runPolicy();
    const std::vector<int> pe_counts = {1, 2, 3, 4, 5, 6, 7, 8};

    std::cout << "Queue-machine multiprocessor simulation study "
                 "(thesis Chapter 6)\n"
              << "Throughput ratio = cycles(1 PE) / cycles(N PEs)\n";
    std::cout << fault::runBanner(args.faults, args.recovery) << "\n";

    std::vector<sim::SpeedupSeries> all;
    for (const programs::Benchmark &bench :
         programs::thesisBenchmarks()) {
        sim::SpeedupSeries series = sim::runSpeedupSweep(
            bench.name, bench.source, bench.resultArray, bench.expected,
            pe_counts, {}, base_config, args.jobs, args.traceDir,
            policy);
        reportSeries(series, bench.thesisFigure);
        all.push_back(series);
    }

    // Fig 6.9: recursive vs non-recursive fan-out.
    sim::SpeedupSeries recursive = sim::runSpeedupSweep(
        "binary fan-out (recursive)", programs::binaryFanRecursiveSource(),
        "v", programs::expectedBinaryFan(), pe_counts, {}, base_config,
        args.jobs, args.traceDir, policy);
    reportSeries(recursive, "Fig 6.9 recursive");
    all.push_back(recursive);
    sim::SpeedupSeries iterative = sim::runSpeedupSweep(
        "binary fan-out (iterative)", programs::binaryFanIterativeSource(),
        "v", programs::expectedBinaryFan(), pe_counts, {}, base_config,
        args.jobs, args.traceDir, policy);
    reportSeries(iterative, "Fig 6.9 non-recursive");
    all.push_back(iterative);

    std::cout << "wrote "
              << sim::writeBenchJson("ch6_speedup", all, "",
                                     args.hostTime)
              << "\n";
    if (!args.metricsPath.empty()) {
        std::string where = sim::writeMetricsJson("ch6_speedup", all,
                                                  args.metricsPath);
        if (args.metricsPath != "-")
            std::cout << "wrote " << where << "\n";
    }
    benchcli::writeTelemetryStream(args, "bench_ch6_speedup", all);
    return benchcli::benchExitCode();
}

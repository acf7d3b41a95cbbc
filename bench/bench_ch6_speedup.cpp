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
#include "sim/experiment.hpp"
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
    benchcli::printRunNotes(series.runs, [&](std::size_t i) {
        return cat("PEs=", series.runs[i].pes);
    });
    std::cout << "\n";
}

int
sweep(const benchcli::BenchArgs &args)
{
    mp::SystemConfig base_config;
    args.applyTo(base_config);
    const sim::RunPolicy policy = args.runPolicy();
    const std::vector<int> pe_counts = {1, 2, 3, 4, 5, 6, 7, 8};

    std::cout << "Queue-machine multiprocessor simulation study "
                 "(thesis Chapter 6)\n"
              << "Throughput ratio = cycles(1 PE) / cycles(N PEs)\n";
    std::cout << fault::runBanner(args.faults, args.recovery) << "\n";

    // The four thesis benchmarks, then Fig 6.9: recursive vs
    // non-recursive fan-out.
    std::vector<programs::Benchmark> benches = programs::thesisBenchmarks();
    benches.push_back({"binary fan-out (recursive)", "Fig 6.9 recursive",
                       programs::binaryFanRecursiveSource(), "v",
                       programs::expectedBinaryFan()});
    benches.push_back({"binary fan-out (iterative)",
                       "Fig 6.9 non-recursive",
                       programs::binaryFanIterativeSource(), "v",
                       programs::expectedBinaryFan()});
    std::vector<sim::SpeedupSeries> all;
    for (const programs::Benchmark &bench : benches) {
        all.push_back(sim::runSpeedupSweep(
            bench.name, bench.source, bench.resultArray, bench.expected,
            pe_counts, {}, base_config, args.jobs, args.traceDir,
            policy));
        reportSeries(all.back(), bench.thesisFigure);
    }

    return benchcli::finishSweep(args, "ch6_speedup", all);
}

} // namespace

int
main(int argc, char **argv)
{
    return benchcli::benchMain(argc, argv, "bench_ch6_speedup", sweep);
}

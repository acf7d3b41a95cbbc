/**
 * @file
 * Partitioned ring-bus study (thesis section 5.6, Fig 5.18).
 *
 * The thesis multiprocessor connects PEs with a shared bus segmented
 * into partitions closed in a ring: transfers through disjoint
 * partitions proceed concurrently, transfers sharing one serialize.
 * This bench sweeps the partition count at 8 PEs for the most
 * communication-heavy benchmark and reports elapsed cycles together
 * with bus contention, showing the concurrency the partitioning buys.
 * The partition runs are independent simulations of one compiled
 * program, fanned across worker threads (--jobs).
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

int
sweep(const benchcli::BenchArgs &args)
{
    const int pes = 8;
    const std::vector<int> partition_counts = {1, 2, 4, 8};
    programs::Benchmark bench = programs::thesisBenchmarks()[3];
    occam::CompiledProgram program =
        occam::compileOccam(bench.source);

    std::vector<sim::RunSpec> specs;
    for (int partitions : partition_counts) {
        sim::RunSpec spec;
        spec.program = &program;
        spec.resultArray = bench.resultArray;
        spec.expected = bench.expected;
        spec.pes = pes;
        spec.config.busPartitions = partitions;
        args.applyTo(spec.config);
        // The sweep varies partitions at one PE count, so the count
        // names each run's telemetry lines and trace file.
        spec.config.telemetryLabel = cat("ch5_bus:p", partitions);
        sim::traceRun(spec, args.traceDir, bench.name,
                      cat("-p", partitions));
        specs.push_back(std::move(spec));
    }
    std::vector<sim::RunReport> reports =
        sim::runAll(specs, args.jobs, args.runPolicy("ch5_bus"));

    std::cout << "Ring-bus partition sweep (Fig 5.18 axis): "
              << bench.name << " at " << pes << " PEs\n";
    std::cout << fault::runBanner(args.faults, args.recovery) << "\n";
    TextTable table({"partitions", "cycles", "vs 1 partition", "ok"});
    mp::Cycle base = reports.front().cycles;
    sim::SpeedupSeries series;
    series.name = bench.name;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const sim::RunReport &report = reports[i];
        series.runs.push_back(report);
        bool has_ratio = base > 0 && report.cycles > 0;
        table.addRow({std::to_string(partition_counts[i]),
                      std::to_string(report.cycles),
                      has_ratio
                          ? fixed(static_cast<double>(base) /
                                      static_cast<double>(report.cycles),
                                  3)
                          : "-",
                      report.verified ? "yes" : "NO"});
    }
    std::cout << table.render();
    benchcli::printRunNotes(reports, [&](std::size_t i) {
        return cat("partitions=", partition_counts[i]);
    });
    std::cout << "\n(partitioning trades per-message latency - each "
                 "segment crossed adds hop cycles - against segment "
                 "concurrency; at this message rate latency dominates, "
                 "matching the thesis choice of FEW partitions: 2 for "
                 "4 PEs in Fig 5.18)\n";
    return benchcli::finishSweep(args, "ch5_bus", {series});
}

} // namespace

int
main(int argc, char **argv)
{
    return benchcli::benchMain(argc, argv, "bench_ch5_bus", sweep);
}

/**
 * @file
 * Thesis Table 6.6: compiler optimization speed-up factors.
 *
 * Each optimization is disabled in turn and every benchmark re-run at
 * 4 PEs; the factor is cycles(optimization off) / cycles(all on). The
 * three knobs are the ones Chapter 4 develops:
 *   - live-value analysis (only live values cross context splices),
 *   - pi_I input sequencing of splice transfers,
 *   - actor-priority instruction scheduling (Fig 4.20 heuristic).
 *
 * All (benchmark x option-set) cells are independent simulations, so
 * they are compiled up front and fanned across worker threads
 * (--jobs); the table and JSON are assembled from the ordered reports
 * and identical for any job count.
 */
#include <deque>
#include <iostream>
#include <vector>

#include "bench_cli.hpp"
#include "programs/benchmarks.hpp"
#include "sim/experiment.hpp"
#include "support/format.hpp"
#include "support/table.hpp"

using namespace qm;

int
main(int argc, char **argv)
{
    benchcli::BenchArgs args =
        benchcli::parseBenchArgs(argc, argv, "bench_ch6_ablation");
    if (!args.ok)
        return 2;
    const int pes = 4;
    std::cout << "Table 6.6: compiler optimization speed-up factors "
                 "(4 PEs)\n"
                 "factor = cycles with the optimization disabled / "
                 "cycles with all optimizations on\n";
    std::cout << fault::runBanner(args.faults, args.recovery) << "\n";

    // The five option sets per benchmark, in JSON run order.
    occam::CompileOptions all_on;
    occam::CompileOptions no_live = all_on;
    no_live.liveAnalysis = false;
    occam::CompileOptions no_seq = all_on;
    no_seq.inputSequencing = false;
    occam::CompileOptions no_prio = all_on;
    no_prio.priorityScheduling = false;
    occam::CompileOptions none = all_on;
    none.liveAnalysis = false;
    none.inputSequencing = false;
    none.priorityScheduling = false;
    const std::vector<occam::CompileOptions> variants = {
        all_on, no_live, no_seq, no_prio, none};

    // Compile every (benchmark, option-set) cell once, then run the
    // whole grid through the parallel experiment runner. The deque
    // keeps compiled programs at stable addresses for the specs.
    std::vector<programs::Benchmark> benches =
        programs::thesisBenchmarks();
    std::deque<occam::CompiledProgram> compiled;
    std::vector<sim::RunSpec> specs;
    for (const programs::Benchmark &bench : benches) {
        for (std::size_t v = 0; v < variants.size(); ++v) {
            compiled.push_back(occam::compileOccam(bench.source,
                                                   variants[v]));
            sim::RunSpec spec;
            spec.program = &compiled.back();
            spec.resultArray = bench.resultArray;
            spec.expected = bench.expected;
            spec.pes = pes;
            args.applyTo(spec.config);
            // The grid varies compile options at one PE count; the
            // variant index names the telemetry lines and trace file.
            spec.config.telemetryLabel = cat(bench.name, ":v", v);
            sim::traceRun(spec, args.traceDir, bench.name, cat("-v", v));
            specs.push_back(std::move(spec));
        }
    }
    std::vector<sim::RunReport> reports =
        sim::runAll(specs, args.jobs, args.runPolicy("ch6_ablation"));

    TextTable table({"program", "baseline cycles", "live-value",
                     "input-seq", "priority-sched", "all off"});
    std::vector<sim::SpeedupSeries> all;
    for (std::size_t b = 0; b < benches.size(); ++b) {
        const sim::RunReport &base = reports[b * variants.size()];
        sim::SpeedupSeries series;
        series.name = benches[b].name;
        std::vector<std::string> row = {benches[b].name,
                                        std::to_string(base.cycles)};
        for (std::size_t v = 0; v < variants.size(); ++v) {
            const sim::RunReport &run = reports[b * variants.size() + v];
            series.runs.push_back(run);
            if (v == 0)
                continue;  // the baseline column is raw cycles
            row.push_back(!run.verified || base.cycles == 0
                              ? std::string("BAD")
                              : fixed(static_cast<double>(run.cycles) /
                                          static_cast<double>(
                                              base.cycles),
                                      3));
        }
        table.addRow(row);
        all.push_back(series);
    }
    std::cout << table.render();
    benchcli::printRunNotes(reports, [&](std::size_t i) {
        return cat(benches[i / variants.size()].name, " variant ",
                   i % variants.size());
    });
    std::cout << "\n(values > 1.0 mean the optimization saves cycles; "
                 "all runs verified against reference results)\n"
              << "(JSON runs order: all-on, no live-value, no "
                 "input-seq, no priority-sched, all off)\n";
    return benchcli::finishSweep(args, "ch6_ablation", all);
}

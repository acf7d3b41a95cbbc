/**
 * @file
 * Scale study past the thesis's 8-PE sweep: the same benchmark run on
 * the flat partitioned ring and on hierarchical "rings:KxM" topologies
 * at 8..64+ PEs, to show where the single ring saturates and how the
 * bridged hierarchy moves the wall (ROADMAP item 1; see DESIGN.md
 * "Hierarchical topology" and EXPERIMENTS.md for the measured tables).
 *
 * Two programs are swept: the thesis matmul (6 rows of parallelism -
 * deliberately narrow, so it shows the *limits* of adding PEs) and a
 * 64-way fan-out whose worker count matches the largest machine. Each
 * (program, topology) pair is one BENCH series named
 * "<program> <topology>"; every series shares the same 1-PE flat-ring
 * base row so throughput ratios are comparable across topologies.
 *
 * The final "scale summary" block is deterministic (pure simulated
 * cycles, no host timing) - CI greps it to enforce that at >= 64 PEs
 * the best hierarchical topology beats the flat ring on both speedup
 * and blocked-cycle share.
 */
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_cli.hpp"
#include "programs/benchmarks.hpp"
#include "sim/experiment.hpp"
#include "support/format.hpp"
#include "support/table.hpp"

using namespace qm;

namespace {

/** 64 workers, each with a real compute loop: v[i] = 24 + 276*i. */
const std::string &
wideFanSource()
{
    static const std::string source =
        "-- 64-way fan-out: one context per worker, each running a\n"
        "-- 24-iteration accumulation so dispatch cost is amortized.\n"
        "def w = 64:\n"
        "var v[64]:\n"
        "par i = [0 for w]\n"
        "  var acc, k:\n"
        "  seq\n"
        "    acc := 0\n"
        "    k := 0\n"
        "    while k < 24\n"
        "      seq\n"
        "        acc := acc + ((i * k) + 1)\n"
        "        k := k + 1\n"
        "    v[i] := acc\n";
    return source;
}

std::vector<std::int32_t>
expectedWideFan()
{
    std::vector<std::int32_t> v(64);
    for (int i = 0; i < 64; ++i)
        v[static_cast<std::size_t>(i)] = 24 + 276 * i;
    return v;
}

/** One benchmark program of the scale study. */
struct ScaleProgram
{
    std::string name;
    const std::string &source;
    std::string resultArray;
    std::vector<std::int32_t> expected;
};

/** Can a K-ring, M-partition hierarchy be built over @p pes PEs? */
bool
topologyFits(const mp::RingTopology &topology, int pes)
{
    if (topology.rings <= 1)
        return topology.partitions <= pes;
    // The smallest local ring is floor(pes / K) PEs and must still
    // hold M partitions (mirrors the RingBus constructor's check).
    return topology.rings <= pes &&
           pes / topology.rings >= topology.partitions;
}

double
blockedShare(const sim::RunReport &run)
{
    double total =
        static_cast<double>(run.cycles) * static_cast<double>(run.pes);
    return total > 0 ? static_cast<double>(run.blockedCycles) / total
                     : 0.0;
}

void
reportSeries(const sim::SpeedupSeries &series)
{
    std::cout << "=== " << series.name << " ===\n";
    TextTable table({"PEs", "cycles", "throughput ratio", "contexts",
                     "rendezvous", "util", "blocked", "bus", "ok"});
    for (std::size_t i = 0; i < series.runs.size(); ++i) {
        const sim::RunReport &run = series.runs[i];
        bool has_ratio =
            run.cycles > 0 && series.runs.front().cycles > 0;
        table.addRow({std::to_string(run.pes),
                      std::to_string(run.cycles),
                      has_ratio ? fixed(series.ratio(i), 3) : "-",
                      std::to_string(run.contexts),
                      std::to_string(run.rendezvous),
                      fixed(run.utilization, 3),
                      fixed(100.0 * blockedShare(run), 1) + "%",
                      std::to_string(run.busCycles),
                      run.verified ? "yes" : "NO"});
    }
    std::cout << table.render();
    benchcli::printRunNotes(series.runs, [&](std::size_t i) {
        return cat("PEs=", series.runs[i].pes);
    });
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    benchcli::BenchArgs args =
        benchcli::parseBenchArgs(argc, argv, "bench_partitioned",
                                 /*scale_study=*/true);
    if (!args.ok)
        return 2;

    mp::SystemConfig base_config;
    args.applyTo(base_config);

    std::vector<mp::RingTopology> topologies;
    if (args.topologyGiven) {
        topologies.push_back(args.topology);
    } else {
        topologies.push_back({1, 2});   // the historical flat ring
        topologies.push_back({2, 1});   // two bridged bus clusters
        topologies.push_back({4, 2});
        topologies.push_back({8, 2});
        topologies.push_back({16, 1});  // pure backbone machine
    }
    std::vector<int> pe_counts = {8, 16, 32, 64, 128, 256};
    if (args.maxPes > 0) {
        pe_counts.erase(std::remove_if(pe_counts.begin(),
                                       pe_counts.end(),
                                       [&](int pes) {
                                           return pes > args.maxPes;
                                       }),
                        pe_counts.end());
    }
    if (pe_counts.empty()) {
        std::cerr << "bench_partitioned: --max-pes leaves no sweep "
                     "points\n";
        return 2;
    }

    std::cout << "Partitioned-ring scale study (flat ring vs "
                 "hierarchical rings:KxM)\n"
              << "Throughput ratio = cycles(1 PE) / cycles(N PEs); "
                 "blocked = share of PE-cycles parked\n";
    std::cout << fault::runBanner(args.faults, args.recovery) << "\n";

    const std::vector<ScaleProgram> benches = {
        {"matmul", programs::matmulSource(), "c",
         programs::expectedMatmul()},
        {"wide fan-out", wideFanSource(), "v", expectedWideFan()},
    };

    std::vector<sim::SpeedupSeries> all;
    for (const ScaleProgram &bench : benches) {
        occam::CompiledProgram program =
            occam::compileOccam(bench.source, {});
        for (const mp::RingTopology &topology : topologies) {
            sim::SpeedupSeries series;
            series.name =
                cat(bench.name, " ", mp::topologyName(topology));
            // Shared 1-PE flat base row: the sequential machine is
            // the same regardless of topology, and every series
            // carrying it keeps ratios comparable across series.
            sim::RunSpec base;
            base.program = &program;
            base.resultArray = bench.resultArray;
            base.expected = bench.expected;
            base.pes = 1;
            base.config = base_config;
            base.config.telemetryLabel = series.name;
            std::vector<sim::RunSpec> specs = {base};
            for (int pes : pe_counts) {
                if (!topologyFits(topology, pes))
                    continue;
                sim::RunSpec spec = base;
                spec.pes = pes;
                spec.config.setTopology(topology);
                sim::traceRun(spec, args.traceDir, series.name);
                specs.push_back(std::move(spec));
            }
            series.runs = sim::runAll(specs, args.jobs,
                                      args.runPolicy(series.name));
            reportSeries(series);
            all.push_back(std::move(series));
        }
    }

    // Deterministic acceptance summary: at the largest swept PE
    // count, does the best hierarchical topology beat the flat ring
    // on speedup AND blocked share? CI greps the verdict token.
    int top_pes = pe_counts.back();
    std::cout << "scale summary @ " << top_pes << " PEs:\n";
    for (const ScaleProgram &bench : benches) {
        const sim::RunReport *flat = nullptr;
        const sim::RunReport *best = nullptr;
        std::string best_name;
        double flat_ratio = 0.0, best_ratio = 0.0;
        for (const sim::SpeedupSeries &series : all) {
            if (series.name.compare(0, bench.name.size(), bench.name) !=
                0)
                continue;
            for (std::size_t i = 0; i < series.runs.size(); ++i) {
                const sim::RunReport &run = series.runs[i];
                if (run.pes != top_pes || !run.verified)
                    continue;
                bool is_flat =
                    series.name.find("rings:") == std::string::npos;
                double ratio = series.ratio(i);
                if (is_flat) {
                    flat = &run;
                    flat_ratio = ratio;
                } else if (!best || ratio > best_ratio) {
                    best = &run;
                    best_ratio = ratio;
                    best_name = series.name.substr(
                        bench.name.size() + 1);
                }
            }
        }
        std::cout << "  " << bench.name << ": ";
        if (!flat || !best) {
            std::cout << "(topology sweep incomplete at this size)\n";
            continue;
        }
        bool beats = best_ratio > flat_ratio &&
                     blockedShare(*best) < blockedShare(*flat);
        std::cout << "ring speedup " << fixed(flat_ratio, 3)
                  << " blocked "
                  << fixed(100.0 * blockedShare(*flat), 1)
                  << "%, best " << best_name << " speedup "
                  << fixed(best_ratio, 3) << " blocked "
                  << fixed(100.0 * blockedShare(*best), 1)
                  << "% -> partitioned_beats_flat="
                  << (beats ? "yes" : "no") << "\n";
    }

    return benchcli::finishSweep(args, "partitioned", all);
}

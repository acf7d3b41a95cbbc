/**
 * @file
 * Tests for the sim module: Amdahl models (Figs 6.6/6.7) and the
 * experiment runner used by the Chapter 6 benches.
 */
#include <gtest/gtest.h>

#include "programs/benchmarks.hpp"
#include "sim/amdahl.hpp"
#include "sim/experiment.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace qm;
using namespace qm::sim;

TEST(Amdahl, ClassicLawBasics)
{
    EXPECT_DOUBLE_EQ(amdahlSpeedup(0.93, 1), 1.0);
    // f = 0.93 at 8 PEs: 1 / (0.07 + 0.93/8).
    EXPECT_NEAR(amdahlSpeedup(0.93, 8), 5.369, 0.001);
    // Fully parallel: linear.
    EXPECT_DOUBLE_EQ(amdahlSpeedup(1.0, 8), 8.0);
    // Fully serial: flat.
    EXPECT_DOUBLE_EQ(amdahlSpeedup(0.0, 8), 1.0);
}

TEST(Amdahl, ClassicLawIsMonotone)
{
    double prev = 0.0;
    for (int n = 1; n <= 64; ++n) {
        double s = amdahlSpeedup(0.93, n);
        EXPECT_GT(s, prev);
        EXPECT_LE(s, n);  // never superlinear
        prev = s;
    }
}

TEST(Amdahl, ModifiedLawNormalizesAtOnePe)
{
    // S(1) = 1 by construction for any f, g.
    for (double g : {0.0, 0.1, 0.3, 1.0})
        EXPECT_NEAR(modifiedAmdahlSpeedup(0.63, g, 1), 1.0, 1e-12);
}

TEST(Amdahl, ModifiedLawExceedsClassicWithOverhead)
{
    // The overhead term amortizes, lifting the curve above classic
    // Amdahl at the same f.
    for (int n = 2; n <= 8; ++n)
        EXPECT_GT(modifiedAmdahlSpeedup(0.63, 0.3, n),
                  amdahlSpeedup(0.63, n));
}

TEST(Amdahl, RejectsBadParameters)
{
    EXPECT_THROW(amdahlSpeedup(-0.1, 4), FatalError);
    EXPECT_THROW(amdahlSpeedup(1.1, 4), FatalError);
    EXPECT_THROW(amdahlSpeedup(0.5, 0), FatalError);
    EXPECT_THROW(modifiedAmdahlSpeedup(0.5, -1.0, 4), FatalError);
}

TEST(Experiment, SweepVerifiesAndReportsMonotoneCycles)
{
    programs::Benchmark bench = programs::thesisBenchmarks()[1];  // fft
    SpeedupSeries series =
        runSpeedupSweep(bench.name, bench.source, bench.resultArray,
                        bench.expected, {1, 2, 4, 8});
    ASSERT_EQ(series.runs.size(), 4u);
    for (const RunReport &run : series.runs) {
        EXPECT_TRUE(run.verified) << run.pes << " PEs";
        EXPECT_GT(run.cycles, 0);
        EXPECT_GT(run.utilization, 0.0);
        EXPECT_LE(run.utilization, 1.0);
    }
    // Throughput ratio is 1.0 at the baseline and grows.
    EXPECT_DOUBLE_EQ(series.ratio(0), 1.0);
    EXPECT_GT(series.ratio(3), series.ratio(0));
    // Elapsed cycles shrink with more PEs.
    EXPECT_LT(series.runs[3].cycles, series.runs[0].cycles);
}

TEST(Experiment, RatioPanicsOnOutOfRangeIndex)
{
    SpeedupSeries series;
    EXPECT_THROW(series.ratio(0), PanicError);  // empty series
    RunReport run;
    run.cycles = 100;
    series.runs.push_back(run);
    EXPECT_DOUBLE_EQ(series.ratio(0), 1.0);
    EXPECT_THROW(series.ratio(1), PanicError);  // past the end
    EXPECT_THROW(series.ratio(100), PanicError);
}

TEST(Experiment, RatioPanicsOnZeroCycleRun)
{
    SpeedupSeries series;
    RunReport base;
    base.cycles = 100;
    series.runs.push_back(base);
    RunReport timed_out;  // cycles == 0: run did no work
    series.runs.push_back(timed_out);
    EXPECT_THROW(series.ratio(1), PanicError);
}

TEST(Experiment, ReportCarriesCycleBreakdown)
{
    programs::Benchmark bench = programs::thesisBenchmarks()[1];
    occam::CompiledProgram program = occam::compileOccam(bench.source);
    RunReport report =
        runOnce(program, bench.resultArray, bench.expected, 4);
    ASSERT_TRUE(report.verified);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.computeCycles + report.kernelCycles +
                  report.blockedCycles,
              report.cycles * report.pes);
    EXPECT_GT(report.computeCycles, 0);
}

TEST(Experiment, VerificationCatchesWrongExpectations)
{
    programs::Benchmark bench = programs::thesisBenchmarks()[0];
    std::vector<std::int32_t> wrong = bench.expected;
    wrong[0] += 1;
    occam::CompiledProgram program =
        occam::compileOccam(bench.source);
    RunReport report =
        runOnce(program, bench.resultArray, wrong, 2);
    EXPECT_FALSE(report.verified);
}

TEST(Experiment, BusPartitionCountAffectsOnlyTiming)
{
    programs::Benchmark bench = programs::thesisBenchmarks()[1];
    occam::CompiledProgram program =
        occam::compileOccam(bench.source);
    mp::Cycle previous = 0;
    for (int partitions : {1, 2, 4, 8}) {
        mp::SystemConfig config;
        config.busPartitions = partitions;
        RunReport report = runOnce(program, bench.resultArray,
                                   bench.expected, 8, config);
        EXPECT_TRUE(report.verified) << partitions << " partitions";
        if (previous)
            EXPECT_NEAR(static_cast<double>(report.cycles),
                        static_cast<double>(previous),
                        0.5 * static_cast<double>(previous));
        previous = report.cycles;
    }
}

/** Every RunReport field, for exact cross-job-count comparison. */
void
expectSameReport(const RunReport &a, const RunReport &b,
                 const std::string &what)
{
    EXPECT_EQ(a.pes, b.pes) << what;
    EXPECT_EQ(a.completed, b.completed) << what;
    EXPECT_EQ(a.verified, b.verified) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.contexts, b.contexts) << what;
    EXPECT_EQ(a.rendezvous, b.rendezvous) << what;
    EXPECT_EQ(a.contextSwitches, b.contextSwitches) << what;
    EXPECT_EQ(a.utilization, b.utilization) << what;
    EXPECT_EQ(a.computeCycles, b.computeCycles) << what;
    EXPECT_EQ(a.kernelCycles, b.kernelCycles) << what;
    EXPECT_EQ(a.blockedCycles, b.blockedCycles) << what;
    EXPECT_EQ(a.busCycles, b.busCycles) << what;
}

TEST(Experiment, ParallelSweepIsDeterministic)
{
    // The acceptance bar for the parallel runner: the matmul sweep
    // must produce the same series - every per-run counter included -
    // under serial (--jobs 1) and parallel (--jobs 4) execution.
    programs::Benchmark bench = programs::thesisBenchmarks()[0];
    const std::vector<int> pes = {1, 2, 4};
    SpeedupSeries serial =
        runSpeedupSweep(bench.name, bench.source, bench.resultArray,
                        bench.expected, pes, {}, {}, /*jobs=*/1);
    SpeedupSeries parallel =
        runSpeedupSweep(bench.name, bench.source, bench.resultArray,
                        bench.expected, pes, {}, {}, /*jobs=*/4);
    ASSERT_EQ(serial.runs.size(), parallel.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        expectSameReport(serial.runs[i], parallel.runs[i],
                         "run " + std::to_string(i));
        EXPECT_TRUE(serial.runs[i].verified);
    }
}

TEST(Experiment, RunAllKeepsSpecOrder)
{
    programs::Benchmark bench = programs::thesisBenchmarks()[0];
    occam::CompiledProgram program = occam::compileOccam(bench.source);
    std::vector<RunSpec> specs;
    for (int pes : {4, 1, 2}) {  // deliberately not sorted
        RunSpec spec;
        spec.program = &program;
        spec.resultArray = bench.resultArray;
        spec.expected = bench.expected;
        spec.pes = pes;
        specs.push_back(std::move(spec));
    }
    std::vector<RunReport> reports = runAll(specs, /*jobs=*/3);
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_EQ(reports[0].pes, 4);
    EXPECT_EQ(reports[1].pes, 1);
    EXPECT_EQ(reports[2].pes, 2);
    for (const RunReport &report : reports)
        EXPECT_TRUE(report.verified);
}

TEST(Experiment, RunAllRejectsSpecWithoutProgram)
{
    std::vector<RunSpec> specs(1);
    EXPECT_THROW(runAll(specs, 1), PanicError);
}

TEST(Experiment, RunAllRefusesParallelTraceFiles)
{
    // Sweep specs share one Chrome trace path; writing it from
    // concurrent runs would race. Serial runs keep working.
    programs::Benchmark bench = programs::thesisBenchmarks()[0];
    occam::CompiledProgram program = occam::compileOccam(bench.source);
    RunSpec spec;
    spec.program = &program;
    spec.resultArray = bench.resultArray;
    spec.expected = bench.expected;
    spec.pes = 2;
    spec.config.traceConfig.enabled = true;
    spec.config.traceConfig.chromeJsonPath = "sweep_trace.json";
    EXPECT_THROW(runAll({spec, spec}, /*jobs=*/2), FatalError);
}

TEST(Experiment, PageSizeSweepPreservesResults)
{
    // Thesis section 5.2: the queue page size trades maximum queue
    // length against memory utilization. Compiled contexts fit in any
    // page >= their footprint; results never change.
    programs::Benchmark bench = programs::thesisBenchmarks()[1];
    for (int words : {64, 128, 256}) {
        occam::CompileOptions options;
        options.pageWords = words;
        occam::CompiledProgram program =
            occam::compileOccam(bench.source, options);
        mp::SystemConfig config;
        config.pageWords = words;
        RunReport report = runOnce(program, bench.resultArray,
                                   bench.expected, 4, config);
        EXPECT_TRUE(report.verified) << words << "-word pages";
    }
}

} // namespace

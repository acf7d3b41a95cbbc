/**
 * @file
 * Host-core differential gate: a simulation must be BYTE-IDENTICAL on
 * every observable surface - RunResult fields, the rendered statistics
 * registry, the Chrome trace stream, the full simulated memory image,
 * every saved checkpoint file, and the BENCH / metrics JSON documents -
 * whether it runs alone on the calling thread or as one of two copies
 * running at once on parallelFor workers, the host cores a sweep's
 * --jobs spreads its runs over. Each mp::System owns all of its state,
 * so neither the host core a run lands on, nor a run beside it, nor a
 * run before it in the same process (whose freed pages a later calloc
 * may reuse) may change a byte. The corpora are
 * the ones the fuzz suites run: plain programs, seeded fault
 * injection, the harsh recovery mix with fail-stops and checkpoint
 * replay, fault-free runs with periodic checkpoints, and hierarchical
 * multi-partition machines.
 *
 * The test names date from when the suite held two simulation cores
 * (the slot scan and an event calendar) to the same bytes; with one
 * scheduler, the reference is that scheduler's serial run.
 *
 * Honors QM_FUZZ_ITERS like the fuzz suites.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "fault/fault.hpp"
#include "fuzz_corpus.hpp"
#include "isa/assembler.hpp"
#include "mp/system.hpp"
#include "occam/codegen.hpp"
#include "occam/compiler.hpp"
#include "occam/ift.hpp"
#include "occam/parser.hpp"
#include "persist/io.hpp"
#include "run_result_expect.hpp"
#include "sim/bench_json.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "support/format.hpp"
#include "support/thread_pool.hpp"
#include "trace/export.hpp"

namespace {

using namespace qm;
using namespace qm::occam;
using fuzz::corpusPes;
using fuzz::corpusSeed;
using fuzz::fuzzIters;
using fuzz::ProgramGen;

/** Everything one run produced that every other run must reproduce. */
struct CoreRun
{
    mp::RunResult result;
    std::string stats;           ///< StatSet::render() of the system.
    std::string trace;           ///< Chrome trace JSON, full stream.
    std::vector<std::uint8_t> memory;
    /** Every snapshot's checkpoint file, when runCore saved them. */
    std::vector<std::vector<std::uint8_t>> checkpoints;
};

isa::ObjectCode
compileCorpusProgram(int idx, std::string *main_label)
{
    ProgramGen gen(corpusSeed(idx));
    std::string source = gen.generate();
    Program ast = parse(source);
    SymbolTable table = analyze(ast);
    Ift ift = Ift::build(ast, table);
    ContextProgram contexts = buildContextGraphs(ast, table, ift);
    *main_label = contexts.mainLabel;
    return isa::assemble(generateAssembly(contexts));
}

/**
 * Run @p object under @p config, replaying from checkpoints as the
 * recovery plan allows. With a @p checkpoint_path, every snapshot is
 * saved there and the file's bytes are kept in CoreRun::checkpoints.
 */
CoreRun
runCore(const isa::ObjectCode &object, const std::string &main_label,
        mp::SystemConfig config, const std::string &checkpoint_path = "")
{
    // Record the full event stream so the comparison covers trace
    // emission order and timestamps, not just the end state.
    config.traceConfig.enabled = true;
    mp::System system(object, config);
    CoreRun run;
    if (!checkpoint_path.empty())
        system.setCheckpointSink([&](mp::System &s) {
            persist::Status st = s.saveCheckpoint(checkpoint_path);
            ASSERT_TRUE(st.ok()) << st.toString();
            run.checkpoints.emplace_back();
            ASSERT_TRUE(
                persist::readFile(checkpoint_path, run.checkpoints.back())
                    .ok());
        });
    run.result = system.run(main_label);
    if (!checkpoint_path.empty())
        std::remove(checkpoint_path.c_str());
    run.stats = system.stats().render();
    run.trace = trace::chromeTraceJson(system.tracer());
    const pe::Memory &memory = system.memory();
    run.memory.assign(memory.data(), memory.data() + memory.size());
    return run;
}

void
expectIdentical(const CoreRun &reference, const CoreRun &run)
{
    testutil::expectSameRunResult(reference.result, run.result);
    EXPECT_EQ(reference.stats, run.stats);
    EXPECT_EQ(reference.trace, run.trace);
    EXPECT_EQ(reference.memory, run.memory);
    ASSERT_EQ(reference.checkpoints.size(), run.checkpoints.size());
    for (std::size_t i = 0; i < reference.checkpoints.size(); ++i)
        EXPECT_EQ(reference.checkpoints[i], run.checkpoints[i])
            << "checkpoint file " << i;
}

/**
 * Run @p object under @p config once on the calling thread, then as two
 * copies at once on two parallelFor workers, and expect both copies
 * byte-identical to the serial run, which is returned. With a
 * @p checkpoint_stem, each run saves its snapshots to a file of its
 * own under that stem.
 */
CoreRun
runOnHostCores(const isa::ObjectCode &object, const std::string &main_label,
               const mp::SystemConfig &config,
               const std::string &checkpoint_stem = "")
{
    auto path = [&](std::size_t run) {
        return checkpoint_stem.empty()
                   ? std::string()
                   : cat(checkpoint_stem, "_", run, ".qmc");
    };
    CoreRun serial = runCore(object, main_label, config, path(0));
    std::vector<CoreRun> concurrent(2);
    parallelFor(concurrent.size(), 2, [&](std::size_t i) {
        concurrent[i] = runCore(object, main_label, config, path(i + 1));
    });
    for (std::size_t i = 0; i < concurrent.size(); ++i) {
        SCOPED_TRACE(cat("concurrent copy ", i));
        expectIdentical(serial, concurrent[i]);
    }
    return serial;
}

class FuzzCoreDifferentialTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzCoreDifferentialTest, PlainCorpusByteIdentical)
{
    std::string main_label;
    isa::ObjectCode object =
        compileCorpusProgram(GetParam(), &main_label);
    mp::SystemConfig config;
    config.numPes = corpusPes(GetParam());
    runOnHostCores(object, main_label, config);
}

INSTANTIATE_TEST_SUITE_P(PlainCorpus, FuzzCoreDifferentialTest,
                         ::testing::Range(0, fuzzIters(80)));

class FuzzCoreFaultDifferentialTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzCoreFaultDifferentialTest, FaultCorpusByteIdentical)
{
    // Same plans as FuzzFaultDifferentialTest: each System owns its
    // injector, so every copy must draw the same fault schedule event
    // for event, whatever runs beside it.
    std::string main_label;
    isa::ObjectCode object =
        compileCorpusProgram(GetParam(), &main_label);
    mp::SystemConfig config;
    config.numPes = corpusPes(GetParam());
    fault::FaultPlan plan;
    plan.seed = 0xFA117 + static_cast<std::uint64_t>(GetParam());
    plan.rate = 0.03;
    plan.kinds = fault::kBusDrop | fault::kBusDelay | fault::kPeStall;
    config.faultPlan = plan;
    config.watchdogCycles = 200'000;
    runOnHostCores(object, main_label, config);
}

INSTANTIATE_TEST_SUITE_P(FaultCorpus, FuzzCoreFaultDifferentialTest,
                         ::testing::Range(0, fuzzIters(40)));

class FuzzCoreRecoveryDifferentialTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzCoreRecoveryDifferentialTest, RecoveryCorpusByteIdentical)
{
    // The harsh mix: loss past the retry bound, duplication,
    // corruption, periodic fail-stop, recovery on, periodic
    // checkpoints, bounded replay. Exercises snapshot/restore and the
    // replay loop on concurrent Systems: nothing a replay restores may
    // come from anywhere but the run's own checkpoints.
    std::string main_label;
    isa::ObjectCode object =
        compileCorpusProgram(GetParam(), &main_label);
    mp::SystemConfig config;
    config.numPes = corpusPes(GetParam());
    fault::FaultPlan plan;
    plan.seed = 0x5EC0 + static_cast<std::uint64_t>(GetParam());
    plan.rate = 0.25;
    plan.kinds =
        fault::kBusDrop | fault::kBusDup | fault::kCacheCorrupt;
    plan.maxRetries = 1;
    if (GetParam() % 3 == 0) {
        plan.kinds |= fault::kPeKill;
        plan.killAt = 200;
        plan.killPe = GetParam() % 4;
    }
    config.faultPlan = plan;
    config.watchdogCycles = 200'000;
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 300;
    runOnHostCores(object, main_label, config);
}

INSTANTIATE_TEST_SUITE_P(RecoveryCorpus,
                         FuzzCoreRecoveryDifferentialTest,
                         ::testing::Range(0, fuzzIters(40)));

class FuzzCoreCheckpointDifferentialTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzCoreCheckpointDifferentialTest, CheckpointCorpusByteIdentical)
{
    // Fault-free runs with aggressive periodic checkpoints: every
    // snapshot quiesces the machine mid-run (preempting running and
    // resident contexts), so the checkpoint guard and the quiesce path
    // run many times per program with nothing else perturbing them.
    // Every snapshot is also saved, and every copy's checkpoint files
    // must match the serial run's byte for byte.
    std::string main_label;
    isa::ObjectCode object =
        compileCorpusProgram(GetParam(), &main_label);
    mp::SystemConfig config;
    // A hierarchy needs at least one PE per ring, so pad the machine
    // when this index pins the rings:2x2 shape.
    if (GetParam() % 2 == 0) {
        config.numPes = 4 + corpusPes(GetParam());
        config.setTopology({2, 2});
    } else {
        config.numPes = corpusPes(GetParam());
    }
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 64 + 64 * (GetParam() % 3);
    std::string stem =
        cat(::testing::TempDir(), "core_diff_ckpt_", GetParam());
    CoreRun serial = runOnHostCores(object, main_label, config, stem);
    EXPECT_GE(serial.checkpoints.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(CheckpointCorpus,
                         FuzzCoreCheckpointDifferentialTest,
                         ::testing::Range(0, fuzzIters(12)));

class FuzzCorePartitionedDifferentialTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzCorePartitionedDifferentialTest,
       PartitionedPlainCorpusByteIdentical)
{
    // The plain corpus again, but on hierarchical multi-partition
    // machines: cross-ring transfers, bridge arbitration, and sharded
    // kernel placement must be byte-identical on every host core.
    std::string main_label;
    isa::ObjectCode object =
        compileCorpusProgram(GetParam(), &main_label);
    mp::SystemConfig config;
    config.numPes = 8 + 8 * (GetParam() % 2);  // 8 or 16 PEs
    static const mp::RingTopology kShapes[] = {
        {2, 2}, {4, 1}, {2, 4}, {4, 2}};
    config.setTopology(kShapes[GetParam() % 4]);
    runOnHostCores(object, main_label, config);
}

INSTANTIATE_TEST_SUITE_P(PartitionedPlainCorpus,
                         FuzzCorePartitionedDifferentialTest,
                         ::testing::Range(0, fuzzIters(24)));

class PartitionedRecoveryDifferentialTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(PartitionedRecoveryDifferentialTest,
       PinnedPartitionedCorpusByteIdentical)
{
    // The pinned multi-partition recovery corpus (fuzz_corpus.hpp):
    // PE kills plus loss on hierarchical machines, so checkpoint
    // replay, cross-shard re-dispatch, and bridge-crossing
    // retransmits all run on concurrent Systems.
    const fuzz::PartitionedRecoverySpec &entry =
        fuzz::kPartitionedRecoveryCorpus[static_cast<std::size_t>(
            GetParam())];
    SCOPED_TRACE(entry.faults);
    std::string main_label;
    isa::ObjectCode object =
        compileCorpusProgram(GetParam(), &main_label);
    mp::SystemConfig config;
    config.numPes = entry.pes;
    config.setTopology({entry.rings, entry.partitions});
    config.faultPlan = fault::parseFaultPlan(entry.faults);
    config.watchdogCycles = 200'000;
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 300;
    config.recovery.maxResends = 64;
    runOnHostCores(object, main_label, config);
}

INSTANTIATE_TEST_SUITE_P(
    PinnedPartitionedCorpus, PartitionedRecoveryDifferentialTest,
    ::testing::Range(0,
                     static_cast<int>(std::size(
                         fuzz::kPartitionedRecoveryCorpus))));

TEST(CoreDifferential, WatchdogAccountingPinned)
{
    // Pinned chaos scenario engineered to end runs through the
    // watchdog/starvation path: aggressive loss with a single link
    // retry, no recovery layer, and a tight watchdog. Whatever the
    // exact outcome per index, every copy must agree on the
    // watchdog-tripped flag, the failure reason string, and the cycle
    // the run died at.
    bool saw_trip = false;
    for (int idx = 0; idx < 6; ++idx) {
        SCOPED_TRACE(idx);
        std::string main_label;
        isa::ObjectCode object = compileCorpusProgram(idx, &main_label);
        mp::SystemConfig config;
        config.numPes = 4;
        fault::FaultPlan plan;
        plan.seed = 0xD06 + static_cast<std::uint64_t>(idx);
        plan.rate = 0.5;
        plan.kinds = fault::kBusDrop;
        plan.maxRetries = 1;
        config.faultPlan = plan;
        config.watchdogCycles = 3000;
        CoreRun serial = runOnHostCores(object, main_label, config);
        saw_trip = saw_trip || serial.result.watchdogTripped;
    }
    // The scenario must actually exercise the path it pins.
    EXPECT_TRUE(saw_trip);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(CoreDifferential, BenchAndMetricsJsonByteIdentical)
{
    // The exported documents - the surfaces CI diffing actually
    // consumes - compared byte for byte between a serial sweep and one
    // whose three runs each get a host core of their own. Host timing
    // is measured either way but stays out of the default BENCH
    // document, which is exactly why the comparison can be exact.
    std::string source = ProgramGen(corpusSeed(0)).generate();
    occam::CompiledProgram program = occam::compileOccam(source);
    std::vector<sim::RunSpec> specs;
    for (int pes : {1, 2, 4}) {
        sim::RunSpec spec;
        spec.program = &program;
        spec.pes = pes;
        specs.push_back(spec);
    }

    auto series_at = [&](int jobs) {
        sim::SpeedupSeries series;
        series.name = "corpus0";
        series.runs = sim::runAll(specs, jobs);
        return series;
    };
    sim::SpeedupSeries serial = series_at(1);
    sim::SpeedupSeries parallel = series_at(3);

    // Host timing is machine-dependent by design; everything else in
    // the report must match field for field.
    ASSERT_EQ(serial.runs.size(), parallel.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        EXPECT_EQ(serial.runs[i].cycles, parallel.runs[i].cycles);
        EXPECT_EQ(serial.runs[i].completed, parallel.runs[i].completed);
        EXPECT_EQ(serial.runs[i].stats.render(),
                  parallel.runs[i].stats.render());
        EXPECT_GE(serial.runs[i].hostWallMs, 0.0);
        EXPECT_GE(parallel.runs[i].hostWallMs, 0.0);
    }

    std::string serial_bench = sim::writeBenchJson(
        "corediff", {serial}, "core_diff_jobs1.json");
    std::string parallel_bench = sim::writeBenchJson(
        "corediff", {parallel}, "core_diff_jobs3.json");
    EXPECT_EQ(slurp(serial_bench), slurp(parallel_bench));
    std::remove(serial_bench.c_str());
    std::remove(parallel_bench.c_str());

    std::string serial_metrics = sim::writeMetricsJson(
        "corediff", {serial}, "core_diff_jobs1_metrics.json");
    std::string parallel_metrics = sim::writeMetricsJson(
        "corediff", {parallel}, "core_diff_jobs3_metrics.json");
    EXPECT_EQ(slurp(serial_metrics), slurp(parallel_metrics));
    std::remove(serial_metrics.c_str());
    std::remove(parallel_metrics.c_str());
}

} // namespace

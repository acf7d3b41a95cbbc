/**
 * @file
 * Differential gate between the two simulation cores: the event-driven
 * calendar scheduler (SimCore::Event, the default) must be
 * BYTE-IDENTICAL to the unit-tick scan it replaced (SimCore::Tick) on
 * every observable surface - RunResult fields, the rendered statistics
 * registry, the Chrome trace stream, the full simulated memory image,
 * and the BENCH / metrics JSON documents - across the same corpora the
 * fuzz suites run: plain programs, seeded fault injection, the harsh
 * recovery mix with fail-stops and checkpoint replay, and fault-free
 * runs with periodic checkpoints.
 *
 * Honors QM_FUZZ_ITERS like the fuzz suites (the nightly chaos job
 * widens every corpus).
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
#include "trace/export.hpp"

namespace {

using namespace qm;
using namespace qm::occam;
using fuzz::corpusPes;
using fuzz::corpusSeed;
using fuzz::fuzzIters;
using fuzz::ProgramGen;

/** Everything one core produced that the other must reproduce. */
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
 * Run @p object on @p core, replaying from checkpoints as the recovery
 * plan allows. With a @p checkpoint_path, every snapshot is saved there
 * and the file's bytes are kept in CoreRun::checkpoints.
 */
CoreRun
runCore(const isa::ObjectCode &object, const std::string &main_label,
        mp::SystemConfig config, mp::SimCore core,
        const std::string &checkpoint_path = "")
{
    config.core = core;
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
expectIdentical(const CoreRun &tick, const CoreRun &event)
{
    testutil::expectSameRunResult(tick.result, event.result);
    EXPECT_EQ(tick.stats, event.stats);
    EXPECT_EQ(tick.trace, event.trace);
    EXPECT_EQ(tick.memory, event.memory);
    ASSERT_EQ(tick.checkpoints.size(), event.checkpoints.size());
    for (std::size_t i = 0; i < tick.checkpoints.size(); ++i)
        EXPECT_EQ(tick.checkpoints[i], event.checkpoints[i])
            << "checkpoint file " << i;
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
    expectIdentical(
        runCore(object, main_label, config, mp::SimCore::Tick),
        runCore(object, main_label, config, mp::SimCore::Event));
}

INSTANTIATE_TEST_SUITE_P(PlainCorpus, FuzzCoreDifferentialTest,
                         ::testing::Range(0, fuzzIters(80)));

class FuzzCoreFaultDifferentialTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzCoreFaultDifferentialTest, FaultCorpusByteIdentical)
{
    // Same plans as FuzzFaultDifferentialTest: the injector's decision
    // stream is consumed at the same sites in both cores, so even the
    // injected fault schedule must line up event for event.
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
    expectIdentical(
        runCore(object, main_label, config, mp::SimCore::Tick),
        runCore(object, main_label, config, mp::SimCore::Event));
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
    // checkpoints, bounded replay. Exercises snapshot/restore under
    // both cores - the stat-delta flush points must make checkpoint
    // contents (and everything downstream) agree exactly.
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
    expectIdentical(
        runCore(object, main_label, config, mp::SimCore::Tick),
        runCore(object, main_label, config, mp::SimCore::Event));
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
    // Every snapshot is also saved, and the two cores' checkpoint
    // files must match byte for byte.
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
    std::string path = cat(::testing::TempDir(), "core_diff_ckpt_",
                           GetParam(), ".qmc");
    CoreRun tick =
        runCore(object, main_label, config, mp::SimCore::Tick, path);
    CoreRun event =
        runCore(object, main_label, config, mp::SimCore::Event, path);
    EXPECT_GE(tick.checkpoints.size(), 2u);
    expectIdentical(tick, event);
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
    // kernel placement must be byte-identical under both cores.
    std::string main_label;
    isa::ObjectCode object =
        compileCorpusProgram(GetParam(), &main_label);
    mp::SystemConfig config;
    config.numPes = 8 + 8 * (GetParam() % 2);  // 8 or 16 PEs
    static const mp::RingTopology kShapes[] = {
        {2, 2}, {4, 1}, {2, 4}, {4, 2}};
    config.setTopology(kShapes[GetParam() % 4]);
    expectIdentical(
        runCore(object, main_label, config, mp::SimCore::Tick),
        runCore(object, main_label, config, mp::SimCore::Event));
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
    // retransmits all run under both cores.
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
    expectIdentical(
        runCore(object, main_label, config, mp::SimCore::Tick),
        runCore(object, main_label, config, mp::SimCore::Event));
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
    // exact outcome per index, both cores must agree on the
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
        CoreRun tick =
            runCore(object, main_label, config, mp::SimCore::Tick);
        CoreRun event =
            runCore(object, main_label, config, mp::SimCore::Event);
        expectIdentical(tick, event);
        saw_trip = saw_trip || tick.result.watchdogTripped;
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
    // consumes - compared byte for byte. Host timing is measured by
    // runOnce either way but stays out of the default BENCH document,
    // which is exactly why the comparison can be exact.
    std::string source = ProgramGen(corpusSeed(0)).generate();
    occam::CompiledProgram program = occam::compileOccam(source);

    auto series_for = [&](mp::SimCore core) {
        mp::SystemConfig config;
        config.core = core;
        sim::SpeedupSeries series;
        series.name = "corpus0";
        for (int pes : {1, 2, 4})
            series.runs.push_back(
                sim::runOnce(program, "", {}, pes, config));
        return series;
    };
    sim::SpeedupSeries tick = series_for(mp::SimCore::Tick);
    sim::SpeedupSeries event = series_for(mp::SimCore::Event);

    // Host timing is machine-dependent by design; everything else in
    // the report must match field for field.
    for (std::size_t i = 0; i < tick.runs.size(); ++i) {
        EXPECT_EQ(tick.runs[i].cycles, event.runs[i].cycles);
        EXPECT_EQ(tick.runs[i].completed, event.runs[i].completed);
        EXPECT_EQ(tick.runs[i].stats.render(),
                  event.runs[i].stats.render());
        EXPECT_GE(tick.runs[i].hostWallMs, 0.0);
        EXPECT_GE(event.runs[i].hostWallMs, 0.0);
    }

    std::string tick_bench =
        sim::writeBenchJson("corediff", {tick}, "core_diff_tick.json");
    std::string event_bench = sim::writeBenchJson(
        "corediff", {event}, "core_diff_event.json");
    EXPECT_EQ(slurp(tick_bench), slurp(event_bench));
    std::remove(tick_bench.c_str());
    std::remove(event_bench.c_str());

    std::string tick_metrics = sim::writeMetricsJson(
        "corediff", {tick}, "core_diff_tick_metrics.json");
    std::string event_metrics = sim::writeMetricsJson(
        "corediff", {event}, "core_diff_event_metrics.json");
    EXPECT_EQ(slurp(tick_metrics), slurp(event_metrics));
    std::remove(tick_metrics.c_str());
    std::remove(event_metrics.c_str());
}

} // namespace

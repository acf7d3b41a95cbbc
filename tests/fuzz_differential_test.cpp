/**
 * @file
 * Structured random-program differential fuzzing.
 *
 * Generates random (but well-formed, terminating, race-free) OCCAM
 * programs and checks that the abstract context-graph interpreter and
 * the cycle-level multiprocessor compute identical observable memory.
 * Every divergence this has caught was a real compiler or simulator
 * bug, so the corpus is kept deterministic (seeded) and broad.
 *
 * Further corpora re-run the same programs under seeded fault
 * injection (src/fault), with the recovery layer on, on hierarchical
 * multi-ring machines and under aggressive periodic checkpoints:
 * value-preserving faults must never change the observable result - a
 * run either agrees with the abstract interpreter exactly or fails
 * with a structured reason.
 *
 * Set QM_FUZZ_ITERS to widen every corpus (the nightly chaos CI job
 * runs a multiple of the default).
 */
#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "fuzz_corpus.hpp"
#include "mp/system.hpp"
#include "occam/codegen.hpp"
#include "occam/graph_interp.hpp"
#include "occam/ift.hpp"
#include "occam/parser.hpp"

namespace {

using namespace qm;
using namespace qm::occam;
using fuzz::corpusPes;
using fuzz::corpusSeed;
using fuzz::fuzzIters;
using fuzz::ProgramGen;

/** A program compiled for both executors, plus its result array. */
struct DualProgram
{
    ContextProgram contexts;
    isa::ObjectCode object;
    isa::Addr base = 0;  ///< Address of the result array.
};

DualProgram
compileBoth(const std::string &source, const std::string &array)
{
    Program ast = parse(source);
    SymbolTable table = analyze(ast);
    Ift ift = Ift::build(ast, table);
    DualProgram dual;
    dual.contexts = buildContextGraphs(ast, table, ift);
    for (const auto &[sym, addr] : dual.contexts.dataAddress)
        if (table.symbol(sym).name == array)
            dual.base = addr;
    dual.object = isa::assemble(generateAssembly(dual.contexts));
    return dual;
}

/**
 * Expect the machine's first @p words result words to equal the
 * interpreter's, compared in full: the interpreter computes in 64
 * bits, so a result it failed to wrap to a machine word would show.
 */
void
expectAgree(const GraphInterpreter &interp, mp::System &system,
            isa::Addr base, int words)
{
    ASSERT_NE(base, 0u);
    for (int i = 0; i < words; ++i) {
        isa::Addr addr = base + static_cast<isa::Addr>(i) * 4;
        auto machine =
            static_cast<std::int32_t>(system.memory().readWord(addr));
        EXPECT_EQ(interp.readWord(addr), machine) << "word " << i;
    }
}

/**
 * Run corpus program @p idx on the abstract interpreter and, on the
 * machine @p config describes, on the simulator, replaying from
 * checkpoints when recovery is on. A completed run must agree with the
 * interpreter exactly and have taken at least @p min_checkpoints
 * snapshots; only a faulty run may fail instead, and then it must say
 * why - never a hang, a crash, or a silent wrong answer.
 */
void
expectCorpusAgrees(int idx, const mp::SystemConfig &config,
                   std::uint64_t min_checkpoints = 0)
{
    std::string source = ProgramGen(corpusSeed(idx)).generate();
    SCOPED_TRACE(source);
    DualProgram dual = compileBoth(source, "res");
    GraphInterpreter interp(dual.contexts);
    ASSERT_TRUE(interp.run().completed);

    mp::System system(dual.object, config);
    mp::RunResult result = system.run(dual.contexts.mainLabel);
    if (!result.completed) {
        ASSERT_TRUE(config.faultPlan.enabled()) << result.failureReason;
        EXPECT_FALSE(result.failureReason.empty());
        return;
    }
    expectAgree(interp, system, dual.base, 8);
    EXPECT_GE(system.stats().counter("sys.checkpoints"), min_checkpoints);
}

class FuzzDifferentialTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzDifferentialTest, ExecutorsAgree)
{
    mp::SystemConfig config;
    config.numPes = corpusPes(GetParam());
    expectCorpusAgrees(GetParam(), config);
}

INSTANTIATE_TEST_SUITE_P(Corpus, FuzzDifferentialTest,
                         ::testing::Range(0, fuzzIters(80)));

/**
 * Pinned programs at the edges of the 32-bit word, each writing
 * r[0..results): the interpreter must wrap every folded and run-time
 * result exactly like the machine's ALU.
 */
struct WordEdgeProgram
{
    const char *source;
    int results;
};

const WordEdgeProgram kWordEdgePrograms[] = {
    // INT32_MIN / -1 at run time: a host SIGFPE before the ALU wrapped.
    {"var r[4]:\n"
     "seq\n"
     "  r[0] := 0 - 2147483647\n"
     "  r[1] := r[0] - 1\n"
     "  r[2] := 0 - 1\n"
     "  r[3] := r[1] / r[2]\n",
     4},
    // The same edges folded at compile time.
    {"var r[6]:\n"
     "seq\n"
     "  r[0] := 65536 * 65536\n"
     "  r[1] := 2147483647 + 1\n"
     "  r[2] := (0 - 2147483647) - 2\n"
     "  r[3] := ((0 - 2147483647) - 1) / (0 - 1)\n"
     "  r[4] := ((0 - 2147483647) - 1) \\ (0 - 1)\n"
     "  r[5] := -((0 - 2147483647) - 1)\n",
     6},
    // And at run time, through memory so nothing folds.
    {"var r[8]:\n"
     "seq\n"
     "  r[6] := 65536\n"
     "  r[7] := (0 - 2147483647) - 1\n"
     "  r[0] := r[6] * r[6]\n"
     "  r[1] := (r[6] + 1) * (r[6] + 1)\n"
     "  r[2] := r[7] / (0 - 1)\n"
     "  r[3] := r[7] \\ (0 - 1)\n"
     "  r[4] := r[7] - 1\n"
     "  r[5] := -r[7]\n",
     6},
};

TEST(FuzzDifferential, WordEdgesAgree)
{
    for (const WordEdgeProgram &edge : kWordEdgePrograms) {
        SCOPED_TRACE(edge.source);
        DualProgram dual = compileBoth(edge.source, "r");
        GraphInterpreter interp(dual.contexts);
        ASSERT_TRUE(interp.run().completed);
        mp::System system(dual.object, mp::SystemConfig{});
        ASSERT_TRUE(system.run(dual.contexts.mainLabel).completed);
        expectAgree(interp, system, dual.base, edge.results);
    }
}

class FuzzFaultDifferentialTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzFaultDifferentialTest, FaultyRunAgreesOrFailsCleanly)
{
    // Value-preserving fault mix seeded from the corpus index: the
    // schedule differs per program but stays reproducible. A lost
    // message beyond the retry bound is an acceptable degraded outcome.
    mp::SystemConfig config;
    config.numPes = corpusPes(GetParam());
    config.faultPlan.seed = 0xFA117 + static_cast<std::uint64_t>(GetParam());
    config.faultPlan.rate = 0.03;
    config.faultPlan.kinds =
        fault::kBusDrop | fault::kBusDelay | fault::kPeStall;
    config.watchdogCycles = 200'000;
    expectCorpusAgrees(GetParam(), config);
}

INSTANTIATE_TEST_SUITE_P(FaultCorpus, FuzzFaultDifferentialTest,
                         ::testing::Range(0, fuzzIters(40)));

class FuzzRecoveryDifferentialTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzRecoveryDifferentialTest, RecoveredRunAgreesExactly)
{
    // A third corpus under a much harsher fault mix (loss beyond the
    // link retry bound, duplication, corruption, and a periodic
    // fail-stop), but with the recovery layer on: end-to-end
    // retransmission, seq dedup, checksum heal, span restart, and
    // bounded checkpoint replay. The bar is the same as the fault-free
    // corpus - exact agreement with the abstract interpreter - with a
    // structured failure as the only acceptable degraded outcome.
    mp::SystemConfig config;
    config.numPes = corpusPes(GetParam());
    fault::FaultPlan &plan = config.faultPlan;
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
    config.watchdogCycles = 200'000;
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 300;
    expectCorpusAgrees(GetParam(), config);
}

INSTANTIATE_TEST_SUITE_P(RecoveryCorpus, FuzzRecoveryDifferentialTest,
                         ::testing::Range(0, fuzzIters(40)));

class FuzzPartitionedDifferentialTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzPartitionedDifferentialTest, PartitionedRunAgrees)
{
    // The plain corpus on hierarchical multi-partition machines:
    // cross-ring transfers, bridge arbitration and sharded kernel
    // placement must not change a result.
    mp::SystemConfig config;
    config.numPes = 8 + 8 * (GetParam() % 2);  // 8 or 16 PEs
    static const mp::RingTopology kShapes[] = {
        {2, 2}, {4, 1}, {2, 4}, {4, 2}};
    config.setTopology(kShapes[GetParam() % 4]);
    expectCorpusAgrees(GetParam(), config);
}

INSTANTIATE_TEST_SUITE_P(PartitionedPlainCorpus,
                         FuzzPartitionedDifferentialTest,
                         ::testing::Range(0, fuzzIters(24)));

class FuzzCheckpointDifferentialTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzCheckpointDifferentialTest, CheckpointedRunAgrees)
{
    // Fault-free runs with aggressive periodic checkpoints: every
    // snapshot quiesces the machine mid-run (preempting running and
    // resident contexts), so the checkpoint guard and the quiesce path
    // run many times per program with nothing else perturbing them.
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
    expectCorpusAgrees(GetParam(), config, /*min_checkpoints=*/2);
}

INSTANTIATE_TEST_SUITE_P(CheckpointCorpus, FuzzCheckpointDifferentialTest,
                         ::testing::Range(0, fuzzIters(12)));

} // namespace

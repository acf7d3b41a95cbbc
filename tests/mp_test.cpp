/**
 * @file
 * Tests for the ring bus and the multiprocessor system: context
 * creation, dynamic data-flow graph splicing via channels, kernel traps,
 * and scheduling (thesis Chapters 5.6 and 6).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "isa/assembler.hpp"
#include "isa/runtime.hpp"
#include "mp/ring_bus.hpp"
#include "mp/system.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace qm;
using namespace qm::isa;
using namespace qm::mp;

TEST(RingBus, LocalTransfersSkipTheRing)
{
    RingBus bus({4, 2});
    EXPECT_EQ(bus.transfer(1, 1, 100), 102);
}

TEST(RingBus, RemoteTransferCrossesPartitions)
{
    // 4 PEs, 2 partitions: PEs 0,1 on partition 0; PEs 2,3 on 1.
    RingBus bus({4, 2});
    EXPECT_EQ(bus.partitionOf(0), 0);
    EXPECT_EQ(bus.partitionOf(1), 0);
    EXPECT_EQ(bus.partitionOf(2), 1);
    EXPECT_EQ(bus.partitionOf(3), 1);
    EXPECT_EQ(bus.partitionsCrossed(0, 1), 1);
    EXPECT_EQ(bus.partitionsCrossed(0, 2), 2);
    // 0 -> 1 stays on one partition: overhead 2 + 1 hop of 4.
    EXPECT_EQ(bus.transfer(0, 1, 0), 6);
}

TEST(RingBus, ContentionSerializesSharedPartitions)
{
    RingBus bus({4, 2});
    Cycle first = bus.transfer(0, 1, 0);
    // Second message through the same partition at the same time waits.
    Cycle second = bus.transfer(1, 0, 0);
    EXPECT_GT(second, first);
}

TEST(RingBus, DisjointPartitionsProceedConcurrently)
{
    RingBus bus({4, 2});
    Cycle a = bus.transfer(0, 1, 0);
    Cycle b = bus.transfer(2, 3, 0);
    EXPECT_EQ(a, b);  // no shared partition, no serialization
}

TEST(RingBus, ZeroRetryBudgetLosesOnTheFirstDrop)
{
    // maxRetries=0: a single dropped transfer exhausts the link layer
    // immediately - one attempt, no retry, no backoff charged.
    fault::FaultPlan plan =
        fault::parseFaultPlan("seed=1,rate=1.0,kinds=drop");
    plan.maxRetries = 0;
    fault::FaultInjector faults(plan);
    RingBus bus({4, 2});
    bus.setFaultInjector(&faults);
    BusDelivery d = bus.deliver(0, 2, 0);
    EXPECT_FALSE(d.delivered);
    EXPECT_EQ(d.attempts, 1);
    EXPECT_EQ(bus.stats().counter("fault.bus_drop"), 1u);
    EXPECT_EQ(bus.stats().counter("fault.bus_retry"), 0u);
    EXPECT_EQ(bus.stats().counter("fault.bus_backoff_cycles"), 0u);
    EXPECT_EQ(bus.stats().counter("fault.bus_lost"), 1u);
}

TEST(RingBus, CanSucceedExactlyAtTheLastAllowedAttempt)
{
    // Scan seeds for a delivery whose first maxRetries attempts all
    // drop and whose final allowed attempt lands: the boundary where
    // the retry bound is reached but not exceeded.
    fault::FaultPlan plan =
        fault::parseFaultPlan("seed=1,rate=0.5,kinds=drop");
    plan.maxRetries = 3;
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 1000 && !found; ++seed) {
        plan.seed = seed;
        fault::FaultInjector faults(plan);
        RingBus bus({4, 2});
        bus.setFaultInjector(&faults);
        BusDelivery d = bus.deliver(0, 2, 0);
        if (!d.delivered || d.attempts != plan.maxRetries + 1)
            continue;
        found = true;
        EXPECT_EQ(bus.stats().counter("fault.bus_drop"),
                  static_cast<std::uint64_t>(plan.maxRetries));
        EXPECT_EQ(bus.stats().counter("fault.bus_retry"),
                  static_cast<std::uint64_t>(plan.maxRetries));
        EXPECT_EQ(bus.stats().counter("fault.drop.recovered"),
                  static_cast<std::uint64_t>(plan.maxRetries));
        EXPECT_EQ(bus.stats().counter("fault.bus_lost"), 0u);
    }
    EXPECT_TRUE(found)
        << "no seed in [1,1000] hit the retry bound exactly";
}

TEST(RingBus, BackoffShiftSaturatesAtLargeRetryCounts)
{
    // With 20 retries at rate=1.0 every attempt drops; the backoff
    // exponent is clamped at 16, so the charged cycles must equal
    // sum_{a=0..19} 8 << min(a, 16) rather than overflowing the shift.
    fault::FaultPlan plan =
        fault::parseFaultPlan("seed=7,rate=1.0,kinds=drop");
    plan.maxRetries = 20;
    fault::FaultInjector faults(plan);
    RingBus bus({4, 2});
    bus.setFaultInjector(&faults);
    BusDelivery d = bus.deliver(0, 2, 0);
    EXPECT_FALSE(d.delivered);
    EXPECT_EQ(d.attempts, plan.maxRetries + 1);
    std::uint64_t expected = 0;
    for (int a = 0; a < plan.maxRetries; ++a)
        expected += static_cast<std::uint64_t>(
            plan.retryBackoff << std::min(a, 16));
    EXPECT_EQ(bus.stats().counter("fault.bus_backoff_cycles"),
              expected);
    EXPECT_EQ(bus.stats().counter("fault.bus_drop"),
              static_cast<std::uint64_t>(plan.maxRetries + 1));
}

/**
 * The original PE-by-PE reference walk partitionsCrossed replaced
 * with closed-form partition arithmetic: walk the ring upward from
 * src to dst counting partition boundaries crossed (inclusive of the
 * destination's partition entry), capped at the partition count.
 */
int
walkCrossings(int src, int dst, int pes, int partitions)
{
    if (src == dst)
        return 0;
    auto part = [&](int pe) { return pe * partitions / pes; };
    int crossings = 1;
    int pe = src;
    while (pe != dst) {
        int next = (pe + 1) % pes;
        if (part(next) != part(pe))
            ++crossings;
        pe = next;
    }
    return std::min(crossings, partitions);
}

TEST(RingBus, ClosedFormCrossingsMatchTheReferenceWalk)
{
    // Exhaustive over every (src, dst) pair for machines up to 256
    // PEs, including partition counts that do not divide the PE count
    // (uneven partition blocks are where the arithmetic is easy to
    // get wrong).
    for (int pes : {2, 3, 4, 5, 7, 8, 16, 63, 64, 256}) {
        for (int partitions : {1, 2, 3, 5, 7, 8, pes}) {
            if (partitions > pes)
                continue;
            RingBus bus({pes, partitions});
            for (int src = 0; src < pes; ++src)
                for (int dst = 0; dst < pes; ++dst)
                    ASSERT_EQ(bus.partitionsCrossed(src, dst),
                              walkCrossings(src, dst, pes, partitions))
                        << "pes=" << pes
                        << " partitions=" << partitions
                        << " src=" << src << " dst=" << dst;
        }
    }
}

TEST(RingBus, ConstructorRejectsImpossibleMachines)
{
    // Flat ring with more partitions than PEs: used to be silently
    // clamped, now a hard configuration error.
    EXPECT_THROW(RingBus({4, 8}), FatalError);
    // More local rings than PEs.
    EXPECT_THROW(RingBus({4, 1, /*rings=*/8}), FatalError);
    // 4 rings over 8 PEs leaves 2-PE rings: 3 partitions cannot seat.
    EXPECT_THROW(RingBus({8, 3, /*rings=*/4}), FatalError);
    EXPECT_THROW(RingBus({0, 1}), FatalError);
    EXPECT_THROW(RingBus({4, 0}), FatalError);
    // The same shapes one PE bigger are all buildable.
    EXPECT_NO_THROW(RingBus({8, 8}));
    EXPECT_NO_THROW(RingBus({8, 2, /*rings=*/4}));
}

TEST(RingBus, ParseTopologySpellings)
{
    RingTopology flat = parseTopology("ring");
    EXPECT_EQ(flat.rings, 1);
    EXPECT_EQ(flat.partitions, 2);
    RingTopology wide = parseTopology("ring:8");
    EXPECT_EQ(wide.rings, 1);
    EXPECT_EQ(wide.partitions, 8);
    RingTopology hier = parseTopology("rings:4x2");
    EXPECT_EQ(hier.rings, 4);
    EXPECT_EQ(hier.partitions, 2);
    EXPECT_EQ(topologyName(flat), "ring");
    EXPECT_EQ(topologyName(wide), "ring:8");
    EXPECT_EQ(topologyName(hier), "rings:4x2");
    for (const char *bad :
         {"grid:2x2", "rings:4", "rings:x2", "rings:4x", "ring:0",
          "rings:1x2", "rings:4x0", "", "ring:"})
        EXPECT_THROW(parseTopology(bad), FatalError) << bad;
}

TEST(RingBus, HierarchicalGeometryAndCrossRingPath)
{
    // 8 PEs as 2 rings of 4, 2 partitions each; the model's 1-cycle
    // bridges and backbone hops keep the pinned arithmetic easy to
    // audit.
    RingBus bus({8, 2, /*rings=*/2});
    EXPECT_EQ(bus.numRings(), 2);
    EXPECT_EQ(bus.ringOf(3), 0);
    EXPECT_EQ(bus.ringOf(4), 1);
    EXPECT_EQ(bus.ringBase(1), 4);
    EXPECT_EQ(bus.ringSize(0), 4);
    // Same ring: the flat closed form on local indices.
    EXPECT_EQ(bus.partitionsCrossed(0, 3), 2);
    // Cross ring: 2 exit segments + 1 backbone hop + 1 entry segment.
    EXPECT_EQ(bus.partitionsCrossed(0, 4), 4);
    // Wrap direction: 2 exit + 1 backbone + 2 entry.
    EXPECT_EQ(bus.partitionsCrossed(5, 2), 5);
    // Uncontended cross-ring latency: overhead 2 + exit 2*4 + bridge 1
    // + backbone 1 + bridge 1 + entry 1*4 = 17.
    EXPECT_EQ(bus.transfer(0, 4, 0), 17);
    EXPECT_EQ(bus.stats().counter("bus.bridge_transfers"), 1u);
    EXPECT_EQ(bus.stats().counter("bus.backbone_hops"), 1u);
    EXPECT_TRUE(bus.stats().hasHistogram("bus.bridge_wait"));
}

TEST(RingBus, BridgeSerializesCrossRingTraffic)
{
    RingBus bus({8, 2, /*rings=*/2});
    // Two messages out of different source partitions of ring 0 share
    // nothing locally but both need ring 0's bridge.
    Cycle a = bus.transfer(3, 4, 0);   // exit 1 segment, bridge at t=6
    Cycle b = bus.transfer(3, 4, 0);
    EXPECT_GT(b, a);
    EXPECT_GT(bus.stats().counter("bus.contention_cycles"), 0u);
    // Traffic inside ring 1 never touches ring 0's segments or bridge.
    RingBus quiet({8, 2, /*rings=*/2});
    Cycle local0 = quiet.transfer(0, 3, 0);
    Cycle local1 = quiet.transfer(4, 7, 0);
    EXPECT_EQ(local0, local1);  // disjoint rings, no serialization
}

TEST(RingBus, HierarchicalSnapshotRestoresTimingState)
{
    RingBus bus({8, 2, /*rings=*/2});
    bus.transfer(0, 4, 0);
    RingBus::Snapshot snap = bus.snapshot();
    Cycle contended = bus.transfer(0, 4, 0);
    bus.restore(snap);
    EXPECT_EQ(bus.transfer(0, 4, 0), contended);
    EXPECT_EQ(bus.stats().counter("bus.remote_transfers"), 2u);
}

/** Boot assembly that exits immediately. */
const char *kExitProgram =
    "main:\n"
    "  trap #0,#0\n";

TEST(System, BootAndExit)
{
    ObjectCode code = assemble(kExitProgram);
    SystemConfig config;
    config.numPes = 1;
    System system(code, config);
    RunResult result = system.run("main");
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.contexts, 1u);
    EXPECT_GT(result.cycles, 0);
}

TEST(System, RunIsSingleUse)
{
    ObjectCode code = assemble(kExitProgram);
    System system(code, SystemConfig{});
    system.run("main");
    EXPECT_THROW(system.run("main"), PanicError);
}

/**
 * Parent rforks a child, sends it two values on the child's in channel,
 * and receives their sum from the child's out channel (in = id,
 * out = id + 1). The classic graph-splice rendezvous of section 4.2.
 */
const char *kForkAddProgram =
    "main:\n"
    "  trap #1,@child :r17\n"   // rfork -> r17 = child in-channel
    "  send r17,#30\n"
    "  send r17,#12\n"
    "  plus r17,#1 :r18\n"      // child's out channel
    "  recv r18 :r19\n"
    "  store #6291456,r19\n"    // data segment base
    "  trap #0,#0\n"
    "child:\n"
    "  trap #3,#0 :r17\n"       // getin
    "  trap #4,#0 :r18\n"       // getout
    "  recv r17 :r0\n"
    "  recv r17 :r1\n"
    "  plus++ r0,r1 :r19\n"
    "  send r18,r19\n"
    "  trap #0,#0\n";

TEST(System, ForkSendReceiveComputesAcrossContexts)
{
    for (int pes : {1, 2, 4}) {
        ObjectCode code = assemble(kForkAddProgram);
        SystemConfig config;
        config.numPes = pes;
        System system(code, config);
        RunResult result = system.run("main");
        ASSERT_TRUE(result.completed) << "pes=" << pes;
        EXPECT_EQ(system.memory().readWord(kDataBase), 42u)
            << "pes=" << pes;
        EXPECT_EQ(result.contexts, 2u);
        EXPECT_GE(result.rendezvous, 3u);
    }
}

/**
 * Fan-out: the parent forks N children; child k computes k*k and sends
 * it back; the parent sums the results. Exercises round-robin placement
 * across PEs and out-of-order rendezvous completion.
 */
const char *kFanOutProgram =
    "main:\n"
    "  plus #0,#0 :r20\n"        // sum
    "  plus #0,#0 :r21\n"        // k
    "  plus #6,#0 :r22\n"        // N = 6
    "fork_loop:\n"
    "  trap #1,@child :r17\n"
    "  send r17,r21\n"           // give the child its index
    "  plus r17,#1 :r23\n"
    "  recv r23 :r24\n"          // collect k*k
    "  plus r20,r24 :r20\n"
    "  plus r21,#1 :r21\n"
    "  lt r21,r22 :r25\n"
    "  bne r25,@fork_loop\n"
    "  store #6291456,r20\n"
    "  trap #0,#0\n"
    "child:\n"
    "  trap #3,#0 :r17\n"
    "  trap #4,#0 :r18\n"
    "  recv r17 :r0\n"
    "  mul r0,r0 :r19\n"
    "  plus+ r0,#0 :dummy,dummy\n"  // consume the queue operand
    "  send r18,r19\n"
    "  trap #0,#0\n";

TEST(System, FanOutAcrossPes)
{
    // 0+1+4+9+16+25 = 55 regardless of PE count.
    for (int pes : {1, 2, 3, 8}) {
        ObjectCode code = assemble(kFanOutProgram);
        SystemConfig config;
        config.numPes = pes;
        System system(code, config);
        RunResult result = system.run("main");
        ASSERT_TRUE(result.completed) << "pes=" << pes;
        EXPECT_EQ(system.memory().readWord(kDataBase), 55u)
            << "pes=" << pes;
        EXPECT_EQ(result.contexts, 7u);
    }
}

TEST(System, IforkInheritsOutChannel)
{
    // main rforks head; head iforks tail; tail sends on its inherited
    // out channel, which is head's out, so main receives tail's value.
    const char *program =
        "main:\n"
        "  trap #1,@head :r17\n"
        "  send r17,#5\n"
        "  plus r17,#1 :r18\n"
        "  recv r18 :r19\n"
        "  store #6291456,r19\n"
        "  trap #0,#0\n"
        "head:\n"
        "  trap #3,#0 :r17\n"
        "  recv r17 :r0\n"
        "  trap #2,@tail :r18\n"   // ifork: child out = head out
        "  plus+ r0,#1 :r19\n"
        "  send r18,r19\n"
        "  trap #0,#0\n"
        "tail:\n"
        "  trap #3,#0 :r17\n"
        "  trap #4,#0 :r18\n"
        "  recv r17 :r0\n"
        "  mul+ r0,#10 :r19\n"
        "  send r18,r19\n"
        "  trap #0,#0\n";
    ObjectCode code = assemble(program);
    SystemConfig config;
    config.numPes = 2;
    System system(code, config);
    RunResult result = system.run("main");
    ASSERT_TRUE(result.completed);
    // (5+1)*10 = 60 lands back in main.
    EXPECT_EQ(system.memory().readWord(kDataBase), 60u);
}

TEST(System, DeadlockIsDetectedAndReported)
{
    // A context that receives on a channel nobody sends to.
    const char *program =
        "main:\n"
        "  trap #8,#0 :r17\n"   // fresh channel
        "  recv r17 :r18\n"
        "  trap #0,#0\n";
    ObjectCode code = assemble(program);
    System system(code, SystemConfig{});
    EXPECT_THROW(system.run("main"), FatalError);
}

TEST(System, AllocReturnsDistinctRegions)
{
    const char *program =
        "main:\n"
        "  trap #5,#64 :r17\n"
        "  trap #5,#64 :r18\n"
        "  minus r18,r17 :r19\n"
        "  store #6291456,r19\n"
        "  trap #0,#0\n";
    ObjectCode code = assemble(program);
    System system(code, SystemConfig{});
    system.run("main");
    EXPECT_EQ(system.memory().readWord(kDataBase), 64u);
}

TEST(System, WaitBlocksUntilTime)
{
    const char *program =
        "main:\n"
        "  trap #7,#2000\n"    // wait until cycle 2000
        "  trap #6,#0 :r17\n"  // now
        "  store #6291456,r17\n"
        "  trap #0,#0\n";
    ObjectCode code = assemble(program);
    System system(code, SystemConfig{});
    RunResult result = system.run("main");
    ASSERT_TRUE(result.completed);
    EXPECT_GE(system.memory().readWord(kDataBase), 2000u);
    EXPECT_GE(result.cycles, 2000);
}

TEST(System, MoreWorkersShortenElapsedTime)
{
    // Six independent compute-heavy children: wall-clock cycles with 4
    // PEs must be well under the 1-PE time.
    const char *program =
        "main:\n"
        "  plus #0,#0 :r21\n"
        "fork_loop:\n"
        "  trap #1,@worker :r17\n"
        "  send r17,#1000\n"
        "  plus r17,#1 :r23\n"
        "  plus r21,#1 :r21\n"
        "  lt r21,#6 :r25\n"
        "  bne r25,@fork_loop\n"
        "  trap #0,#0\n"
        "worker:\n"
        "  trap #3,#0 :r17\n"
        "  recv r17 :r0\n"
        "  plus+ r0,#0 :r18\n"
        "spin:\n"
        "  minus r18,#1 :r18\n"
        "  bne r18,@spin\n"
        "  trap #0,#0\n";

    auto cycles_for = [&](int pes) {
        ObjectCode code = assemble(program);
        SystemConfig config;
        config.numPes = pes;
        System system(code, config);
        RunResult result = system.run("main");
        EXPECT_TRUE(result.completed);
        return result.cycles;
    };
    Cycle one = cycles_for(1);
    Cycle four = cycles_for(4);
    EXPECT_LT(four * 2, one);  // at least 2x faster with 4 PEs
}

TEST(System, TimeoutStillReportsProgress)
{
    // Six spinning workers cannot finish in 500 cycles; the run must
    // time out but still report the work it did (the old timeout path
    // returned zeroed instruction/utilization statistics).
    const char *program =
        "main:\n"
        "  plus #100000,#0 :r18\n"
        "spin:\n"
        "  minus r18,#1 :r18\n"
        "  bne r18,@spin\n"
        "  trap #0,#0\n";
    ObjectCode code = assemble(program);
    SystemConfig config;
    config.numPes = 2;
    System system(code, config);
    RunResult result = system.run("main", /*max_cycles=*/500);
    EXPECT_FALSE(result.completed);
    EXPECT_GT(result.instructions, 0u);
    EXPECT_GT(result.cycles, 0);
    EXPECT_LE(result.cycles, 600);  // close to the limit, not past it
    EXPECT_GT(result.utilization, 0.0);
    EXPECT_EQ(result.contexts, 1u);
    // Stats are finalized too: merged PE counters and the breakdown.
    EXPECT_GT(system.stats().counter("pe.instructions"), 0u);
    EXPECT_GT(result.computeCycles, 0);
}

TEST(System, TimeoutOvershootIsBoundedByOneStep)
{
    // Regression: the budget used to be checked only between
    // dispatches, so the 16-step inner batch could run a PE well past
    // max_cycles (tens of cycles for cheap instructions, more for
    // expensive ones). The check now fires inside the batch, bounding
    // the overshoot by a single instruction plus end-of-run
    // bookkeeping.
    const char *program =
        "main:\n"
        "  plus #100000,#0 :r18\n"
        "spin:\n"
        "  minus r18,#1 :r18\n"
        "  bne r18,@spin\n"
        "  trap #0,#0\n";
    ObjectCode code = assemble(program);
    for (Cycle budget : {500, 777, 1000}) {
        SystemConfig config;
        System system(code, config);
        RunResult result = system.run("main", budget);
        EXPECT_FALSE(result.completed);
        EXPECT_GT(result.cycles, 0);
        // Slack: the instruction that crosses the budget (<= a few
        // cycles for this program) - far below the up-to-16-step
        // batch overshoot of the old code.
        EXPECT_LE(result.cycles, budget + 8) << "budget " << budget;
    }
}

TEST(System, CycleBreakdownAccountsForEveryPeCycle)
{
    for (int pes : {1, 4}) {
        ObjectCode code = assemble(kFanOutProgram);
        SystemConfig config;
        config.numPes = pes;
        System system(code, config);
        RunResult result = system.run("main");
        ASSERT_TRUE(result.completed);
        EXPECT_EQ(result.computeCycles + result.kernelCycles +
                      result.blockedCycles,
                  result.cycles * pes)
            << "pes=" << pes;
        EXPECT_GT(result.computeCycles, 0);
        EXPECT_GT(result.kernelCycles, 0);
    }
}

TEST(System, TraceEventCountsMatchStatCounters)
{
    ObjectCode code = assemble(kFanOutProgram);
    SystemConfig config;
    config.numPes = 4;
    config.traceConfig.enabled = true;
    System system(code, config);
    RunResult result = system.run("main");
    ASSERT_TRUE(result.completed);

    const trace::Tracer &tracer = system.tracer();
    using trace::EventKind;
    EXPECT_EQ(tracer.countOf(EventKind::CtxCreate),
              system.stats().counter("sys.contexts_created"));
    EXPECT_EQ(tracer.countOf(EventKind::CtxFinish),
              system.stats().counter("sys.contexts_finished"));
    EXPECT_EQ(tracer.countOf(EventKind::Rendezvous),
              system.stats().counter("msg.rendezvous"));
    EXPECT_EQ(tracer.countOf(EventKind::BusTransfer),
              system.stats().counter("bus.remote_transfers"));
    EXPECT_EQ(tracer.countOf(EventKind::TrapEnter),
              system.stats().counter("pe.traps"));
    EXPECT_EQ(tracer.dropped(), 0u);

    // Busy spans never overlap per PE and sum to the busy time that
    // utilization is computed from.
    std::map<int, Cycle> last_end;
    for (const trace::Event &e : tracer.events()) {
        if (e.kind != EventKind::PeBusy)
            continue;
        EXPECT_GE(e.at, last_end[e.pe]);
        EXPECT_GE(e.end, e.at);
        last_end[e.pe] = e.end;
    }
}

TEST(System, TracingDisabledRecordsNothing)
{
    ObjectCode code = assemble(kForkAddProgram);
    System system(code, SystemConfig{});
    system.run("main");
    EXPECT_FALSE(system.tracer().enabled());
    EXPECT_TRUE(system.tracer().events().empty());
}

} // namespace

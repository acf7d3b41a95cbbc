/**
 * @file
 * Tests for the fault-injection layer (src/fault) and its wiring
 * through the bus, message cache, PEs, kernel, and experiment runner:
 * plan parsing, schedule determinism, and the chaos suite that runs
 * every Chapter 6 benchmark degraded and demands either a verified
 * result or a clean structured failure - never a hang or a crash.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "fuzz_corpus.hpp"
#include "isa/assembler.hpp"
#include "mp/ring_bus.hpp"
#include "mp/system.hpp"
#include "occam/compiler.hpp"
#include "programs/benchmarks.hpp"
#include "run_result_expect.hpp"
#include "sim/experiment.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace qm;
using namespace qm::fault;

// ---------------------------------------------------------------------
// FaultPlan parsing

TEST(FaultPlanParse, DefaultsAreValuePreserving)
{
    FaultPlan plan = parseFaultPlan("seed=5");
    EXPECT_EQ(plan.seed, 5u);
    EXPECT_DOUBLE_EQ(plan.rate, 0.01);
    EXPECT_EQ(plan.kinds, kDefaultKinds);
    EXPECT_EQ(plan.maxRetries, 4);
    EXPECT_EQ(plan.retryBackoff, 8);
    EXPECT_EQ(plan.maxDelay, 64);
    EXPECT_EQ(plan.maxStall, 32);
    EXPECT_TRUE(plan.enabled());
    // Corruption is opt-in: the default mask must not include it.
    EXPECT_EQ(plan.kinds & kCacheCorrupt, 0u);
}

TEST(FaultPlanParse, FullSpecRoundTripsThroughToString)
{
    const std::string spec =
        "seed=42,rate=0.05,kinds=drop+dup+delay+corrupt+stall,"
        "retries=6,backoff=16,delay=128,stall=48";
    FaultPlan plan = parseFaultPlan(spec);
    EXPECT_EQ(plan.seed, 42u);
    EXPECT_DOUBLE_EQ(plan.rate, 0.05);
    EXPECT_EQ(plan.kinds, kAllKinds);
    EXPECT_EQ(plan.maxRetries, 6);
    EXPECT_EQ(plan.retryBackoff, 16);
    EXPECT_EQ(plan.maxDelay, 128);
    EXPECT_EQ(plan.maxStall, 48);

    FaultPlan again = parseFaultPlan(toString(plan));
    EXPECT_EQ(again.seed, plan.seed);
    EXPECT_DOUBLE_EQ(again.rate, plan.rate);
    EXPECT_EQ(again.kinds, plan.kinds);
    EXPECT_EQ(again.maxRetries, plan.maxRetries);
    EXPECT_EQ(again.retryBackoff, plan.retryBackoff);
    EXPECT_EQ(again.maxDelay, plan.maxDelay);
    EXPECT_EQ(again.maxStall, plan.maxStall);
}

TEST(FaultPlanParse, KindsAllEnablesEverything)
{
    EXPECT_EQ(parseFaultPlan("kinds=all").kinds, kAllKinds);
    // "all" covers the stochastic kinds only: a fail-stop needs an
    // explicit schedule (killat), so pekill stays out of the mask.
    EXPECT_EQ(parseFaultPlan("kinds=all").kinds & kPeKill, 0u);
}

TEST(FaultPlanParse, KillAtImpliesPeKillAndRoundTrips)
{
    FaultPlan plan = parseFaultPlan("seed=1,killat=750,killpe=2");
    EXPECT_TRUE(plan.enabled());
    EXPECT_NE(plan.kinds & kPeKill, 0u);
    EXPECT_EQ(plan.killAt, 750);
    EXPECT_EQ(plan.killPe, 2);

    FaultPlan again = parseFaultPlan(toString(plan));
    EXPECT_EQ(again.kinds, plan.kinds);
    EXPECT_EQ(again.killAt, plan.killAt);
    EXPECT_EQ(again.killPe, plan.killPe);

    // Naming the kind without a schedule gets the default kill time.
    FaultPlan defaulted = parseFaultPlan("seed=1,kinds=pekill");
    EXPECT_NE(defaulted.kinds & kPeKill, 0u);
    EXPECT_GT(defaulted.killAt, 0);
}

TEST(FaultPlanParse, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseFaultPlan("bogus=1"), FatalError);
    EXPECT_THROW(parseFaultPlan("kinds=gamma-ray"), FatalError);
    EXPECT_THROW(parseFaultPlan("kinds="), FatalError);
    EXPECT_THROW(parseFaultPlan("rate=0"), FatalError);
    EXPECT_THROW(parseFaultPlan("rate=1.5"), FatalError);
    EXPECT_THROW(parseFaultPlan("rate=-0.1"), FatalError);
    EXPECT_THROW(parseFaultPlan("rate=abc"), FatalError);
    EXPECT_THROW(parseFaultPlan("seed=-3"), FatalError);
    EXPECT_THROW(parseFaultPlan("seed=notanumber"), FatalError);
    EXPECT_THROW(parseFaultPlan("retries=-1"), FatalError);
    EXPECT_THROW(parseFaultPlan("backoff=0"), FatalError);
    EXPECT_THROW(parseFaultPlan("seed"), FatalError);
}

// ---------------------------------------------------------------------
// Injector determinism

TEST(FaultInjector, SameSeedDrawsIdenticalSchedule)
{
    FaultPlan plan = parseFaultPlan("seed=99,rate=0.25,kinds=all");
    FaultInjector a(plan), b(plan);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.fire(kBusDrop), b.fire(kBusDrop));
        EXPECT_EQ(a.fire(kCacheCorrupt), b.fire(kCacheCorrupt));
        EXPECT_EQ(a.delayCycles(), b.delayCycles());
        EXPECT_EQ(a.stallCycles(), b.stallCycles());
        EXPECT_EQ(a.corruptWord(0xDEADBEEFu), b.corruptWord(0xDEADBEEFu));
    }
    EXPECT_EQ(a.injected(), b.injected());
    EXPECT_EQ(a.injectedOf(kBusDrop), b.injectedOf(kBusDrop));
}

TEST(FaultInjector, MaskedKindNeverFires)
{
    FaultPlan plan = parseFaultPlan("seed=1,rate=1.0,kinds=drop");
    FaultInjector injector(plan);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(injector.fire(kBusDrop));
        EXPECT_FALSE(injector.fire(kPeStall));
        EXPECT_FALSE(injector.fire(kCacheCorrupt));
    }
    EXPECT_EQ(injector.injectedOf(kBusDrop), 100u);
    EXPECT_EQ(injector.injectedOf(kPeStall), 0u);
}

TEST(FaultInjector, KindStreamsAreIndependent)
{
    // Masking stall on/off must not shift the drop stream: each kind
    // draws from its own generator.
    FaultPlan drop_only = parseFaultPlan("seed=7,rate=0.5,kinds=drop");
    FaultPlan both = parseFaultPlan("seed=7,rate=0.5,kinds=drop+stall");
    FaultInjector a(drop_only), b(both);
    for (int i = 0; i < 500; ++i) {
        b.fire(kPeStall);  // extra traffic on the stall stream
        EXPECT_EQ(a.fire(kBusDrop), b.fire(kBusDrop)) << "draw " << i;
    }
}

TEST(FaultInjector, CorruptWordFlipsExactlyOneBit)
{
    FaultPlan plan = parseFaultPlan("seed=3,rate=1.0,kinds=corrupt");
    FaultInjector injector(plan);
    for (int i = 0; i < 200; ++i) {
        std::uint32_t value = 0x12345678u + static_cast<std::uint32_t>(i);
        std::uint32_t corrupted = injector.corruptWord(value);
        EXPECT_NE(corrupted, value);
        EXPECT_EQ(__builtin_popcount(corrupted ^ value), 1);
    }
}

TEST(FaultInjector, DroppedAttemptsStayOutOfDeliveredAccounting)
{
    // The delivered-level distributions (bus.remote_transfers and the
    // hops/queue_wait/latency histograms) must count only messages
    // that actually arrived; attempts the fault model eats go to
    // bus.dropped_attempt. Booking per attempt instead of per delivery
    // was the historical bug: dropped attempts inflated the latency
    // distributions with phantom deliveries.
    FaultPlan plan = parseFaultPlan("seed=11,rate=0.4,kinds=drop");
    plan.maxRetries = 2;
    FaultInjector injector(plan);
    mp::RingBus bus({4, 2});
    bus.setFaultInjector(&injector);
    std::uint64_t delivered = 0;
    for (int i = 0; i < 300; ++i) {
        mp::BusDelivery d = bus.deliver(0, 2, i * 64);
        if (d.delivered)
            ++delivered;
    }
    const StatSet &stats = bus.stats();
    EXPECT_EQ(stats.counter("bus.remote_transfers"), delivered);
    EXPECT_EQ(stats.histogram("bus.hops").count(), delivered);
    EXPECT_EQ(stats.histogram("bus.queue_wait").count(), delivered);
    EXPECT_EQ(stats.histogram("bus.latency").count(), delivered);
    // Every drop the injector recorded is a dropped attempt, and with
    // rate=0.4 over 300 sends there must be plenty of them.
    EXPECT_EQ(stats.counter("bus.dropped_attempt"),
              stats.counter("fault.bus_drop"));
    EXPECT_GT(stats.counter("bus.dropped_attempt"), 0u);
    // Occupancy-level accounting still covers every attempt: the ring
    // was busy for dropped attempts too.
    EXPECT_GE(stats.counter("bus.hop_count"),
              stats.histogram("bus.hops").count());
}

// ---------------------------------------------------------------------
// System-level fixtures

/** Parent rforks a child, sends two values, receives the sum (the
 *  mp_test rendezvous fixture). Multi-PE runs ship the child and its
 *  messages across the ring bus, exercising the fault path. */
const char *kForkAddProgram =
    "main:\n"
    "  trap #1,@child :r17\n"
    "  send r17,#30\n"
    "  send r17,#12\n"
    "  plus r17,#1 :r18\n"
    "  recv r18 :r19\n"
    "  store #6291456,r19\n"
    "  trap #0,#0\n"
    "child:\n"
    "  trap #3,#0 :r17\n"
    "  trap #4,#0 :r18\n"
    "  recv r17 :r0\n"
    "  recv r17 :r1\n"
    "  plus++ r0,r1 :r19\n"
    "  send r18,r19\n"
    "  trap #0,#0\n";

mp::RunResult
runForkAdd(const fault::FaultPlan &plan, int pes,
           bool trace = false, mp::System **system_out = nullptr,
           const fault::RecoveryPlan &recovery = {})
{
    static isa::ObjectCode code = isa::assemble(kForkAddProgram);
    mp::SystemConfig config;
    config.numPes = pes;
    config.faultPlan = plan;
    config.recovery = recovery;
    config.traceConfig.enabled = trace;
    static std::unique_ptr<mp::System> keep;
    keep = std::make_unique<mp::System>(code, config);
    if (system_out)
        *system_out = keep.get();
    return keep->run("main");
}

TEST(FaultSystem, WatchdogConvertsCertainLossIntoCleanFailure)
{
    // Every remote transfer drops, beyond the retry bound: the child
    // context is lost in shipment and the parent starves. Without
    // faults this would be a fatal deadlock; with them it must be a
    // structured failure.
    FaultPlan plan = parseFaultPlan("seed=11,rate=1.0,kinds=drop");
    mp::RunResult result = runForkAdd(plan, 2);
    EXPECT_FALSE(result.completed);
    EXPECT_TRUE(result.watchdogTripped);
    EXPECT_FALSE(result.failureReason.empty());
    EXPECT_GE(result.faultsInjected, 1u);
    // At rate=1.0 every retry drops too, so nothing is ever delivered:
    // the drops are all detected but none recovered (faultRecoveries
    // counts real end-to-end recoveries, not retry attempts).
    EXPECT_EQ(result.faultRecoveries, 0u);
    const auto &drop = result.faultKinds[0];  // kBusDrop = bit 0
    EXPECT_GE(drop.injected, 1u);
    EXPECT_GE(drop.detected, 1u);
    EXPECT_EQ(drop.recovered, 0u);
}

TEST(FaultSystem, CorruptionIsDetectedAndReported)
{
    // Every token in the message cache is corrupted after its checksum
    // is recorded; the first receive must detect the mismatch and end
    // the run cleanly (detect-and-fail: there is no redundant copy).
    FaultPlan plan = parseFaultPlan("seed=2,rate=1.0,kinds=corrupt");
    mp::RunResult result = runForkAdd(plan, 1);
    EXPECT_FALSE(result.completed);
    EXPECT_FALSE(result.watchdogTripped);
    EXPECT_NE(result.failureReason.find("corruption"),
              std::string::npos)
        << result.failureReason;
    EXPECT_GE(result.faultsInjected, 1u);
}

TEST(FaultSystem, LocalRunsAreImmuneToBusFaults)
{
    // Bus faults only touch remote transfers; a 1-PE run has none, so
    // even rate=1.0 drop must complete and produce 42.
    FaultPlan plan = parseFaultPlan("seed=4,rate=1.0,kinds=drop");
    mp::System *system = nullptr;
    mp::RunResult result = runForkAdd(plan, 1, false, &system);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(system->memory().readWord(mp::kDataBase), 42u);
}

TEST(FaultSystem, ValuePreservingFaultsStillComputeTheSum)
{
    // Duplication, delay, and stalls perturb timing but never values:
    // when the run completes the answer must be exact.
    FaultPlan plan =
        parseFaultPlan("seed=21,rate=0.2,kinds=dup+delay+stall");
    mp::System *system = nullptr;
    mp::RunResult result = runForkAdd(plan, 4, false, &system);
    ASSERT_TRUE(result.completed) << result.failureReason;
    EXPECT_EQ(system->memory().readWord(mp::kDataBase), 42u);
    EXPECT_GE(result.faultsInjected, 1u);
}

TEST(FaultSystem, TraceRecordsInjectionsAndRecoveries)
{
    FaultPlan plan = parseFaultPlan("seed=11,rate=1.0,kinds=drop");
    mp::System *system = nullptr;
    mp::RunResult result = runForkAdd(plan, 2, /*trace=*/true, &system);
    EXPECT_FALSE(result.completed);
    std::string summary = system->tracer().summary();
    EXPECT_NE(summary.find("fault-inject"), std::string::npos)
        << summary;
    EXPECT_NE(summary.find("fault-recover"), std::string::npos)
        << summary;
    // The event stream carries the machine-readable schedule too.
    std::uint64_t injects = 0, recoveries = 0;
    for (const trace::Event &e : system->tracer().events()) {
        if (e.kind == trace::EventKind::FaultInject)
            ++injects;
        if (e.kind == trace::EventKind::FaultRecover)
            ++recoveries;
    }
    EXPECT_GE(injects, result.faultsInjected);
    EXPECT_GE(recoveries, 1u);
}

TEST(FaultSystem, SameSeedReplaysTheIdenticalTrace)
{
    FaultPlan plan =
        parseFaultPlan("seed=33,rate=0.3,kinds=drop+dup+delay+stall");
    std::vector<trace::Event> first;
    mp::RunResult r1, r2;
    {
        mp::System *system = nullptr;
        r1 = runForkAdd(plan, 4, /*trace=*/true, &system);
        first = system->tracer().events();
    }
    mp::System *system = nullptr;
    r2 = runForkAdd(plan, 4, /*trace=*/true, &system);
    const std::vector<trace::Event> &second = system->tracer().events();

    EXPECT_EQ(r1.completed, r2.completed);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.instructions, r2.instructions);
    EXPECT_EQ(r1.faultsInjected, r2.faultsInjected);
    EXPECT_EQ(r1.faultRecoveries, r2.faultRecoveries);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].kind, second[i].kind) << "event " << i;
        EXPECT_EQ(first[i].pe, second[i].pe) << "event " << i;
        EXPECT_EQ(first[i].ctx, second[i].ctx) << "event " << i;
        EXPECT_EQ(first[i].at, second[i].at) << "event " << i;
        EXPECT_EQ(first[i].a, second[i].a) << "event " << i;
        EXPECT_EQ(first[i].b, second[i].b) << "event " << i;
    }
}

// ---------------------------------------------------------------------
// Experiment-runner integration and the chaos suite

void
expectReportsEqual(const sim::RunReport &a, const sim::RunReport &b,
                   const std::string &label)
{
    testutil::expectSameRunResult(a, b, label);
    EXPECT_EQ(a.verified, b.verified) << label;
}

TEST(FaultChaos, ScheduleIsIndependentOfJobCount)
{
    programs::Benchmark bench = programs::thesisBenchmarks()[0];
    occam::CompiledProgram program = occam::compileOccam(bench.source);
    mp::SystemConfig config;
    config.faultPlan =
        parseFaultPlan("seed=5,rate=0.05,kinds=drop+delay+stall");
    std::vector<sim::RunSpec> specs;
    for (int pes : {1, 2, 4}) {
        sim::RunSpec spec;
        spec.program = &program;
        spec.resultArray = bench.resultArray;
        spec.expected = bench.expected;
        spec.pes = pes;
        spec.config = config;
        specs.push_back(std::move(spec));
    }
    std::vector<sim::RunReport> serial = sim::runAll(specs, 1);
    std::vector<sim::RunReport> parallel = sim::runAll(specs, 3);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectReportsEqual(serial[i], parallel[i],
                           "pes=" + std::to_string(serial[i].pes));
}

TEST(FaultChaos, DisabledPlanIsByteIdenticalToBaseline)
{
    programs::Benchmark bench = programs::thesisBenchmarks()[0];
    occam::CompiledProgram program = occam::compileOccam(bench.source);
    sim::RunReport baseline =
        sim::runOnce(program, bench.resultArray, bench.expected, 4, {});
    mp::SystemConfig zero_rate;
    zero_rate.faultPlan.seed = 123;  // rate stays 0: disabled
    sim::RunReport with_plan = sim::runOnce(
        program, bench.resultArray, bench.expected, 4, zero_rate);
    expectReportsEqual(baseline, with_plan, "disabled plan");
    EXPECT_TRUE(baseline.verified);
    EXPECT_EQ(baseline.faultsInjected, 0u);
}

TEST(FaultChaos, RunAllSurvivesFailingRuns)
{
    // pes=1 is immune to bus drops (all transfers local); pes=4 at
    // rate=1.0 drop must fail cleanly. The sweep reports both rows
    // instead of dying on the failure.
    programs::Benchmark bench = programs::thesisBenchmarks()[0];
    occam::CompiledProgram program = occam::compileOccam(bench.source);
    mp::SystemConfig config;
    config.faultPlan = parseFaultPlan("seed=9,rate=1.0,kinds=drop");
    config.watchdogCycles = 100'000;
    std::vector<sim::RunSpec> specs;
    for (int pes : {1, 4}) {
        sim::RunSpec spec;
        spec.program = &program;
        spec.resultArray = bench.resultArray;
        spec.expected = bench.expected;
        spec.pes = pes;
        spec.config = config;
        specs.push_back(std::move(spec));
    }
    std::vector<sim::RunReport> reports = sim::runAll(specs, 1);
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_TRUE(reports[0].verified) << reports[0].failureReason;
    EXPECT_FALSE(reports[1].completed);
    EXPECT_FALSE(reports[1].verified);
    EXPECT_FALSE(reports[1].failureReason.empty());
}

// ---------------------------------------------------------------------
// The recovery layer (RecoveryPlan): reliable delivery, heal, dedup,
// fail-stop rollback, and checkpoint replay.

constexpr std::size_t kDropIdx = 0;     // kBusDrop    = 1u << 0
constexpr std::size_t kDupIdx = 1;      // kBusDup     = 1u << 1
constexpr std::size_t kCorruptIdx = 3;  // kCacheCorrupt = 1u << 3
constexpr std::size_t kPeKillIdx = 5;   // kPeKill     = 1u << 5

TEST(FaultRecovery, ResendsThroughHeavyLoss)
{
    // Heavy loss beyond the link retry bound starves the baseline;
    // with recovery the end-to-end ack/retransmit keeps resending
    // until the token lands, and the run completes exactly.
    FaultPlan plan = parseFaultPlan("seed=11,rate=0.85,kinds=drop,"
                                    "retries=1");
    mp::RunResult baseline = runForkAdd(plan, 2);
    EXPECT_FALSE(baseline.completed);
    EXPECT_TRUE(baseline.watchdogTripped);

    RecoveryPlan recovery;
    recovery.enabled = true;
    mp::System *system = nullptr;
    mp::RunResult result =
        runForkAdd(plan, 2, false, &system, recovery);
    ASSERT_TRUE(result.completed) << result.failureReason;
    EXPECT_EQ(system->memory().readWord(mp::kDataBase), 42u);
    const auto &drop = result.faultKinds[kDropIdx];
    EXPECT_GE(drop.detected, 1u);
    EXPECT_GE(drop.recovered, 1u);
    EXPECT_GE(result.faultRecoveries, drop.recovered);
}

TEST(FaultRecovery, HealsEveryCorruptToken)
{
    // rate=1.0 corrupts every token in the cache. The baseline dies on
    // the first checksum mismatch; with recovery each receive heals
    // from the sender's pristine copy and the sum is exact.
    FaultPlan plan = parseFaultPlan("seed=2,rate=1.0,kinds=corrupt");
    mp::RunResult baseline = runForkAdd(plan, 1);
    EXPECT_FALSE(baseline.completed);

    RecoveryPlan recovery;
    recovery.enabled = true;
    mp::System *system = nullptr;
    mp::RunResult result =
        runForkAdd(plan, 1, false, &system, recovery);
    ASSERT_TRUE(result.completed) << result.failureReason;
    EXPECT_EQ(system->memory().readWord(mp::kDataBase), 42u);
    const auto &corrupt = result.faultKinds[kCorruptIdx];
    EXPECT_GE(corrupt.detected, 3u);  // three rendezvous values
    EXPECT_EQ(corrupt.detected, corrupt.recovered);
}

TEST(FaultRecovery, RejectsDuplicateTokensBySequence)
{
    // rate=1.0 duplicates every bus delivery. The baseline survives
    // only because deliveries are idempotent by construction (a
    // structural accident of the wake protocol); the recovery layer
    // additionally duplicates cache deposits and rejects each one by
    // sequence number, turning idempotence into a checked protocol
    // property with explicit detect/recover accounting.
    FaultPlan plan = parseFaultPlan("seed=6,rate=1.0,kinds=dup");
    mp::RunResult baseline = runForkAdd(plan, 2);
    EXPECT_GE(baseline.faultsInjected, 1u);
    EXPECT_EQ(baseline.faultKinds[kDupIdx].detected, 0u)
        << "baseline has no dedup protocol, nothing to detect";

    RecoveryPlan recovery;
    recovery.enabled = true;
    mp::System *system = nullptr;
    mp::RunResult result =
        runForkAdd(plan, 2, false, &system, recovery);
    ASSERT_TRUE(result.completed) << result.failureReason;
    EXPECT_EQ(system->memory().readWord(mp::kDataBase), 42u);
    const auto &dup = result.faultKinds[kDupIdx];
    EXPECT_GE(dup.detected, 1u);
    EXPECT_EQ(dup.detected, dup.recovered);
}

TEST(FaultRecovery, RestartsSpansAcrossPeFailStop)
{
    // Kill each PE in turn at a sweep of cycles inside the ~61-cycle
    // run. Under recovery every kill rolls the machine back to its
    // boot snapshot without the dead PE, re-homes the contexts homed
    // on it, and the re-run must reproduce the exact sum. Whenever the
    // fail-stop strands the baseline, the kill must also be counted as
    // detected.
    RecoveryPlan recovery;
    recovery.enabled = true;
    int baseline_failures = 0;
    for (int kill_pe = 0; kill_pe < 4; ++kill_pe) {
        for (Cycle kill_at : {10, 20, 30, 40, 50}) {
            FaultPlan plan = parseFaultPlan(
                "seed=1,killat=" + std::to_string(kill_at) +
                ",killpe=" + std::to_string(kill_pe));
            std::string label = "killpe=" + std::to_string(kill_pe) +
                                " killat=" + std::to_string(kill_at);
            mp::RunResult baseline = runForkAdd(plan, 4);
            mp::System *system = nullptr;
            mp::RunResult result =
                runForkAdd(plan, 4, false, &system, recovery);
            ASSERT_TRUE(result.completed)
                << label << ": " << result.failureReason;
            EXPECT_EQ(system->memory().readWord(mp::kDataBase), 42u)
                << label;
            if (!baseline.completed) {
                ++baseline_failures;
                EXPECT_EQ(result.faultKinds[kPeKillIdx].detected, 1u)
                    << label;
            }
        }
    }
    // The sweep must actually exercise recovery, not just absorb
    // harmless kills.
    EXPECT_GE(baseline_failures, 5);
}

TEST(FaultRecovery, FailStopWithoutRecoveryIsACleanFailure)
{
    // Killing the main context's PE mid-run strands the rendezvous;
    // without recovery this must surface as a watchdog-style clean
    // failure, never a hang or a wrong answer.
    FaultPlan plan = parseFaultPlan("seed=1,killat=20,killpe=0");
    mp::RunResult result = runForkAdd(plan, 4);
    EXPECT_FALSE(result.completed);
    EXPECT_TRUE(result.watchdogTripped);
    EXPECT_FALSE(result.failureReason.empty());
}

TEST(FaultRecovery, ChaosWithCheckpointsCompletesExactly)
{
    // The full storm - loss, duplication, corruption, and a fail-stop
    // - over periodic checkpoints: every benchmark must still produce
    // the exact reference result.
    mp::SystemConfig config;
    config.faultPlan = parseFaultPlan(
        "seed=5,rate=0.5,kinds=drop+dup+corrupt,retries=1,killat=1000");
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 500;
    for (const programs::Benchmark &bench :
         programs::thesisBenchmarks()) {
        occam::CompiledProgram program =
            occam::compileOccam(bench.source);
        sim::RunReport report = sim::runOnce(
            program, bench.resultArray, bench.expected, 4, config);
        EXPECT_TRUE(report.completed)
            << bench.name << ": " << report.failureReason;
        EXPECT_TRUE(report.verified) << bench.name;
    }
}

TEST(FaultRecovery, RecoveredRunsAreDeterministic)
{
    programs::Benchmark bench = programs::thesisBenchmarks()[0];
    occam::CompiledProgram program = occam::compileOccam(bench.source);
    mp::SystemConfig config;
    config.faultPlan = parseFaultPlan(
        "seed=5,rate=0.5,kinds=drop+dup+corrupt,retries=1,killat=800");
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 400;
    sim::RunReport first = sim::runOnce(
        program, bench.resultArray, bench.expected, 4, config);
    sim::RunReport second = sim::runOnce(
        program, bench.resultArray, bench.expected, 4, config);
    EXPECT_TRUE(first.verified) << first.failureReason;
    expectReportsEqual(first, second, "repeat recovered run");
}

TEST(FaultRecovery, RecoveredScheduleIsIndependentOfJobCount)
{
    // The acceptance bar for sweeps: a faulty run that needed the
    // recovery layer reports byte-identical rows for any --jobs.
    programs::Benchmark bench = programs::thesisBenchmarks()[0];
    occam::CompiledProgram program = occam::compileOccam(bench.source);
    mp::SystemConfig config;
    config.faultPlan = parseFaultPlan(
        "seed=7,rate=0.5,kinds=drop+dup+corrupt,retries=1,killat=900");
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 600;
    std::vector<sim::RunSpec> specs;
    for (int pes : {2, 4, 8}) {
        sim::RunSpec spec;
        spec.program = &program;
        spec.resultArray = bench.resultArray;
        spec.expected = bench.expected;
        spec.pes = pes;
        spec.config = config;
        specs.push_back(std::move(spec));
    }
    std::vector<sim::RunReport> serial = sim::runAll(specs, 1);
    std::vector<sim::RunReport> parallel = sim::runAll(specs, 3);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expectReportsEqual(serial[i], parallel[i],
                           "pes=" + std::to_string(serial[i].pes));
        EXPECT_TRUE(serial[i].verified) << serial[i].failureReason;
    }
}

// ---------------------------------------------------------------------
// The pinned recovery corpus: specs that fail with watchdogTripped on
// the detect-and-fail baseline and must complete exactly under
// recovery. CI soaks exactly this list under ASan+UBSan
// (--gtest_filter=FaultRecovery.PinnedCorpus*).

const char *const kRecoveryCorpus[] = {
    "seed=3,rate=0.5,kinds=drop,retries=1",
    "seed=9,rate=0.6,kinds=drop,retries=0",
    "seed=17,rate=0.7,kinds=drop,retries=1",
    "seed=4,rate=0.5,kinds=drop+dup,retries=1",
    "seed=12,rate=0.6,kinds=drop+dup,retries=0",
    "seed=33,rate=0.7,kinds=drop+corrupt,retries=0",
    "seed=21,rate=0.8,kinds=drop+dup+corrupt,retries=0",
    "seed=8,rate=0.7,kinds=drop+dup+corrupt,retries=0,killat=900",
    "seed=2,killat=600,killpe=0",
    "seed=13,killat=1200,killpe=2",
    "seed=30,rate=0.4,kinds=drop,retries=0,killat=700",
    "seed=42,rate=0.5,kinds=drop+dup,retries=1,killat=1100",
};

TEST(FaultRecovery, PinnedCorpusFailsOnBaseline)
{
    programs::Benchmark bench = programs::thesisBenchmarks()[0];
    occam::CompiledProgram program = occam::compileOccam(bench.source);
    for (const char *spec : kRecoveryCorpus) {
        mp::SystemConfig config;
        config.faultPlan = parseFaultPlan(spec);
        config.watchdogCycles = 200'000;
        sim::RunReport report = sim::runOnce(
            program, bench.resultArray, bench.expected, 4, config);
        EXPECT_FALSE(report.completed) << spec;
        EXPECT_TRUE(report.watchdogTripped) << spec;
    }
}

TEST(FaultRecovery, PinnedCorpusRecoversExactly)
{
    programs::Benchmark bench = programs::thesisBenchmarks()[0];
    occam::CompiledProgram program = occam::compileOccam(bench.source);
    for (const char *spec : kRecoveryCorpus) {
        mp::SystemConfig config;
        config.faultPlan = parseFaultPlan(spec);
        config.recovery.enabled = true;
        config.recovery.checkpointEvery = 500;
        // The heaviest corpus entries lose >70% of deliveries with no
        // link retries; give the end-to-end retransmitter enough
        // attempts that per-token loss is negligible (0.8^65 ~ 5e-7).
        config.recovery.maxResends = 64;
        sim::RunReport report = sim::runOnce(
            program, bench.resultArray, bench.expected, 4, config);
        EXPECT_TRUE(report.completed)
            << spec << ": " << report.failureReason;
        EXPECT_TRUE(report.verified) << spec;
    }
}

TEST(FaultRecovery, PartitionedPinnedCorpusRecoversExactly)
{
    // The multi-partition half of the pinned corpus: hierarchical
    // machines where recovery retransmits and fail-stop re-dispatch
    // must cross ring bridges.
    programs::Benchmark bench = programs::thesisBenchmarks()[0];
    occam::CompiledProgram program = occam::compileOccam(bench.source);
    for (const fuzz::PartitionedRecoverySpec &entry :
         fuzz::kPartitionedRecoveryCorpus) {
        SCOPED_TRACE(entry.faults);
        mp::SystemConfig config;
        config.faultPlan = parseFaultPlan(entry.faults);
        config.setTopology({entry.rings, entry.partitions});
        config.recovery.enabled = true;
        config.recovery.checkpointEvery = 500;
        config.recovery.maxResends = 64;
        sim::RunReport report =
            sim::runOnce(program, bench.resultArray, bench.expected,
                         entry.pes, config);
        EXPECT_TRUE(report.completed) << report.failureReason;
        EXPECT_TRUE(report.verified);
        if (config.faultPlan.kinds & fault::kPeKill) {
            // The kill must actually have fired and been recovered.
            EXPECT_GT(report.stats.counter("fault.pe_kill"), 0u);
        }
    }
}

TEST(FaultChaos, EveryBenchmarkCompletesCorrectOrFailsCleanly)
{
    // The soak property: under value-preserving faults every Chapter 6
    // benchmark either produces the exact reference result or ends in
    // a structured failure - never a wrong answer, hang, or crash.
    mp::SystemConfig config;
    config.faultPlan =
        parseFaultPlan("seed=1234,rate=0.05,kinds=drop+dup+delay+stall");
    config.watchdogCycles = 500'000;
    for (const programs::Benchmark &bench :
         programs::thesisBenchmarks()) {
        occam::CompiledProgram program =
            occam::compileOccam(bench.source);
        sim::RunReport report = sim::runOnce(
            program, bench.resultArray, bench.expected, 4, config);
        if (report.completed) {
            EXPECT_TRUE(report.verified)
                << bench.name
                << ": faulty run completed with a WRONG result";
        } else {
            EXPECT_FALSE(report.failureReason.empty()) << bench.name;
        }
    }
}

} // namespace

/**
 * @file
 * Deterministic fault injection for the message-passing fabric.
 *
 * The thesis evaluates the ring bus, message cache, and kernel trap
 * path only on the happy path; this layer lets every experiment also
 * run them degraded. A FaultPlan (seed + rate + fault-kind mask)
 * drives a FaultInjector whose decisions are drawn from independent
 * per-kind SplitMix64 streams, so a plan reproduces the identical
 * fault schedule on every run, on every platform, independent of how
 * many sweep runs execute concurrently (each mp::System owns its own
 * injector seeded from the plan).
 *
 * Injectable faults:
 *   - BusDrop:      a remote ring-bus transfer is lost; the fabric
 *                   retries with exponential backoff up to a bound,
 *                   after which the message is permanently lost and
 *                   the run ends via the System watchdog.
 *   - BusDup:       a transfer is delivered twice; delivery is
 *                   idempotent, the duplicate only perturbs timing.
 *   - BusDelay:     a transfer arrives late by a bounded extra delay.
 *   - CacheCorrupt: a bit of a message-cache token flips in place;
 *                   detected on receive via a per-token checksum and
 *                   converted into a clean structured run failure.
 *   - PeStall:      a PE wastes stall cycles without retiring an
 *                   instruction (transient hardware hiccup).
 *   - PeKill:       a PE fail-stops at a planned cycle (killat=N);
 *                   scheduled rather than stochastic, so a kill is
 *                   reproducible independent of the rate. Without the
 *                   recovery layer the machine starves and the
 *                   watchdog reports a clean failure; with recovery
 *                   the machine rolls back to its last snapshot and
 *                   re-runs without the dead PE.
 *
 * All injection sites are pointer-gated exactly like the tracer: with
 * no plan the fabric pays one predictable branch per site and produces
 * byte-identical results to a build without this layer.
 *
 * RecoveryPlan (opt-in, mp::SystemConfig::recovery) turns detection
 * into survival: end-to-end ack/retransmit on the ring, checksum-heal
 * from the sender's pristine copy, sequence-number dedup, fail-stop
 * rollback, and bounded checkpoint replay (see DESIGN.md
 * "Recoverable execution").
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "support/rng.hpp"

namespace qm::fault {

using Cycle = std::int64_t;

/** Fault kinds, usable as a bitmask in FaultPlan::kinds. */
enum FaultKind : unsigned
{
    kBusDrop = 1u << 0,
    kBusDup = 1u << 1,
    kBusDelay = 1u << 2,
    kCacheCorrupt = 1u << 3,
    kPeStall = 1u << 4,
    kPeKill = 1u << 5,
};

constexpr int kNumFaultKinds = 6;

/**
 * Kinds decided stochastically per site. PeKill is scheduled by
 * FaultPlan::killAt instead of drawn, so it has no decision stream
 * (this also keeps the stream seeding - and with it every PR 3 fault
 * schedule - unchanged).
 */
constexpr int kNumRandomKinds = 5;

/** Default mask: the value-preserving kinds (corruption is opt-in). */
constexpr unsigned kDefaultKinds =
    kBusDrop | kBusDup | kBusDelay | kPeStall;

/** Every kind, including flag-gated cache corruption. */
constexpr unsigned kAllKinds = kDefaultKinds | kCacheCorrupt;

/** Short lower-case label ("drop", "dup", "delay", "corrupt", "stall"). */
const char *toString(FaultKind kind);

/**
 * A reproducible fault schedule: everything needed to replay a faulty
 * run byte-for-byte. Threads from sim::RunSpec / occamc --faults down
 * to the emit sites via mp::SystemConfig.
 */
struct FaultPlan
{
    std::uint64_t seed = 0;
    /** Per-decision-site injection probability in (0, 1]. */
    double rate = 0.0;
    /** FaultKind bitmask of enabled faults. */
    unsigned kinds = 0;
    /** Bounded retry attempts after a dropped bus transfer. */
    int maxRetries = 4;
    /** Base retry backoff in cycles; doubles per attempt. */
    Cycle retryBackoff = 8;
    /** Upper bound on an injected message delay, in cycles. */
    Cycle maxDelay = 64;
    /** Upper bound on an injected PE stall, in cycles. */
    Cycle maxStall = 32;
    /** Fail-stop a PE at this cycle (0 = no kill). */
    Cycle killAt = 0;
    /** PE to kill, modulo the PE count; -1 = the last PE. */
    int killPe = -1;

    /**
     * A pekill is scheduled. The kill is timer-driven, not drawn from
     * the decision stream: it fires the first time the next dispatch
     * cycle reaches killAt.
     */
    bool
    killPlanned() const
    {
        return killAt > 0;
    }

    bool
    enabled() const
    {
        return (rate > 0.0 && kinds != 0) ||
               ((kinds & kPeKill) != 0 && killPlanned());
    }
};

/**
 * Opt-in recovery policy layered over a FaultPlan (carried in
 * mp::SystemConfig::recovery). With enabled=false every fabric
 * component behaves exactly as before this layer existed, so PR 3's
 * detect-and-fail semantics (and byte-identical fault-off output) are
 * preserved.
 */
struct RecoveryPlan
{
    bool enabled = false;
    /**
     * End-to-end retransmissions after the link-layer retry bound. The
     * ack timeout and the NACK penalty are constants of the ring bus
     * and the message cache.
     */
    int maxResends = 16;
    /** Periodic System::snapshot() interval (0 = boot snapshot only). */
    Cycle checkpointEvery = 0;
    /** Checkpoint replays mp::System::run allows a failed run. */
    int maxReplays = 2;
};

/**
 * Parse a `--faults` spec: comma-separated key=value pairs.
 *
 *   seed=42,rate=0.05,kinds=drop+dup+delay+corrupt+stall,
 *   retries=4,backoff=8,delay=64,stall=32,killat=10000,killpe=1
 *
 * Every key is optional; `rate` defaults to 0.01 and `kinds` to the
 * value-preserving set (drop+dup+delay+stall). `kinds=all` enables
 * everything including corruption but not the fail-stop kill, which
 * must be asked for by name: `kinds=...+pekill` (killat then defaults
 * to 10000) or `killat=N` (which implies the pekill kind). Throws
 * FatalError on malformed specs (unknown key, unknown kind, rate
 * outside (0, 1], ...).
 */
FaultPlan parseFaultPlan(const std::string &spec);

/** Render a plan back to its canonical spec string. */
std::string toString(const FaultPlan &plan);

/**
 * What a run prints about its fault and recovery settings: a
 * "fault injection: <spec>" line when @p plan is enabled and a
 * "recovery: enabled[ (checkpoint every N cycles)]" line when
 * @p recovery is. Empty when neither is.
 */
std::string runBanner(const FaultPlan &plan, const RecoveryPlan &recovery);

/**
 * The seeded decision engine. One instance per mp::System; decisions
 * are drawn from an independent stream per fault kind, in simulation
 * order, which is deterministic for a given plan and configuration.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan);

    const FaultPlan &plan() const { return plan_; }

    /**
     * One decision on @p kind's stream: true with probability
     * plan().rate when the kind is enabled; always false (and no
     * stream advance) when it is masked off.
     */
    bool fire(FaultKind kind);

    /** Injected extra message delay in [1, maxDelay]. */
    Cycle delayCycles();

    /** Injected PE stall in [1, maxStall]. */
    Cycle stallCycles();

    /** Flip one deterministically-chosen bit of @p value. */
    std::uint32_t corruptWord(std::uint32_t value);

    /**
     * Record a scheduled (non-stochastic) fault - the pekill at
     * FaultPlan::killAt - so injected counters cover every kind.
     */
    void notePlanned(FaultKind kind);

    /** Total decisions that fired, and per-kind counts. */
    std::uint64_t injected() const { return injected_; }
    std::uint64_t injectedOf(FaultKind kind) const;

    /**
     * Raw generator + counter state for durable checkpoints. Saving
     * the stream positions at snapshot time is what makes a resumed
     * fault-injected run draw the same decisions an uninterrupted run
     * would from that point on - i.e. byte-identical.
     */
    struct PersistState
    {
        std::array<std::uint64_t, kNumRandomKinds> streams{};
        std::uint64_t payload = 0;
        std::array<std::uint64_t, kNumFaultKinds> counts{};
        std::uint64_t injected = 0;
    };

    PersistState
    persistState() const
    {
        PersistState s;
        for (int i = 0; i < kNumRandomKinds; ++i)
            s.streams[static_cast<std::size_t>(i)] =
                streams_[static_cast<std::size_t>(i)].rawState();
        s.payload = payload_.rawState();
        s.counts = counts_;
        s.injected = injected_;
        return s;
    }

    void
    restorePersistState(const PersistState &s)
    {
        for (int i = 0; i < kNumRandomKinds; ++i)
            streams_[static_cast<std::size_t>(i)].setRawState(
                s.streams[static_cast<std::size_t>(i)]);
        payload_.setRawState(s.payload);
        counts_ = s.counts;
        injected_ = s.injected;
    }

  private:
    FaultPlan plan_;
    /** One decision stream per stochastic kind + one payload stream. */
    std::array<SplitMix64, kNumRandomKinds> streams_;
    SplitMix64 payload_;
    std::array<std::uint64_t, kNumFaultKinds> counts_{};
    std::uint64_t injected_ = 0;
};

} // namespace qm::fault

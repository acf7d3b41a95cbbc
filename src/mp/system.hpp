/**
 * @file
 * Queue-machine multiprocessor system (thesis Chapters 5.6 and 6).
 *
 * N processing elements share one instruction space (pure code) and one
 * data memory, connected by a partitioned ring bus. The multiprocessing
 * kernel implements the Table 6.1 entry points (reached by trap
 * instructions), manages the Fig 6.4 context lifecycle, allocates
 * operand-queue pages and channels, places forked contexts on PEs, and
 * routes channel rendezvous through the message cache, charging ring-bus
 * transfer time for inter-PE messages.
 *
 * Substitution note (see DESIGN.md): the kernel's logic runs in C++
 * rather than in queue-machine code, but it is entered through the same
 * trap numbers and charges fixed cycle costs per service, exactly as
 * the thesis's Concurrent Euclid simulation charged kernel overheads.
 */
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "isa/assembler.hpp"
#include "obs/flight.hpp"
#include "isa/runtime.hpp"
#include "mp/ring_bus.hpp"
#include "msg/message_cache.hpp"
#include "pe/memory.hpp"
#include "pe/pe.hpp"
#include "persist/io.hpp"
#include "support/metric_catalog.hpp"
#include "trace/trace.hpp"

namespace qm::mp {

using isa::Addr;
using isa::Word;
using msg::CtxId;

/** Memory map constants shared with the compiler. */
constexpr Addr kQueuePagePool = 0x0000'1000;  ///< Up to ~6 MB of pages.
constexpr Addr kDataBase = 0x0060'0000;       ///< Compiler data segment.
constexpr Addr kHeapBase = 0x0100'0000;       ///< TrapAlloc heap.
constexpr std::size_t kMemoryBytes = 32u << 20;  ///< Data memory size.
constexpr int kMaxLiveContexts = 2048;  ///< Queue-page pool size.

/**
 * System-wide configuration. The machine's sizes and cycle costs are
 * constants, not settings (DESIGN.md section 5 lists them).
 */
struct SystemConfig
{
    int numPes = 1;
    /**
     * Bus partitions - per local ring when busRings > 1. The default
     * is adaptive: it is clamped to numPes by busConfig() so the
     * 1-PE default machine stays valid. An explicit --topology sets
     * busTopologyExplicit and is validated strictly instead (the
     * RingBus constructor rejects machines that cannot exist).
     */
    int busPartitions = 2;
    /** Local rings ("rings:KxM" topology); 1 = the flat single ring. */
    int busRings = 1;
    /** Set by --topology: skip the adaptive default clamp above. */
    bool busTopologyExplicit = false;
    int pageWords = 256;         ///< Operand-queue page size per context.

    RingBusConfig
    busConfig() const
    {
        RingBusConfig bus;
        bus.numPes = numPes;
        bus.numRings = busRings;
        bus.numPartitions =
            busTopologyExplicit ? busPartitions
                                : std::min(busPartitions, numPes);
        return bus;
    }

    /** Apply a parsed --topology spec (see mp::parseTopology). */
    void
    setTopology(const RingTopology &topology)
    {
        busRings = topology.rings;
        busPartitions = topology.partitions;
        busTopologyExplicit = true;
    }

    /** Cycle-level event recording (off by default; see src/trace). */
    trace::TraceConfig traceConfig{};

    /** Seeded fault injection (off by default; see src/fault). */
    fault::FaultPlan faultPlan{};

    /**
     * Opt-in recovery layer (off by default; see src/fault and
     * DESIGN.md "Recoverable execution"): end-to-end retransmission on
     * the ring, checksum-heal + dedup in the message cache, rollback
     * past a PE fail-stop, and checkpoint/restore support.
     */
    fault::RecoveryPlan recovery{};

    /**
     * Watchdog: if no instruction retires for this many simulated
     * cycles, the run ends with a structured failure report instead of
     * hanging or dying on a deadlock panic. 0 = automatic: enabled
     * (with a 1M-cycle bound) exactly when fault injection is active,
     * so fault-free runs behave byte-identically to before.
     */
    Cycle watchdogCycles = 0;

    /**
     * Host wall-clock deadline for one pass of the run loop (run(),
     * resume() or a checkpoint replay), in milliseconds. 0 = no
     * deadline. When the budget is exhausted the run ends with a
     * structured `deadline:` failure (hostAborted set) instead of
     * wedging a sweep forever. Checked coarsely (every ~1k scheduling
     * rounds) so the fault-free hot path pays nothing measurable.
     * Host-side only: never part of the simulated timeline or the
     * checkpoint fingerprint.
     */
    long hostDeadlineMs = 0;

    /**
     * Where the always-on flight recorder (src/obs) dumps its
     * `qm.flight.v1` black box: written on every failure, structured
     * (watchdog, deadlock, deadline, shutdown signal, cycle budget)
     * or thrown (a fatal error or kernel panic escaping run() or
     * resume()), and refreshed at each checkpoint boundary so even a
     * kill -9 leaves a post-mortem on disk. Empty = no dumps (the
     * recorder still records). Host-side only: never part of the
     * simulated timeline or the checkpoint fingerprint.
     */
    std::string flightPath;

    /**
     * Emit a telemetry snapshot every N simulated cycles (0 = off).
     * Snapshots fire at deterministic cycle boundaries evaluated at
     * the same guard points as periodic checkpoints, so the stream is
     * byte-identical across --jobs. Host-side only:
     * excluded from the checkpoint fingerprint; an interrupted stream
     * re-aligns to the next boundary after the resume point.
     */
    Cycle telemetryEvery = 0;

    /** Label stamped into telemetry snapshots (program/series name). */
    std::string telemetryLabel;
};

/**
 * Deterministic textual digest of every simulation-relevant field of
 * @p config (machine shape, fault/recovery plans, trace enablement)
 * and of the machine's constant sizes and cycle costs, the ring-bus
 * transfer costs included. Host-side choices that are byte-inert by
 * invariant (hostDeadlineMs) are deliberately excluded.
 * System::configFingerprint() extends this with a CRC of the loaded
 * object code; the sweep journal combines it with per-spec
 * program/verification digests.
 */
std::string configFingerprint(const SystemConfig &config);

/** Context lifecycle states (thesis Fig 6.4). */
enum class CtxStatus
{
    Ready,
    Running,
    BlockedChannel,
    BlockedTime,
    Done,
};

/** One context: an activation of an acyclic data-flow graph. */
struct Context
{
    CtxId id = 0;
    pe::ContextState regs;
    CtxStatus status = CtxStatus::Ready;
    int homePe = 0;
    Word inChan = isa::kNullChannel;
    Word outChan = isa::kNullChannel;
    Addr queuePage = 0;
    Cycle readyAt = 0;
};

/** Result of a complete (or timed-out) program run. */
struct RunResult
{
    bool completed = false;   ///< All contexts terminated.
    Cycle cycles = 0;         ///< Finish time (max PE clock).
    std::uint64_t instructions = 0;
    std::uint64_t contexts = 0;      ///< Contexts created.
    std::uint64_t rendezvous = 0;    ///< Channel transfers completed.
    std::uint64_t contextSwitches = 0;
    double utilization = 0.0;        ///< Mean busy fraction over PEs.

    // Where the cycles went, summed over PEs (see DESIGN.md
    // "Observability"). computeCycles + kernelCycles + blockedCycles
    // accounts for every PE-cycle of the run; busCycles measures ring
    // occupancy, which overlaps PE execution.
    Cycle computeCycles = 0;  ///< Instruction execution (user work).
    Cycle kernelCycles = 0;   ///< Trap service + context switching.
    Cycle blockedCycles = 0;  ///< PE idle (starved, blocked, stalled).
    Cycle busCycles = 0;      ///< Ring-bus transfer occupancy.

    // Degraded-run reporting (see src/fault). A run that cannot make
    // progress (lost message, detected corruption, livelock) ends
    // cleanly with completed=false and a human-readable reason instead
    // of hanging or throwing.
    bool watchdogTripped = false;    ///< Watchdog/starvation ended the run.
    std::string failureReason;       ///< Empty on a completed run.
    std::uint64_t faultsInjected = 0;   ///< Faults fired (all kinds).
    /**
     * Faults survived: drops compensated by a retry or an end-to-end
     * retransmission, duplicates rejected by sequence-number dedup,
     * corruptions healed from the pristine copy, and a PE fail-stop
     * rolled back onto the surviving PEs. (Before the recovery layer
     * this counter mixed retries and bare detections; it is now
     * exactly the sum of the per-kind recovered counts below.)
     */
    std::uint64_t faultRecoveries = 0;
    /**
     * Events the tracer discarded after hitting its maxEvents cap. A
     * non-zero value means any exported trace is truncated and
     * trace-derived analyses (qmprof) undercount.
     */
    std::uint64_t traceDropped = 0;
    /**
     * The run was cut short by the *host*, not the simulated machine:
     * a wall-clock deadline expired or a shutdown signal arrived.
     * Host-aborted results are non-deterministic by nature (they
     * depend on host timing) and are therefore never journaled by the
     * sweep runner and never worth a checkpoint replay.
     */
    bool hostAborted = false;
    /**
     * Checkpoint replays the run consumed: with recovery enabled, a
     * failure worth replaying rolls the machine back to its last
     * snapshot and re-runs it, up to RecoveryPlan::maxReplays times.
     */
    int replays = 0;
    /** Completed only thanks to at least one such replay. */
    bool recovered = false;
    /** Unified per-kind accounting, indexed by FaultKind bit index. */
    struct FaultKindCounts
    {
        std::uint64_t injected = 0;   ///< Faults of this kind fired.
        std::uint64_t detected = 0;   ///< Noticed by checksum/timeout/kill.
        std::uint64_t recovered = 0;  ///< Survived via the recovery layer.
    };
    std::array<FaultKindCounts, fault::kNumFaultKinds> faultKinds{};
};

/**
 * The kernel state a checkpoint captures. A private base of System, so
 * snapshot() and restore() copy it whole while the kernel code keeps
 * naming its fields unqualified.
 */
struct KernelState
{
    std::vector<Context> contexts;
    std::vector<Addr> freePages;
    Word nextChannel = 2;  ///< 0 reserved, allocate pairs from 2.
    Addr heapNext = kHeapBase;
    int rrNext = 0;        ///< Least-loaded placement tie cursor.

    // Sharded-kernel state (sized/maintained only when numShards() > 1
    // so flat-ring runs stay byte-identical on every surface).
    std::vector<int> shardRr_;           ///< Per-shard tie cursors.
    /**
     * Channel directory: channel id -> shard of the allocating PE.
     * Ifork consults it to place a child near the consumer of its
     * output channel (distance-aware placement).
     */
    std::map<Word, int> channelShard_;
    std::uint64_t liveContexts = 0;
    std::uint64_t switches = 0;

    // Recovery state (all inert unless config_.recovery.enabled).
    bool killArmed_ = false;       ///< Planned pekill not yet fired.
    Cycle nextCheckpointAt_ = 0;   ///< Next periodic snapshot.
    Cycle lastProgress_ = 0;       ///< Watchdog progress marker.

    /** Next telemetry boundary (host-side: not in the checkpoint file). */
    Cycle nextTelemetryAt_ = 0;

    /** The kernel's statistics, recorded by catalog ID. */
    StatBlock<metric::Owner::Kernel> stats_;
    /** Its view of each PE (pe<N>.ready_wait, ...), one block per PE. */
    std::vector<StatBlock<metric::Owner::PeView>> peStats_;
};

/** The whole simulated machine. */
class System : private KernelState
{
  public:
    System(const isa::ObjectCode &code, SystemConfig config);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Data memory (for loading benchmark inputs / reading results). */
    pe::Memory &memory() { return *memory_; }

    /**
     * Boot a context at @p entry and simulate until every context has
     * terminated or @p max_cycles elapses on some PE. With recovery
     * enabled a boot snapshot is taken first (and periodic ones every
     * recovery.checkpointEvery cycles), and a failure worth replaying
     * (watchdog, starvation, detected corruption - not an exhausted
     * cycle budget or a host abort) is rolled back to the last
     * snapshot and re-run, up to recovery.maxReplays times; the
     * result's `replays` and `recovered` say how that went. A
     * FatalError or PanicError that escapes is rethrown after the
     * black box is dumped to config.flightPath.
     */
    RunResult run(const std::string &entry,
                  Cycle max_cycles = 500'000'000);

    /**
     * Capture a checkpoint of the complete machine state. Running and
     * resident-blocked contexts are first quiesced (preempted with
     * their registers saved), so the snapshot needs no PE-internal
     * state and a restored machine resumes purely from kernel state.
     */
    void snapshot();

    /** A snapshot exists to restore() to. */
    bool canRestore() const;

    /**
     * Roll the machine back to the last snapshot: memory, contexts,
     * channel state, bus timing, statistics, and trace all rewind.
     * The fault injector's streams deliberately do NOT rewind, so a
     * replay draws a fresh (still deterministic) fault schedule
     * instead of re-losing the identical message forever. Nor does a
     * PE that fail-stopped under recovery: each restore marks it dead
     * again, so its planned kill fires once per run.
     */
    void restore();

    /**
     * Re-enter the simulation loop after restore() or loadCheckpoint(),
     * replaying from checkpoints and dumping the black box on a
     * thrown failure like run(). Only valid on a booted system.
     */
    RunResult resume(Cycle max_cycles = 500'000'000);

    // --- Durable checkpoints (see DESIGN.md "Durable checkpoints") -------

    /**
     * Serialize the last snapshot() to @p path: a versioned,
     * per-section-checksummed container written atomically (temp file
     * + fsync + rename), so a crash mid-write leaves either the old
     * file or the new one, never a torn hybrid. Requires a prior
     * snapshot(). Returns a structured Status instead of throwing; a
     * failed write leaves any existing file at @p path untouched.
     */
    persist::Status saveCheckpoint(const std::string &path) const;

    /**
     * Warm-start this (un-run) system from a checkpoint file: verify
     * magic/version/section checksums and the configuration
     * fingerprint, rebuild the in-memory checkpoint, and restore() to
     * it. On any failure the system is left untouched (still cold,
     * still runnable) and a structured Status says why - corruption is
     * detected and refused, never a crash or a silently-wrong resume.
     * On success, drive the machine with resume().
     */
    persist::Status loadCheckpoint(const std::string &path);

    /**
     * Hook invoked after every snapshot() (boot and periodic), with
     * this system as the argument - the persistence point for
     * `occamc --checkpoint-file`. Exceptions from the sink propagate
     * out of the run loop.
     */
    void
    setCheckpointSink(std::function<void(System &)> sink)
    {
        checkpointSink_ = std::move(sink);
    }

    /**
     * Canonical description of everything that must match for a
     * checkpoint to be resumable on this system: machine shape,
     * kernel costs, timing, fault/recovery plans, trace enablement,
     * and a CRC of the object code. Host-side choices that are
     * byte-inert by invariant (the deadline) are deliberately excluded.
     */
    std::string configFingerprint() const;

    /** The statistics registry the last run ended with. */
    const StatSet &stats() const { return folded_; }

    /**
     * The statistics registry as it stands mid-run: the same fold
     * finalizeRun() ends a run with, minus the end-of-run sys.*
     * scalars. Purely observational. Used by the telemetry stream.
     */
    StatSet statsSnapshot() const { return foldStats(); }

    /** The always-on flight recorder (see src/obs/flight.hpp). */
    const obs::FlightRecorder &flight() const { return flight_; }

    /**
     * Dump the flight recorder's black box to @p path with @p reason,
     * stamped with the current cycle high-water mark and live-context
     * count. No-op (ok Status) when QM_FLIGHT=0 disabled the
     * recorder. System calls it on every failure exit, thrown ones
     * included, and at each checkpoint boundary when
     * config.flightPath is set; callers never need to.
     */
    persist::Status writeFlightDump(const std::string &path,
                                    const std::string &reason);

    /**
     * Hook invoked at every telemetry boundary (config.telemetryEvery
     * > 0) with this system and the boundary cycle stamp. The sink
     * runs on the simulation thread between batches; it must not
     * mutate the machine.
     */
    void
    setTelemetrySink(std::function<void(System &, Cycle)> sink)
    {
        telemetrySink_ = std::move(sink);
    }

    /** The run's event recorder (empty unless tracing is enabled). */
    const trace::Tracer &tracer() const { return tracer_; }

    /** Per-channel/context diagnostic dump (deadlock analysis). */
    std::string dumpState() const;

  private:
    friend class HostAdapter;

    struct PeSlot;

    // --- Kernel services -------------------------------------------------
    /**
     * @p preferredShard steers distance-aware placement in sharded
     * (multi-ring) mode: -1 means "the forking PE's shard". Ignored on
     * the flat ring.
     */
    CtxId createContext(Word codeAddr, Word inChan, Word outChan,
                        int forkingPe, Cycle now,
                        int preferredShard = -1);
    /** @p pe records the allocating shard in the channel directory. */
    Word allocChannelPair(int pe);
    Addr allocQueuePage();
    void freeQueuePage(Addr page);
    int placeContext(int forkingPe, int preferredShard = -1);
    void wakeContext(CtxId ctx, Cycle at);

    // --- Sharded kernel (hierarchical topologies; see DESIGN.md) ---------
    /** Shards in the kernel = local rings in the topology. */
    int numShards() const { return config_.busRings; }
    int shardOfPe(int pe) const { return bus.ringOf(pe); }
    /**
     * Least-loaded live PE within @p shard (per-shard rotation cursor
     * breaks ties); spills to the global least-loaded PE only when
     * every PE of the shard is busier than the global minimum.
     */
    int placeSharded(int shard);

    /**
     * Queue context @p id on its home PE once its shipped descriptor
     * arrives (twice when @p shipped duplicated it), or count the
     * descriptor as lost.
     */
    void enqueueShipped(CtxId id, const BusDelivery &shipped);

    // Host operations, invoked from the PE mid-step.
    pe::HostStatus hostSend(int pe, Word channel, Word value);
    pe::HostStatus hostRecv(int pe, Word channel, Word &value);
    pe::TrapOutcome hostTrap(int pe, Word number, Word argument);
    pe::TrapOutcome trapService(PeSlot &slot, Word number,
                                Word argument);
    /**
     * Deliver a completed rendezvous's wake from @p pe to @p peer (no
     * wake when @p peer is kNoCtx).
     */
    void wakePeer(int pe, Cycle at, CtxId peer);

    // --- Scheduling ------------------------------------------------------
    bool dispatch(PeSlot &slot);   ///< Load next ready context if idle.
    /** Book the ending run span's length into the residency metrics. */
    void recordResidency(PeSlot &slot);
    void park(PeSlot &slot, CtxStatus status);
    void finishContext(PeSlot &slot);
    void evictResident(PeSlot &slot);
    /** Forced preemption (checkpoint quiesce): park + requeue Ready. */
    void preemptRunning(PeSlot &slot);

    // --- The run loop (see DESIGN.md "One scheduler") ---
    /**
     * runLoop, then bounded checkpoint replay while the run ends in a
     * replayable failure (see run()). Behind run() and resume().
     */
    RunResult runReplaying(Cycle max_cycles);
    /**
     * The one scheduler loop, entered once per pass (the first run and
     * every checkpoint replay): pick the slot able to act soonest
     * (pickScan), evaluate the guard sequence, then dispatch and run
     * one batch on it.
     */
    RunResult runLoop(Cycle max_cycles);
    /**
     * Scan every slot for the lowest nextTime(), ties to the lowest
     * index. Null (and @p at untouched) when no slot can act.
     */
    PeSlot *pickScan(Cycle &at);
    /**
     * Run @p slot's dispatched context until it blocks, finishes, or a
     * 16-step batch elapses (keeps PE clocks loosely synchronized).
     */
    void runBatch(PeSlot &slot, Cycle max_cycles);

    // --- Recovery (see DESIGN.md "Recoverable execution") ---------------
    /**
     * Fire the planned pekill at @p at. Under recovery with a survivor
     * the machine rolls back to the last snapshot without the PE;
     * otherwise the PE just falls silent. Returns the failure that ends
     * the run (a recovered run whose kill left no PE alive), else empty.
     */
    std::string injectPeKill(Cycle at);
    /**
     * Mark deadPe_ fail-stopped in the restored machine and re-home the
     * contexts homed on it. A no-op when the snapshot postdates the kill.
     */
    void failStop();
    /** LeastLoaded placement over live PEs (skips fail-stopped ones). */
    int placeSurvivor();

    /**
     * End-of-run bookkeeping shared by the normal and timeout exits:
     * computes finish time, utilization, and the compute/kernel/bus/
     * blocked cycle breakdown, records them as sys.* scalars, and
     * folds every block into the registry stats() returns. Everything
     * except `completed` is filled in.
     */
    void finalizeRun(RunResult &result);

    /**
     * Every block as one registry: the kernel's, each PE's (summed,
     * and again under "pe<N>." beside the kernel's per-PE entries and
     * the slot's clock and cycle split), the message cache's and the
     * ring bus's.
     */
    StatSet foldStats() const;

    /** Counter @p id summed over every block that records it. */
    std::uint64_t count(metric::Id id) const;

    /** The highest PE clock: how far the machine has run. */
    Cycle frontier() const;

    /**
     * Fill in the end-of-run failure fields shared by the watchdog,
     * starvation, and corruption exits, then finalize.
     */
    RunResult failRun(const std::string &reason, bool watchdog);

    /**
     * Throttled host-side abort check evaluated by the run loop:
     * true (with @p why filled in) when a shutdown signal arrived or
     * the config_.hostDeadlineMs budget for this run-loop entry is
     * exhausted. Polls the wall clock only every ~1k calls, and only
     * when a deadline or signal handler is actually armed.
     */
    bool hostAbortDue(std::string &why);
    /** Structured host-abort exit (hostAborted set, not replayable). */
    RunResult abortRun(const std::string &reason);
    /**
     * In run()'s and resume()'s catch-all handler: dump the black box
     * when the exception is a FatalError or PanicError.
     */
    void dumpThrown();

    const isa::ObjectCode &code_;
    /** Lazy decode cache every PE fetches through (pure code). */
    isa::DecodedProgram decoded_;
    SystemConfig config_;
    std::unique_ptr<pe::Memory> memory_;
    RingBus bus;
    msg::MessageCache cache;
    /** Present exactly when config_.faultPlan is enabled. */
    std::unique_ptr<fault::FaultInjector> faults_;
    /** Sticky mid-run failure (e.g. detected token corruption). */
    std::string pendingFailure_;

    std::vector<std::unique_ptr<PeSlot>> slots;

    bool booted = false;

    // Recovery state (all inert unless config_.recovery.enabled).
    bool recoveryOn_ = false;
    /** The last pass ended in a failure worth a checkpoint replay. */
    bool replayable_ = false;
    /**
     * The PE a recovered pekill fail-stopped, or -1. Host-side like the
     * injector's streams: restore() does not rewind it but re-applies it.
     */
    int deadPe_ = -1;
    struct Checkpoint;
    std::unique_ptr<Checkpoint> checkpoint_;

    // Durable-checkpoint and host-abort plumbing.
    std::function<void(System &)> checkpointSink_;
    std::chrono::steady_clock::time_point runStart_{};
    unsigned hostGuardTick_ = 0;

    /** The registry finalizeRun() folded (see stats()). */
    StatSet folded_;

    // Telemetry stream (inert unless config_.telemetryEvery > 0).
    std::function<void(System &, Cycle)> telemetrySink_;
    /** Telemetry boundary reached: advance and invoke the sink. */
    void emitTelemetry(Cycle best_time);

    // The flight recorder must outlive the tracer, whose sink pointer
    // refers to it (members destroy in reverse declaration order).
    obs::FlightRecorder flight_;
    trace::Tracer tracer_;
};

} // namespace qm::mp

#include "mp/system.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <queue>
#include <sstream>
#include <utility>

#include "persist/state_codec.hpp"
#include "support/diagnostics.hpp"
#include "support/shutdown.hpp"

namespace qm::mp {

using pe::HostStatus;
using pe::StepResult;
using pe::StepStatus;
using pe::TrapOutcome;

namespace {

// Kernel service costs in cycles, charged on top of the PE's trap
// entry cost (pe::kTrapCycles).
constexpr long kForkCycles = 12;        ///< rfork/ifork.
constexpr long kExitCycles = 4;
constexpr long kQueryCycles = 1;        ///< getin/getout/now/wait/chan.
constexpr long kAllocCycles = 4;
constexpr long kContextLoadCycles = 6;  ///< Dispatch + register load.
constexpr long kContextSaveCycles = 4;  ///< On top of the roll-out.

} // namespace

/** Adapts System kernel services to one PE's host interface. */
class HostAdapter : public pe::PeHost
{
  public:
    HostAdapter(System &system, int pe) : system_(system), pe_(pe) {}

    HostStatus
    send(Word channel, Word value) override
    {
        return system_.hostSend(pe_, channel, value);
    }

    HostStatus
    recv(Word channel, Word &value) override
    {
        return system_.hostRecv(pe_, channel, value);
    }

    TrapOutcome
    trap(Word number, Word argument) override
    {
        return system_.hostTrap(pe_, number, argument);
    }

  private:
    System &system_;
    int pe_;
};

/**
 * The part of a PE slot a checkpoint captures: the base of
 * System::PeSlot, so snapshot() and restore() copy it whole.
 */
struct SlotState
{
    Cycle clock = 0;
    Cycle busyCycles = 0;
    /** Kernel trap service cycles charged while stepping (breakdown). */
    Cycle kernelCycles = 0;
    /** Context load/save/roll-out and exit bookkeeping cycles. */
    Cycle switchCycles = 0;
    /** Fail-stopped by an injected pekill: never schedules again. */
    bool dead = false;
    /** Ready contexts ordered by earliest runnable time. */
    struct Entry
    {
        Cycle readyAt;
        CtxId ctx;
        bool operator>(const Entry &o) const
        {
            if (readyAt != o.readyAt)
                return readyAt > o.readyAt;
            return ctx > o.ctx;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> readyQ;
};

/** Per-PE scheduling state. */
struct System::PeSlot : SlotState
{
    int index = 0;
    /** Start of the current context's uninterrupted run span. */
    Cycle spanStart = 0;
    CtxId running = msg::kNoCtx;
    std::unique_ptr<HostAdapter> host;
    std::unique_ptr<pe::ProcessingElement> pe;
    /** Deferred wait deadline when a TrapWait blocks. */
    std::optional<Cycle> blockUntil;
    /**
     * Lazy context switching: a context that blocks while no other
     * work is ready stays loaded on the PE (registers intact) and
     * resumes for free when its rendezvous completes. Only an arriving
     * ready context forces the roll-out. With one PE there is almost
     * always other work, so every block pays the full switch; with
     * many PEs blocked contexts usually stay resident - the mechanism
     * behind the thesis's better-than-linear throughput ratios.
     */
    CtxId residentBlocked = msg::kNoCtx;

    /** Scheduling load: queued contexts plus the running one. */
    std::size_t
    load() const
    {
        return readyQ.size() + (running != msg::kNoCtx ? 1 : 0);
    }

    /** Next time this slot could do work, if any. */
    std::optional<Cycle>
    nextTime() const
    {
        if (dead)
            return std::nullopt;
        if (running != msg::kNoCtx)
            return clock;
        if (!readyQ.empty())
            return std::max(clock, readyQ.top().readyAt);
        return std::nullopt;
    }
};

/**
 * A complete machine checkpoint. Captured only at quiesced scheduler
 * boundaries (no context running or resident on any live PE), so no
 * PE-internal register state needs saving: a restored machine resumes
 * purely from kernel state (see DESIGN.md "Recoverable execution").
 */
struct System::Checkpoint
{
    pe::PageImage memory;  ///< Written pages only (see pe::Memory).
    KernelState kernel;
    msg::MessageCache::Snapshot cache;
    RingBus::Snapshot bus;
    trace::Tracer::Mark trace;

    /** One PE slot's durable fields plus its PE's statistics. */
    struct Slot : SlotState
    {
        pe::ProcessingElement::Stats peStats;
    };
    std::vector<Slot> slots;
};

System::System(const isa::ObjectCode &code, SystemConfig config)
    : code_(code), decoded_(code.words), config_(config),
      memory_(std::make_unique<pe::Memory>(kMemoryBytes)),
      bus(config.busConfig()), cache(msg::kChannelDepth),
      tracer_(config.traceConfig)
{
    fatalIf(config_.numPes < 1, "system needs at least one PE");
    fatalIf(config_.pageWords < 32 || config_.pageWords > 256,
            "queue page words out of range");

    if (numShards() > 1)
        shardRr_.assign(static_cast<size_t>(numShards()), 0);
    peStats_.resize(static_cast<size_t>(config_.numPes));

    if (config_.faultPlan.enabled())
        faults_ = std::make_unique<fault::FaultInjector>(
            config_.faultPlan);

    recoveryOn_ = config_.recovery.enabled;
    killArmed_ = faults_ && (config_.faultPlan.kinds & fault::kPeKill) &&
                 config_.faultPlan.killPlanned();

    // The flight recorder sees every Tracer emit whether or not the
    // flag-gated trace buffer is on (QM_FLIGHT=0 opts out entirely).
    if (flight_.enabled())
        tracer_.setSink(&flight_);

    bus.setTracer(&tracer_);
    cache.setTracer(&tracer_);
    bus.setFaultInjector(faults_.get());
    cache.setFaultInjector(faults_.get());
    bus.setRecovery(&config_.recovery);
    cache.setRecovery(&config_.recovery);
    for (int i = 0; i < config_.numPes; ++i) {
        auto slot = std::make_unique<PeSlot>();
        slot->index = i;
        slot->host = std::make_unique<HostAdapter>(*this, i);
        slot->pe = std::make_unique<pe::ProcessingElement>(
            *memory_, decoded_, *slot->host);
        slot->pe->attachTrace(&tracer_, i, &slot->clock);
        slot->pe->setFaultInjector(faults_.get());
        slots.push_back(std::move(slot));
    }

    // Queue page pool, top-down so page 0 is handed out last.
    Addr page_bytes = static_cast<Addr>(config_.pageWords) * 4;
    for (int i = kMaxLiveContexts - 1; i >= 0; --i)
        freePages.push_back(kQueuePagePool +
                            static_cast<Addr>(i) * page_bytes);
    fatalIf(kQueuePagePool +
                    static_cast<Addr>(kMaxLiveContexts) *
                        page_bytes >
                kDataBase,
            "queue page pool overlaps the data segment");
}

System::~System() = default;

Word
System::allocChannelPair(int pe)
{
    Word id = nextChannel;
    nextChannel += 2;
    if (numShards() > 1) {
        // Channel directory: both ends of the pair start out owned by
        // the allocating PE's shard. Ifork placement consults it to
        // home children near the consumers of their output channels.
        int shard = shardOfPe(pe);
        channelShard_[id] = shard;
        channelShard_[id + 1] = shard;
    }
    return id;
}

Addr
System::allocQueuePage()
{
    fatalIf(freePages.empty(),
            "out of operand-queue pages (too many live contexts)");
    Addr page = freePages.back();
    freePages.pop_back();
    return page;
}

void
System::freeQueuePage(Addr page)
{
    freePages.push_back(page);
}

int
System::placeContext(int forkingPe, int preferredShard)
{
    if (numShards() > 1)
        return placeSharded(preferredShard >= 0 ? preferredShard
                                                : shardOfPe(forkingPe));
    return placeSurvivor();
}

int
System::placeSharded(int shard)
{
    // Distance-aware placement: keep the context inside its preferred
    // shard (local ring) unless every PE there is more than
    // kShardSlack contexts busier than the machine-wide minimum, so
    // its channel traffic avoids bridge hops. The slack biases fork
    // subtrees toward staying on their parent's ring (a cross-ring
    // rendezvous costs far more than one queued context); a genuinely
    // saturated ring still spills to the global least-loaded PE.
    constexpr std::size_t kShardSlack = 1;
    const int base = bus.ringBase(shard);
    const int size = bus.ringSize(shard);
    int best = -1;
    std::size_t best_load = 0;
    for (int i = 0; i < size; ++i) {
        int pe = base + (shardRr_[static_cast<size_t>(shard)] + i) %
                            size;
        const PeSlot &slot = *slots[static_cast<size_t>(pe)];
        if (slot.dead)
            continue;
        std::size_t load = slot.load();
        if (best < 0 || load < best_load) {
            best = pe;
            best_load = load;
        }
    }
    std::size_t global_min = 0;
    bool any_live = false;
    for (int pe = 0; pe < config_.numPes; ++pe) {
        const PeSlot &slot = *slots[static_cast<size_t>(pe)];
        if (slot.dead)
            continue;
        std::size_t load = slot.load();
        if (!any_live || load < global_min)
            global_min = load;
        any_live = true;
    }
    panicIf(!any_live, "context placement: no live PE");
    if (best >= 0 && best_load <= global_min + kShardSlack) {
        shardRr_[static_cast<size_t>(shard)] = (best - base + 1) % size;
        return best;
    }
    // Preferred ring is saturated (or entirely fail-stopped): fall
    // back to the global least-loaded policy.
    stats_.inc(metric::SysShardSpills);
    return placeSurvivor();
}

int
System::placeSurvivor()
{
    // Emptiest runnable queue among live PEs wins; ties rotate around
    // the ring so independent forks still spread out. This is the
    // flat-ring placement policy, with a dead-PE skip, and also where
    // failStop re-homes a fail-stopped PE's contexts.
    int best = -1;
    std::size_t best_load = 0;
    for (int i = 0; i < config_.numPes; ++i) {
        int pe = (rrNext + i) % config_.numPes;
        const PeSlot &slot = *slots[static_cast<size_t>(pe)];
        if (slot.dead)
            continue;
        std::size_t load = slot.load();
        if (best < 0 || load < best_load) {
            best = pe;
            best_load = load;
        }
    }
    panicIf(best < 0, "context placement: no live PE");
    rrNext = (best + 1) % config_.numPes;
    return best;
}

CtxId
System::createContext(Word codeAddr, Word inChan, Word outChan,
                      int forkingPe, Cycle now, int preferredShard)
{
    Context ctx;
    ctx.id = static_cast<CtxId>(contexts.size());
    ctx.inChan = inChan;
    ctx.outChan = outChan;
    ctx.homePe = placeContext(forkingPe, preferredShard);
    ctx.queuePage = allocQueuePage();
    ctx.regs.pc = codeAddr;
    ctx.regs.qp = ctx.queuePage;
    ctx.regs.pom = pe::pomForPageWords(config_.pageWords);
    ctx.status = CtxStatus::Ready;
    // Shipping the context descriptor to a remote PE rides the bus.
    BusDelivery shipped;
    shipped.at = now;
    if (ctx.homePe != forkingPe)
        shipped = bus.deliver(forkingPe, ctx.homePe, now);
    ctx.readyAt = shipped.at;
    contexts.push_back(ctx);
    ++liveContexts;
    stats_.inc(metric::SysContextsCreated);
    tracer_.ctxCreate(now, ctx.homePe, ctx.id, forkingPe);
    if (numShards() > 1) {
        // Shard bookkeeping: the descriptor ship above IS the explicit
        // cross-shard migration message when the shards differ - it
        // paid the bridge hops in bus.deliver. The directory learns
        // the child's channels so later iforks chase the consumer.
        int from = shardOfPe(forkingPe);
        int to = shardOfPe(ctx.homePe);
        int preferred = preferredShard >= 0 ? preferredShard : from;
        channelShard_[inChan] = to;
        stats_.inc(to == preferred ? metric::SysShardLocalPlacements
                                   : metric::SysShardRemotePlacements);
        if (to != from) {
            stats_.inc(metric::SysShardMigrations);
            tracer_.ctxMigrate(now, ctx.homePe, ctx.id, forkingPe);
        }
    }

    enqueueShipped(ctx.id, shipped);
    return ctx.id;
}

void
System::enqueueShipped(CtxId id, const BusDelivery &shipped)
{
    if (!shipped.delivered) {
        // The descriptor was lost beyond the retry bound: the context
        // exists but can never start. The watchdog/starvation exit
        // reports the resulting stall as a clean failure.
        stats_.inc(metric::FaultCtxShipLost);
        return;
    }
    Context &ctx = contexts[id];
    ctx.readyAt = std::max(ctx.readyAt, shipped.at);
    PeSlot &home = *slots[static_cast<size_t>(ctx.homePe)];
    home.readyQ.push({ctx.readyAt, id});
    if (shipped.duplicated)
        // Duplicate descriptor delivery: a second ready-queue entry
        // for the same context, skipped as stale once the first one
        // dispatches (idempotent delivery).
        home.readyQ.push({shipped.duplicateAt, id});
}

void
System::wakeContext(CtxId id, Cycle at)
{
    Context &ctx = contexts[id];
    panicIf(ctx.status == CtxStatus::Done, "waking a finished context");
    if (ctx.status == CtxStatus::Running)
        return;  // Peer is mid-step on its own PE; it will observe.
    ctx.status = CtxStatus::Ready;
    ctx.readyAt = std::max(ctx.readyAt, at);
    slots[static_cast<size_t>(ctx.homePe)]->readyQ.push(
        {ctx.readyAt, ctx.id});
}

void
System::wakePeer(int pe_idx, Cycle at, CtxId peer)
{
    if (peer == msg::kNoCtx)
        return;
    BusDelivery wake = bus.deliver(pe_idx, contexts[peer].homePe, at);
    if (!wake.delivered)
        return;  // lost wake; watchdog reports the stall
    wakeContext(peer, wake.at);
    if (wake.duplicated)
        wakeContext(peer, wake.duplicateAt);
}

HostStatus
System::hostSend(int pe_idx, Word channel, Word value)
{
    PeSlot &slot = *slots[static_cast<size_t>(pe_idx)];
    msg::ChannelOp op = cache.send(channel, slot.running, value, slot.clock);
    if (!op.completed)
        return HostStatus::Blocked;
    wakePeer(pe_idx, slot.clock, op.wake);
    return HostStatus::Done;
}

HostStatus
System::hostRecv(int pe_idx, Word channel, Word &value)
{
    PeSlot &slot = *slots[static_cast<size_t>(pe_idx)];
    msg::ChannelOp op = cache.recv(channel, slot.running, slot.clock);
    if (op.completed) {
        value = *op.value;
        if (op.healed) {
            // The cache healed a checksum mismatch from the sender's
            // pristine copy; the NACK + resend round trip costs
            // bounded protocol cycles, booked as kernel time.
            slot.clock += op.penalty;
            slot.kernelCycles += op.penalty;
        } else if (op.corrupted && pendingFailure_.empty()) {
            // Checksum mismatch: the token was corrupted in the cache.
            // Without the recovery layer, detection is the only
            // defense this fabric offers, so the run ends with a
            // structured failure instead of silently computing on a
            // flipped bit.
            pendingFailure_ =
                cat("message corruption detected on channel ", channel,
                    " (checksum mismatch at cycle ", slot.clock, ")");
        }
        wakePeer(pe_idx, slot.clock, op.wake);
        return HostStatus::Done;
    }
    return HostStatus::Blocked;
}

TrapOutcome
System::hostTrap(int pe_idx, Word number, Word argument)
{
    PeSlot &slot = *slots[static_cast<size_t>(pe_idx)];
    TrapOutcome outcome = trapService(slot, number, argument);
    // Charged service cycles land in the PE's step time; book them
    // separately so the run report can split kernel from compute.
    if (outcome.status != HostStatus::Blocked)
        slot.kernelCycles += outcome.kernelCycles;
    return outcome;
}

TrapOutcome
System::trapService(PeSlot &slot, Word number, Word argument)
{
    Context &self = contexts[slot.running];
    TrapOutcome outcome;
    switch (number) {
      case isa::TrapExit:
        outcome.endContext = true;
        outcome.kernelCycles = kExitCycles;
        return outcome;
      case isa::TrapRfork: {
        Word in = allocChannelPair(slot.index);
        createContext(argument, in, in + 1, slot.index, slot.clock);
        outcome.result = in;
        outcome.kernelCycles = kForkCycles;
        stats_.inc(metric::SysRforks);
        return outcome;
      }
      case isa::TrapIfork: {
        Word in = allocChannelPair(slot.index);
        // Distance-aware placement: the child inherits this context's
        // output channel, so home it in the shard of that channel's
        // consumer (per the directory) rather than the forker's -
        // pipeline stages chase their consumers across rings instead
        // of piling up where they were forked.
        int preferred = -1;
        if (numShards() > 1) {
            auto it = channelShard_.find(self.outChan);
            if (it != channelShard_.end())
                preferred = it->second;
        }
        createContext(argument, in, self.outChan, slot.index,
                      slot.clock, preferred);
        outcome.result = in;
        outcome.kernelCycles = kForkCycles;
        stats_.inc(metric::SysIforks);
        return outcome;
      }
      case isa::TrapGetIn:
        outcome.result = self.inChan;
        outcome.kernelCycles = kQueryCycles;
        return outcome;
      case isa::TrapGetOut:
        outcome.result = self.outChan;
        outcome.kernelCycles = kQueryCycles;
        return outcome;
      case isa::TrapAlloc: {
        Addr base = heapNext;
        heapNext = (heapNext + argument + 3) & ~static_cast<Addr>(3);
        fatalIf(heapNext > memory_->size(), "kernel heap exhausted");
        outcome.result = base;
        outcome.kernelCycles = kAllocCycles;
        return outcome;
      }
      case isa::TrapNow:
        outcome.result = static_cast<Word>(slot.clock);
        outcome.kernelCycles = kQueryCycles;
        return outcome;
      case isa::TrapWait:
        if (slot.clock >= static_cast<Cycle>(argument)) {
            outcome.kernelCycles = kQueryCycles;
            return outcome;
        }
        slot.blockUntil = static_cast<Cycle>(argument);
        outcome.status = HostStatus::Blocked;
        return outcome;
      case isa::TrapChan:
        outcome.result = allocChannelPair(slot.index);
        outcome.kernelCycles = kQueryCycles;
        return outcome;
      default:
        fatal("unknown kernel trap ", number);
    }
}

bool
System::dispatch(PeSlot &slot)
{
    if (slot.dead)
        return false;
    if (slot.running != msg::kNoCtx)
        return true;
    if (slot.readyQ.empty())
        return false;
    auto entry = slot.readyQ.top();
    slot.readyQ.pop();
    Context &ctx = contexts[entry.ctx];
    if (ctx.status != CtxStatus::Ready)
        return dispatch(slot);  // stale queue entry; skip it
    slot.clock = std::max(slot.clock, entry.readyAt);
    // Ready-queue wait: cycles between the context becoming runnable
    // and the PE actually picking it up (scheduler-induced latency,
    // before any context-load cost is charged).
    Cycle ready_wait = slot.clock - entry.readyAt;
    stats_.record(metric::SysReadyWait,
                  static_cast<std::uint64_t>(ready_wait));
    peStats_[static_cast<size_t>(slot.index)].record(
        metric::ViewReadyWait, static_cast<std::uint64_t>(ready_wait));

    if (slot.residentBlocked == ctx.id) {
        // The resident context's rendezvous completed: resume in place
        // with its registers still live. No roll-out, no reload.
        slot.residentBlocked = msg::kNoCtx;
        ctx.status = CtxStatus::Running;
        slot.running = ctx.id;
        slot.spanStart = slot.clock;
        stats_.inc(metric::SysResidentResumes);
        tracer_.ctxDispatch(slot.clock, slot.index, ctx.id);
        return true;
    }
    if (slot.residentBlocked != msg::kNoCtx)
        // Another context needs the PE: evict the resident one now,
        // paying the deferred save.
        evictResident(slot);
    slot.clock += kContextLoadCycles;
    slot.switchCycles += kContextLoadCycles;
    ctx.status = CtxStatus::Running;
    slot.running = ctx.id;
    slot.spanStart = slot.clock;
    slot.pe->loadContext(ctx.regs);
    ++switches;
    tracer_.ctxDispatch(slot.clock, slot.index, ctx.id);
    return true;
}

void
System::recordResidency(PeSlot &slot)
{
    // Residency: how long the context ran uninterrupted on the PE
    // before blocking, finishing, or being preempted. Long residencies
    // mean the lazy-switch machinery is paying off; a spray of short
    // ones means the run is rendezvous-bound.
    Cycle span = slot.clock - slot.spanStart;
    stats_.record(metric::SysResidency, static_cast<std::uint64_t>(span));
    peStats_[static_cast<size_t>(slot.index)].record(
        metric::ViewResidency, static_cast<std::uint64_t>(span));
}

void
System::park(PeSlot &slot, CtxStatus status)
{
    Context &ctx = contexts[slot.running];
    recordResidency(slot);
    tracer_.peBusy(slot.spanStart, slot.clock, slot.index, ctx.id);
    Cycle cost = slot.pe->rollOut() + kContextSaveCycles;
    slot.clock += cost;
    slot.switchCycles += cost;
    ctx.regs = slot.pe->saveContext();
    ctx.status = status;
    slot.running = msg::kNoCtx;
    tracer_.ctxPark(slot.clock, slot.index, ctx.id,
                    status == CtxStatus::BlockedTime
                        ? trace::ParkReason::Timer
                        : trace::ParkReason::Channel);
}

void
System::evictResident(PeSlot &slot)
{
    Context &resident = contexts[slot.residentBlocked];
    Cycle cost = slot.pe->rollOut() + kContextSaveCycles;
    slot.clock += cost;
    slot.switchCycles += cost;
    resident.regs = slot.pe->saveContext();
    slot.residentBlocked = msg::kNoCtx;
    ++switches;
    stats_.inc(metric::SysEvictions);
}

void
System::preemptRunning(PeSlot &slot)
{
    // Checkpoint quiesce: force the running context out (registers
    // saved) and requeue it so the snapshot needs no PE-internal state.
    CtxId id = slot.running;
    park(slot, CtxStatus::Ready);
    Context &ctx = contexts[id];
    ctx.readyAt = std::max(ctx.readyAt, slot.clock);
    slot.readyQ.push({ctx.readyAt, id});
}

void
System::finishContext(PeSlot &slot)
{
    Context &ctx = contexts[slot.running];
    recordResidency(slot);
    tracer_.peBusy(slot.spanStart, slot.clock, slot.index, ctx.id);
    tracer_.ctxFinish(slot.clock, slot.index, ctx.id);
    ctx.status = CtxStatus::Done;
    freeQueuePage(ctx.queuePage);
    slot.running = msg::kNoCtx;
    --liveContexts;
    stats_.inc(metric::SysContextsFinished);
}

RunResult
System::run(const std::string &entry, Cycle max_cycles)
{
    try {
        panicIf(booted,
                "System::run may only be called once per instance");
        booted = true;
        Addr entry_addr = code_.labelAddr(entry);
        Word in = allocChannelPair(/*pe=*/0);
        createContext(entry_addr, in, in + 1, /*forkingPe=*/0, /*now=*/0);
        if (config_.telemetryEvery > 0)
            nextTelemetryAt_ = config_.telemetryEvery;
        if (recoveryOn_) {
            if (config_.recovery.checkpointEvery > 0)
                nextCheckpointAt_ = config_.recovery.checkpointEvery;
            // Boot checkpoint: even without periodic snapshots, a
            // failed run can always be replayed from the start.
            snapshot();
        }
        return runReplaying(max_cycles);
    } catch (...) {
        dumpThrown();
        throw;
    }
}

RunResult
System::resume(Cycle max_cycles)
{
    try {
        panicIf(!booted, "System::resume before run()");
        return runReplaying(max_cycles);
    } catch (...) {
        dumpThrown();
        throw;
    }
}

void
System::dumpThrown()
{
    if (config_.flightPath.empty())
        return;
    try {
        throw;
    } catch (const FatalError &e) {
        writeFlightDump(config_.flightPath, e.what());
    } catch (const PanicError &e) {
        writeFlightDump(config_.flightPath, e.what());
    } catch (...) {
    }
}

RunResult
System::runReplaying(Cycle max_cycles)
{
    RunResult result = runLoop(max_cycles);
    // Bounded retry-from-checkpoint. The injector draws a fresh (still
    // deterministic) fault schedule each replay, because restore()
    // does not rewind it, so a replay is not a futile re-execution of
    // the same loss.
    int replays = 0;
    while (!result.completed && recoveryOn_ && replayable_ && checkpoint_ &&
           replays < config_.recovery.maxReplays) {
        restore();
        ++replays;
        result = runLoop(max_cycles);
    }
    result.replays = replays;
    result.recovered = result.completed && replays > 0;
    return result;
}

RunResult
System::runLoop(Cycle max_cycles)
{
    // The host deadline budget covers one pass (a run or a replay).
    runStart_ = std::chrono::steady_clock::now();
    hostGuardTick_ = 0;
    // Watchdog bound: explicit, or 1M cycles automatically when fault
    // injection is active (fault-free runs keep the historical
    // behavior exactly).
    const Cycle watchdog =
        config_.watchdogCycles > 0 ? config_.watchdogCycles
        : faults_                  ? 1'000'000
                                   : 0;
    while (liveContexts > 0) {
        if (!pendingFailure_.empty())
            return failRun(pendingFailure_, /*watchdog=*/false);
        if (std::string why; hostAbortDue(why))
            return abortRun(why);
        // Pick the PE able to act soonest. A guard that `continue`s
        // changes the machine; the next iteration picks again.
        Cycle best_time = 0;
        PeSlot *best = pickScan(best_time);
        // Planned fail-stop: fires once simulated time reaches killAt.
        if (killArmed_ && best &&
            best_time >= config_.faultPlan.killAt) {
            std::string failure = injectPeKill(config_.faultPlan.killAt);
            if (failure.empty())
                continue;
            // Not replayable: a replay would only kill the PE again.
            RunResult result = failRun(failure, /*watchdog=*/false);
            replayable_ = false;
            return result;
        }
        if (!best) {
            // Everyone starved: no context can ever run again. Under
            // fault injection this is an expected degraded outcome (a
            // message was lost beyond the retry bound), reported as a
            // clean failure; without faults it is a genuine deadlock
            // in the program, still a hard error.
            if (faults_)
                return failRun(
                    cat("deadlock: ", liveContexts,
                        " live contexts, none runnable (message lost "
                        "beyond the retry bound?)"),
                    /*watchdog=*/true);
            fatal("deadlock: ", liveContexts,
                  " live contexts, none runnable\n", dumpState());
        }
        if (best_time > max_cycles) {
            // Timed out: report everything the run did do. Not
            // replayable: a replay would only re-spend the budget.
            RunResult result = failRun(
                cat("cycle limit reached (", max_cycles, ")"),
                /*watchdog=*/false);
            replayable_ = false;
            return result;
        }
        if (watchdog > 0 && best_time - lastProgress_ > watchdog)
            return failRun(
                cat("watchdog: no instruction retired in ", watchdog,
                    " cycles (last progress at cycle ", lastProgress_,
                    ")"),
                /*watchdog=*/true);
        // Periodic checkpoint, taken at a quiesced scheduler boundary.
        if (nextCheckpointAt_ > 0 && best_time >= nextCheckpointAt_) {
            // Advance the schedule *before* capturing: the snapshot
            // then carries the next boundary, so a run warm-started
            // from it (durable resume or checkpoint replay) continues
            // to the next checkpoint instead of immediately
            // re-snapshotting the boundary it was saved at.
            while (nextCheckpointAt_ <= best_time)
                nextCheckpointAt_ += config_.recovery.checkpointEvery;
            snapshot();
            continue;
        }
        // Telemetry boundary: evaluated after checkpoints, so a
        // coincident boundary sees the checkpoint's counter, but purely
        // observational - no machine state changes, so the loop
        // continues into dispatch.
        if (nextTelemetryAt_ > 0 && best_time >= nextTelemetryAt_)
            emitTelemetry(best_time);

        if (dispatch(*best))
            runBatch(*best, max_cycles);
    }

    RunResult result;
    result.completed = true;
    replayable_ = false;
    finalizeRun(result);
    return result;
}

System::PeSlot *
System::pickScan(Cycle &at)
{
    PeSlot *best = nullptr;
    for (auto &slot : slots) {
        auto t = slot->nextTime();
        if (t && (!best || *t < at)) {
            best = slot.get();
            at = *t;
        }
    }
    return best;
}

void
System::runBatch(PeSlot &slot, Cycle max_cycles)
{
    for (int batch = 0; batch < 16; ++batch) {
        Cycle before = slot.clock;
        StepResult step = slot.pe->step();
        slot.clock += step.cycles;
        slot.busyCycles += slot.clock - before;
        if (step.status != StepStatus::Blocked)
            lastProgress_ = std::max(lastProgress_, slot.clock);
        if (step.status == StepStatus::Executed) {
            // Stop as soon as this PE crosses the cycle budget instead
            // of finishing the batch: the overshoot is bounded by one
            // instruction, not 16. The run loop observes the exhausted
            // clock and times out once no PE below the budget can act.
            if (slot.clock > max_cycles)
                break;
            continue;
        }
        if (step.status == StepStatus::ContextEnd) {
            slot.clock += kExitCycles;
            slot.switchCycles += kExitCycles;
            finishContext(slot);
        } else if (step.status == StepStatus::Blocked) {
            if (slot.blockUntil) {
                Context &ctx = contexts[slot.running];
                ctx.readyAt = *slot.blockUntil;
                CtxId id = slot.running;
                park(slot, CtxStatus::BlockedTime);
                contexts[id].status = CtxStatus::Ready;
                slot.readyQ.push({contexts[id].readyAt, id});
                slot.blockUntil.reset();
            } else if (slot.readyQ.empty()) {
                // Nothing else to run: stay resident (lazy switch).
                Context &ctx = contexts[slot.running];
                ctx.status = CtxStatus::BlockedChannel;
                recordResidency(slot);
                tracer_.peBusy(slot.spanStart, slot.clock, slot.index,
                               ctx.id);
                tracer_.ctxPark(slot.clock, slot.index, ctx.id,
                                trace::ParkReason::Resident);
                slot.residentBlocked = slot.running;
                slot.running = msg::kNoCtx;
            } else {
                park(slot, CtxStatus::BlockedChannel);
            }
        } else {
            panic("fret/rett executed inside a kernel-managed context");
        }
        break;
    }
}

std::string
System::injectPeKill(Cycle at)
{
    killArmed_ = false;
    int victim = config_.faultPlan.killPe;
    victim = victim >= 0 ? victim % config_.numPes
                         : config_.numPes - 1;
    if (faults_)
        faults_->notePlanned(fault::kPeKill);
    bool survivor = false;
    for (auto &slot : slots)
        survivor = survivor || (slot->index != victim && !slot->dead);
    if (recoveryOn_ && survivor) {
        // Roll back to the last snapshot and re-run without the PE. The
        // snapshot holds every context's registers in its kernel
        // record, so the PE takes nothing with it; restore() applies
        // the death.
        deadPe_ = victim;
        restore();
        return {};
    }
    PeSlot &slot = *slots[static_cast<size_t>(victim)];
    slot.dead = true;
    slot.clock = std::max(slot.clock, at);
    stats_.inc(metric::FaultPeKill);
    tracer_.faultInject(at, victim, fault::kPeKill,
                        static_cast<std::uint64_t>(at));
    // Without recovery the PE just falls silent; the starvation or
    // watchdog exit reports the resulting stall as a clean failure.
    if (!recoveryOn_)
        return {};
    stats_.inc(metric::FaultPekillDetected);
    return cat("pekill: PE ", victim, " fail-stopped and no PE survives");
}

void
System::failStop()
{
    killArmed_ = false;
    const int dead_pe = deadPe_;
    PeSlot &slot = *slots[static_cast<size_t>(dead_pe)];
    if (slot.dead)
        return;  // The snapshot was taken after the kill.
    slot.dead = true;
    slot.readyQ = {};
    const Cycle at = frontier();
    stats_.inc(metric::FaultPeKill);
    stats_.inc(metric::FaultPekillDetected);
    tracer_.faultInject(at, dead_pe, fault::kPeKill,
                        static_cast<std::uint64_t>(
                            config_.faultPlan.killAt));

    // Re-home every live context homed on the dead PE. Shipping a
    // ready descriptor to its new home rides the (still faulty) ring
    // like any other kernel message.
    std::uint64_t moved = 0;
    const int dead_shard = numShards() > 1 ? shardOfPe(dead_pe) : 0;
    for (Context &ctx : contexts) {
        if (ctx.homePe != dead_pe || ctx.status == CtxStatus::Done)
            continue;
        // Sharded kernel: prefer a survivor in the dead PE's own shard
        // so re-homing does not scatter a ring's working set across
        // the backbone; placeSharded spills only when every shard-local
        // PE is worse than the global best (or the shard is wiped out).
        int target = numShards() > 1 ? placeSharded(dead_shard)
                                     : placeSurvivor();
        ctx.homePe = target;
        if (numShards() > 1) {
            int to = shardOfPe(target);
            if (to != dead_shard) {
                channelShard_[ctx.inChan] = to;
                stats_.inc(metric::SysShardMigrations);
                tracer_.ctxMigrate(at, target, ctx.id, dead_pe);
            }
        }
        ++moved;
        // Blocked contexts stay put: their wake lands on the new home.
        if (ctx.status == CtxStatus::Ready)
            enqueueShipped(ctx.id, bus.deliver(dead_pe, target, at));
    }
    stats_.inc(metric::FaultPekillRecovered);
    tracer_.faultRecover(at, dead_pe, fault::kPeKill, moved);
}

void
System::snapshot()
{
    // Quiesce: force every loaded context out so all register state
    // lives in the kernel's Context records.
    for (auto &slot : slots) {
        if (slot->dead) {
            panicIf(slot->running != msg::kNoCtx ||
                        slot->residentBlocked != msg::kNoCtx,
                    "snapshot with a context on a fail-stopped PE");
            continue;
        }
        if (slot->running != msg::kNoCtx)
            preemptRunning(*slot);
        else if (slot->residentBlocked != msg::kNoCtx)
            evictResident(*slot);
    }
    stats_.inc(metric::SysCheckpoints);
    auto cp = std::make_unique<Checkpoint>();
    cp->memory = memory_->snapshot();
    cp->kernel = *this;
    cp->cache = cache.snapshot();
    cp->bus = bus.snapshot();
    cp->trace = tracer_.mark();
    for (auto &slot : slots)
        cp->slots.push_back({*slot, slot->pe->statBlock()});
    checkpoint_ = std::move(cp);
    // Flight recorder: note the boundary, and refresh the on-disk
    // black box before the sink persists this snapshot - a kill -9
    // (which no handler can catch) then never leaves a checkpoint file
    // without a parseable post-mortem next to it.
    flight_.checkpoint(frontier(), static_cast<int>(liveContexts));
    if (checkpointSink_ && !config_.flightPath.empty())
        writeFlightDump(config_.flightPath, "checkpoint");
    // Durable persistence point: occamc's --checkpoint-file sink
    // serializes the fresh checkpoint here, so every boot/periodic
    // snapshot boundary is also a crash-recovery point on disk.
    if (checkpointSink_)
        checkpointSink_(*this);
}

bool
System::canRestore() const
{
    return checkpoint_ != nullptr;
}

void
System::restore()
{
    panicIf(!checkpoint_, "restore() without a prior snapshot()");
    const Checkpoint &cp = *checkpoint_;
    memory_->restore(cp.memory);
    static_cast<KernelState &>(*this) = cp.kernel;
    cache.restore(cp.cache);
    bus.restore(cp.bus);
    tracer_.rewind(cp.trace);
    for (std::size_t i = 0; i < slots.size(); ++i) {
        PeSlot &slot = *slots[i];
        static_cast<SlotState &>(slot) = cp.slots[i];
        slot.pe->statBlock() = cp.slots[i].peStats;
        slot.spanStart = slot.clock;
        slot.running = msg::kNoCtx;
        slot.residentBlocked = msg::kNoCtx;
        slot.blockUntil.reset();
    }
    pendingFailure_.clear();
    replayable_ = false;
    // Note: the fault injector's streams are deliberately NOT part of
    // the checkpoint. A replay draws a fresh (still deterministic)
    // fault schedule, so a deterministic failure is not simply
    // re-executed forever; injected counters keep accumulating across
    // replays.
    // The flight recorder deliberately does NOT rewind: it is a
    // record of what the host actually executed, abandoned replay
    // timelines included - exactly what a post-mortem wants.
    flight_.noteRestore(frontier());
    // Nor does a recovered fail-stop: the PE stays dead in every
    // timeline after its kill, so the kill fires once per run.
    if (deadPe_ >= 0)
        failStop();
}

// ---------------------------------------------------------------------------
// Durable checkpoints (see DESIGN.md "Durable checkpoints & resume").
//
// The on-disk image is the in-memory Checkpoint, serialized as a
// versioned container of individually-checksummed sections and written
// atomically. The fault injector's stream state IS persisted (unlike
// the in-memory restore note above): a cross-process resume continues
// the decision streams exactly where the snapshot left them, which is
// what makes a resumed fault-injected run byte-identical to an
// uninterrupted one from the snapshot point on - including any
// in-memory replays either run performs later, since both machines
// advance the same streams identically.
// ---------------------------------------------------------------------------

namespace {

constexpr const char *kCheckpointMagic = "QMCKPT01";
constexpr std::uint32_t kCheckpointVersion = 1;

// Each section's wire layout is listed once, in a fields() template
// that saveCheckpoint runs with an Encoder and loadCheckpoint with a
// Decoder (see persist/state_codec.hpp).

/**
 * KERN: the kernel records and cursors. @p shard_live is not kernel
 * state: it is derived from the context records (shardLiveCounts)
 * when saving and must equal that derivation when loading.
 */
template <class Ar, class K, class L>
void
kernelFields(Ar &ar, K &k, L &shard_live)
{
    // Two retired slots, from a lease-based fail-stop detector: the
    // PE awaiting detection, always -1, and its detection cycle,
    // always 0. KERN keeps its bytes; a file holding anything else is
    // refused.
    std::int64_t lease_pe = -1;
    std::int64_t lease_at = 0;

    ar.seq(k.contexts, [&](auto &ctx) { persist::fields(ar, ctx); });
    ar.seq(k.freePages, [&](auto &page) { ar.u32(page); });
    ar.u32(k.nextChannel);
    ar.u32(k.heapNext);
    ar.i64(k.rrNext);
    ar.seq(k.shardRr_, [&](auto &cursor) { ar.i64(cursor); });
    ar.seq(shard_live, [&](auto &live) { ar.u64(live); });
    ar.map(k.channelShard_, [&](auto &chan, auto &shard) {
        ar.u32(chan);
        ar.i64(shard);
    });
    ar.u64(k.liveContexts);
    ar.u64(k.switches);
    ar.u8(k.killArmed_);
    ar.i64(lease_pe, -1, -1, "retired lease PE slot");
    ar.i64(lease_at, 0, 0, "retired lease cycle slot");
    ar.i64(k.nextCheckpointAt_);
    ar.i64(k.lastProgress_);
}

/** SLOT (one per PE): the slot's durable fields and its PE's stats. */
template <class Ar, class S>
void
slotFields(Ar &ar, S &slot)
{
    ar.i64(slot.clock);
    ar.i64(slot.busyCycles);
    ar.i64(slot.kernelCycles);
    ar.i64(slot.switchCycles);
    ar.u8(slot.dead);
    ar.seq(slot.readyQ, [&](auto &entry) {
        ar.i64(entry.readyAt);
        ar.u32(entry.ctx);
    });
    persist::statSet(ar, slot.peStats);
}

/** FALT: whether an injector exists, then its decision-stream state. */
template <class Ar, class B, class S>
void
faultFields(Ar &ar, B &present, S &state)
{
    ar.u8(present);
    if (!present)
        return;
    for (auto &stream : state.streams)
        ar.u64(stream);
    ar.u64(state.payload);
    for (auto &count : state.counts)
        ar.u64(count);
    ar.u64(state.injected);
}

/**
 * Live (not Done) contexts per shard of their home PE, as KERN lists
 * them: one count per local ring, none on a flat ring.
 */
std::vector<std::uint64_t>
shardLiveCounts(const std::vector<Context> &contexts, const RingBus &bus,
                int shards)
{
    std::vector<std::uint64_t> live;
    if (shards > 1) {
        live.assign(static_cast<std::size_t>(shards), 0);
        for (const Context &ctx : contexts)
            if (ctx.status != CtxStatus::Done)
                ++live[static_cast<std::size_t>(bus.ringOf(ctx.homePe))];
    }
    return live;
}

} // namespace

std::string
configFingerprint(const SystemConfig &c)
{
    // The constant sizes and costs have slots too, so a build with other
    // costs refuses this build's checkpoints and journals. Retired
    // settings keep their slots, so checkpoint META and sweep journal
    // fingerprints keep their bytes: ";place=0" was a placement knob,
    // and the 256, 4096 and 262144 under ";rec=" were the fail-stop
    // lease and the span journal's host-op and undo-word bounds.
    const fault::RecoveryPlan &r = c.recovery;
    return cat(
        "pes=", c.numPes, ";rings=", c.busRings, ";parts=", c.busPartitions,
        ";topoexp=", int(c.busTopologyExplicit), ";mem=", kMemoryBytes,
        ";page=", c.pageWords, ";live=", kMaxLiveContexts,
        ";depth=", msg::kChannelDepth, ";place=0",
        ";fork=", kForkCycles, ";exit=", kExitCycles,
        ";query=", kQueryCycles, ";alloc=", kAllocCycles,
        ";cload=", kContextLoadCycles, ";csave=", kContextSaveCycles,
        ";bus=", kHopCycles, ",", kMessageOverhead, ",", kBridgeCycles,
        ",", kBackboneHopCycles,
        ";tim=", pe::kSimpleCycles, ",", pe::kImmWordCycles, ",",
        pe::kMemoryCycles, ",", pe::kBranchTakenCycles, ",",
        pe::kChannelCycles, ",", pe::kTrapCycles, ",",
        pe::kRollOutCyclesPerReg, ";wd=", c.watchdogCycles,
        ";faults=", fault::toString(c.faultPlan),
        ";rec=", int(r.enabled), ",", r.maxResends, ",", kAckTimeoutCycles,
        ",256,", msg::kNackPenaltyCycles, ",", r.checkpointEvery, ",",
        r.maxReplays, ",4096,262144",
        ";trace=", int(c.traceConfig.enabled), ",", c.traceConfig.maxEvents);
}

std::string
System::configFingerprint() const
{
    return cat(mp::configFingerprint(config_), ";code=",
               persist::crc32(code_.words.data(),
                              code_.words.size() * sizeof(Word)));
}

persist::Status
System::saveCheckpoint(const std::string &path) const
{
    using persist::Encoder;
    using persist::ErrCode;
    using persist::Status;
    if (!checkpoint_)
        return Status::error(
            ErrCode::Mismatch,
            "no snapshot to persist (checkpoints require recovery mode)");
    const Checkpoint &cp = *checkpoint_;

    std::vector<std::uint64_t> shard_live =
        shardLiveCounts(cp.kernel.contexts, bus, numShards());
    // Recorder content up to the checkpoint mark, so a resumed
    // process exports the same trace an uninterrupted one would.
    persist::TraceState ts;
    const auto &events = tracer_.events();
    std::size_t upto = std::min(cp.trace.events, events.size());
    ts.events.assign(events.begin(),
                     events.begin() + static_cast<std::ptrdiff_t>(upto));
    ts.dropped = cp.trace.dropped;
    ts.kindCounts = cp.trace.kindCounts;
    bool has_faults = faults_ != nullptr;
    fault::FaultInjector::PersistState fstate;
    if (faults_)
        fstate = faults_->persistState();

    std::vector<persist::Section> sections;
    auto section = [&](const char *tag, auto &&write) {
        Encoder enc;
        write(enc);
        sections.push_back({tag, enc.take()});
    };
    section("META", [&](Encoder &enc) { enc.str(configFingerprint()); });
    section("KERN", [&](Encoder &enc) {
        kernelFields(enc, cp.kernel, shard_live);
    });
    section("MEMS", [&](Encoder &enc) {
        persist::encodeMemoryImage(enc, cp.memory);
    });
    section("STAT", [&](Encoder &enc) {
        persist::statSet(enc, cp.kernel.stats_, &cp.kernel.peStats_);
    });
    section("CACH", [&](Encoder &enc) { persist::fields(enc, cp.cache); });
    section("BUSS", [&](Encoder &enc) { persist::fields(enc, cp.bus); });
    section("SLOT", [&](Encoder &enc) {
        enc.seq(cp.slots, [&](auto &slot) { slotFields(enc, slot); });
    });
    section("TRAC", [&](Encoder &enc) { persist::fields(enc, ts); });
    section("FALT", [&](Encoder &enc) {
        faultFields(enc, has_faults, fstate);
    });

    std::vector<std::uint8_t> image = persist::buildContainer(
        kCheckpointMagic, kCheckpointVersion, sections);
    return persist::writeFileAtomic(path, image);
}

persist::Status
System::loadCheckpoint(const std::string &path)
{
    using persist::Decoder;
    using persist::ErrCode;
    using persist::Status;
    if (booted)
        return Status::error(
            ErrCode::Mismatch,
            "loadCheckpoint is only valid on a system that has not run");
    std::vector<std::uint8_t> image;
    Status st = persist::readFile(path, image);
    if (!st.ok())
        return st;
    std::vector<persist::Section> sections;
    st = persist::parseContainer(image, kCheckpointMagic, kCheckpointVersion,
                                 sections);
    if (!st.ok())
        return st;

    // Decode each section in file order, stopping at the first that
    // is missing, malformed, or not fully consumed.
    auto section = [&](const char *tag, auto &&visit) {
        if (!st.ok())
            return;
        auto found = std::find_if(
            sections.begin(), sections.end(),
            [&](const persist::Section &s) { return s.tag == tag; });
        if (found == sections.end()) {
            st = Status::error(ErrCode::BadFormat,
                               cat("missing section ", tag));
            return;
        }
        Decoder dec(found->payload);
        visit(dec);
        if (dec.ok() && !dec.atEnd())
            dec.fail("trailing bytes");
        if (!dec.ok())
            st = Status::error(ErrCode::BadFormat,
                               cat("section ", tag, ": ", dec.error()));
    };

    std::string fp;
    section("META", [&](Decoder &dec) { dec.str(fp); });
    if (!st.ok())
        return st;
    if (fp != configFingerprint())
        return Status::error(
            ErrCode::Mismatch,
            cat("checkpoint was written for a different configuration "
                "(file: ", fp, " | machine: ", configFingerprint(), ")"));

    // Decode every section into locals first: the machine mutates only
    // after the whole file has been decoded and validated, so a bad
    // checkpoint leaves this system cold and perfectly runnable. After
    // decoding, a visitor fails its decoder on a semantic problem: the
    // CRC only proves the bytes were written together, not that they
    // describe this machine.
    auto cp = std::make_unique<Checkpoint>();
    const KernelState &k = cp->kernel;

    section("KERN", [&](Decoder &dec) {
        std::vector<std::uint64_t> shard_live;
        kernelFields(dec, cp->kernel, shard_live);
        if (!dec.ok())
            return;
        std::uint64_t live = 0;
        for (std::size_t i = 0; i < k.contexts.size(); ++i) {
            const Context &ctx = k.contexts[i];
            if (ctx.id != i)
                return dec.fail(cat("context ", i, " carries id ", ctx.id));
            if (ctx.homePe < 0 || ctx.homePe >= config_.numPes)
                return dec.fail(cat("context ", i, " homed on PE ",
                                    ctx.homePe, " of a ", config_.numPes,
                                    "-PE machine"));
            if (ctx.status == CtxStatus::Running)
                return dec.fail(cat("context ", i,
                                    " claims to be Running (snapshots "
                                    "are quiesced)"));
            if (ctx.status != CtxStatus::Done)
                ++live;
        }
        if (live != k.liveContexts)
            return dec.fail(cat("liveContexts says ", k.liveContexts,
                                ", context records say ", live));
        if (shard_live != shardLiveCounts(k.contexts, bus, numShards()))
            return dec.fail("per-shard live context counts do not match "
                            "the context records");
        // The placement cursors index the PE slots unchecked.
        if (k.rrNext < 0 || k.rrNext >= config_.numPes)
            return dec.fail(cat("rrNext ", k.rrNext, " is not a PE of a ",
                                config_.numPes, "-PE machine"));
        std::size_t shards = numShards() > 1 ? numShards() : 0;
        if (k.shardRr_.size() != shards)
            return dec.fail(cat("shardRr lists ", k.shardRr_.size(),
                                " shard cursors, this machine needs ",
                                shards));
        for (std::size_t s = 0; s < shards; ++s) {
            int size = bus.ringSize(static_cast<int>(s));
            if (k.shardRr_[s] < 0 || k.shardRr_[s] >= size)
                return dec.fail(cat("shardRr cursor ", k.shardRr_[s],
                                    " of shard ", s, " is not one of its ",
                                    size, " PEs"));
        }
        for (const auto &[chan, shard] : k.channelShard_)
            if (shard < 0 || shard >= numShards())
                return dec.fail(cat("channel ", chan, " mapped to shard ",
                                    shard, " of ", numShards()));
        // Free queue pages: each a page of the pool, listed once, and
        // not the page of a live context - the next fork would hand
        // that context's operand queue to a second one.
        auto pool_pages = static_cast<std::size_t>(kMaxLiveContexts);
        Addr page_bytes = static_cast<Addr>(config_.pageWords) * 4;
        auto pool_index = [&](Addr page) -> std::size_t {
            if (page < kQueuePagePool ||
                (page - kQueuePagePool) % page_bytes != 0)
                return pool_pages;
            return std::min<std::size_t>((page - kQueuePagePool) /
                                             page_bytes,
                                         pool_pages);
        };
        std::vector<CtxId> holder(pool_pages, msg::kNoCtx);
        for (const Context &ctx : k.contexts) {
            std::size_t at = pool_index(ctx.queuePage);
            if (ctx.status != CtxStatus::Done && at < pool_pages)
                holder[at] = ctx.id;
        }
        std::vector<bool> listed(pool_pages, false);
        for (Addr page : k.freePages) {
            std::size_t at = pool_index(page);
            if (at == pool_pages)
                return dec.fail(cat("free queue page ", page,
                                    " is not a page of the queue pool"));
            if (listed[at])
                return dec.fail(cat("free queue page ", page,
                                    " is listed twice"));
            if (holder[at] != msg::kNoCtx)
                return dec.fail(cat("free queue page ", page,
                                    " is the queue page of live context ",
                                    holder[at]));
            listed[at] = true;
        }
    });
    // Context ids a section names must index the decoded records.
    auto names_context = [&](CtxId id) { return id < k.contexts.size(); };
    section("MEMS", [&](Decoder &dec) {
        cp->memory = persist::decodeMemoryImage(dec, memory_->size());
    });
    section("STAT", [&](Decoder &dec) {
        cp->kernel.peStats_.resize(slots.size());
        persist::statSet(dec, cp->kernel.stats_, &cp->kernel.peStats_);
    });
    section("CACH", [&](Decoder &dec) {
        persist::fields(dec, cp->cache);
        for (const auto *kv : persist::keyOrder(cp->cache.entries))
            for (const auto *waiters :
                 {&kv->second.sendWaiters, &kv->second.recvWaiters})
                for (CtxId id : *waiters)
                    if (!names_context(id))
                        return dec.fail(cat("channel ", kv->first,
                                            " waiter names context ", id,
                                            " of ", k.contexts.size()));
    });
    section("BUSS", [&](Decoder &dec) {
        persist::fields(dec, cp->bus);
        RingBus::Snapshot shape = bus.snapshot();
        if (cp->bus.partitionFree.size() != shape.partitionFree.size() ||
            cp->bus.bridgeFree.size() != shape.bridgeFree.size() ||
            cp->bus.backboneFree.size() != shape.backboneFree.size())
            dec.fail("ring shape does not match this topology");
    });
    section("SLOT", [&](Decoder &dec) {
        dec.seq(cp->slots, [&](auto &slot) { slotFields(dec, slot); });
        if (cp->slots.size() != slots.size())
            return dec.fail(cat("file has ", cp->slots.size(),
                                " PE slots, this machine has ",
                                slots.size()));
        for (const Checkpoint::Slot &slot : cp->slots)
            for (auto q = slot.readyQ; !q.empty(); q.pop())
                if (!names_context(q.top().ctx))
                    return dec.fail(cat("ready entry names context ",
                                        q.top().ctx, " of ",
                                        k.contexts.size()));
    });
    persist::TraceState ts;
    section("TRAC", [&](Decoder &dec) { persist::fields(dec, ts); });
    bool has_faults = false;
    fault::FaultInjector::PersistState fstate;
    section("FALT", [&](Decoder &dec) {
        faultFields(dec, has_faults, fstate);
        if (has_faults != (faults_ != nullptr))
            dec.fail("fault-injector presence does not match");
    });
    if (!st.ok())
        return st;

    // Commit: everything decoded and validated; no failure paths below.
    if (faults_)
        faults_->restorePersistState(fstate);
    tracer_.restoreStream(std::move(ts.events), ts.dropped, ts.kindCounts);
    cp->trace = tracer_.mark();
    checkpoint_ = std::move(cp);
    booted = true;
    restore();
    // The telemetry schedule is host-side streaming state, not part
    // of the on-disk format: a durable resume, and every later restore
    // to this checkpoint, re-aligns to the first boundary after it.
    if (config_.telemetryEvery > 0)
        nextTelemetryAt_ = checkpoint_->kernel.nextTelemetryAt_ =
            (frontier() / config_.telemetryEvery + 1) *
            config_.telemetryEvery;
    return Status::okStatus();
}

void
System::finalizeRun(RunResult &result)
{
    Cycle finish = frontier();
    Cycle busy_total = 0, kernel_total = 0, switch_total = 0;
    double busy = 0.0;
    for (auto &slot : slots) {
        busy_total += slot->busyCycles;
        kernel_total += slot->kernelCycles;
        switch_total += slot->switchCycles;
        busy += finish > 0 ? static_cast<double>(slot->busyCycles) /
                                 static_cast<double>(finish)
                           : 0.0;
    }
    result.cycles = finish;
    result.instructions = count(metric::PeInstructions);
    result.contexts = count(metric::SysContextsCreated);
    result.rendezvous = count(metric::MsgRendezvous);
    result.contextSwitches = switches;
    result.utilization = busy / config_.numPes;

    // Per-phase breakdown: every PE-cycle of the run is compute,
    // kernel (trap service + context switching), or blocked/idle. Bus
    // occupancy overlaps PE time and is reported as its own dimension.
    // Injected stall cycles inflate busyCycles without doing user
    // work, so they move from compute to blocked.
    auto stall_total = static_cast<Cycle>(count(metric::FaultPeStallCycles));
    result.computeCycles = busy_total - kernel_total - stall_total;
    result.kernelCycles = kernel_total + switch_total;
    result.blockedCycles = finish * config_.numPes -
                           (busy_total + switch_total) + stall_total;
    result.busCycles = static_cast<Cycle>(count(metric::BusTransferCycles));
    result.faultsInjected = faults_ ? faults_->injected() : 0;
    result.traceDropped = tracer_.dropped();

    // Unified per-kind accounting, indexed in FaultKind bit order.
    // Delay and stall faults are absorbed by the timing model: they
    // are injected but there is nothing to detect or recover.
    using Counted = std::optional<std::pair<metric::Id, metric::Id>>;
    static const Counted detected_recovered[fault::kNumFaultKinds] = {
        {{metric::FaultDropDetected, metric::FaultDropRecovered}},
        {{metric::FaultDupDetected, metric::FaultDupRecovered}},
        {},
        {{metric::FaultCorruptDetected, metric::FaultCorruptRecovered}},
        {},
        {{metric::FaultPekillDetected, metric::FaultPekillRecovered}},
    };
    std::uint64_t recovered_total = 0;
    for (std::size_t i = 0; i < result.faultKinds.size(); ++i) {
        const Counted &counted = detected_recovered[i];
        RunResult::FaultKindCounts &out = result.faultKinds[i];
        auto kind = static_cast<fault::FaultKind>(1u << i);
        out.injected = faults_ ? faults_->injectedOf(kind) : 0;
        out.detected = counted ? count(counted->first) : 0;
        out.recovered = counted ? count(counted->second) : 0;
        recovered_total += out.recovered;
    }
    result.faultRecoveries = recovered_total;

    stats_.set(metric::SysCycles, static_cast<double>(finish));
    stats_.set(metric::SysUtilization, result.utilization);
    stats_.set(metric::SysCyclesCompute,
               static_cast<double>(result.computeCycles));
    stats_.set(metric::SysCyclesKernel,
               static_cast<double>(result.kernelCycles));
    stats_.set(metric::SysCyclesBlocked,
               static_cast<double>(result.blockedCycles));
    stats_.set(metric::SysCyclesBus, static_cast<double>(result.busCycles));
    folded_ = foldStats();
}

Cycle
System::frontier() const
{
    Cycle at = 0;
    for (const auto &slot : slots)
        at = std::max(at, slot->clock);
    return at;
}

StatSet
System::foldStats() const
{
    StatSet out;
    stats_.foldInto(out);
    for (const auto &slot : slots) {
        std::string prefix = metric::pePrefix(slot->index);
        auto view = peStats_[static_cast<size_t>(slot->index)];
        view.set(metric::ViewClock, static_cast<double>(slot->clock));
        view.set(metric::ViewCyclesBusy,
                 static_cast<double>(slot->busyCycles));
        view.set(metric::ViewCyclesKernel,
                 static_cast<double>(slot->kernelCycles));
        view.set(metric::ViewCyclesSwitch,
                 static_cast<double>(slot->switchCycles));
        view.foldInto(out, prefix);
        slot->pe->statBlock().foldInto(out);
        slot->pe->statBlock().foldInto(out, prefix);
    }
    cache.statBlock().foldInto(out);
    bus.statBlock().foldInto(out);
    return out;
}

std::uint64_t
System::count(metric::Id id) const
{
    std::uint64_t total = 0;
    switch (metric::kCatalog[id].owner) {
      case metric::Owner::Kernel: return stats_.counter(id);
      case metric::Owner::Cache: return cache.statBlock().counter(id);
      case metric::Owner::Bus: return bus.statBlock().counter(id);
      case metric::Owner::Pe:
        for (const auto &slot : slots)
            total += slot->pe->statBlock().counter(id);
        return total;
      case metric::Owner::PeView:
        break;
    }
    panic("metric ", metric::kCatalog[id].name, " is not a counter");
}

RunResult
System::failRun(const std::string &reason, bool watchdog)
{
    // Every structured failure (watchdog, starvation, corruption,
    // unrecoverable fail-stop) is worth one more try from the last
    // checkpoint when the caller has recovery enabled.
    replayable_ = true;
    RunResult result;
    result.completed = false;
    result.watchdogTripped = watchdog;
    result.failureReason = reason;
    finalizeRun(result);
    // Black box: every structured failure leaves a post-mortem next
    // to the checkpoint/metrics files (abortRun routes through here,
    // so deadline and signal exits are covered too).
    if (!config_.flightPath.empty())
        writeFlightDump(config_.flightPath, reason);
    return result;
}

bool
System::hostAbortDue(std::string &why)
{
    if (config_.hostDeadlineMs <= 0 &&
        !support::shutdownSignalsInstalled())
        return false;
    if ((++hostGuardTick_ & 0x3FFu) != 0)
        return false;
    if (support::shutdownRequested()) {
        why = cat("interrupted: ", support::shutdownSignalName(),
                  " received");
        return true;
    }
    if (config_.hostDeadlineMs > 0) {
        auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - runStart_)
                           .count();
        if (elapsed >= config_.hostDeadlineMs) {
            why = cat("deadline: run exceeded its host wall-clock budget (",
                      config_.hostDeadlineMs, " ms)");
            return true;
        }
    }
    return false;
}

RunResult
System::abortRun(const std::string &reason)
{
    RunResult result = failRun(reason, /*watchdog=*/false);
    // Host aborts depend on wall-clock timing, not simulated state: a
    // checkpoint replay would be non-deterministic, so never offer one.
    replayable_ = false;
    result.hostAborted = true;
    return result;
}

persist::Status
System::writeFlightDump(const std::string &path,
                        const std::string &reason)
{
    if (!flight_.enabled())
        return persist::Status::okStatus();
    obs::FlightHeader header;
    header.reason = reason;
    header.cycle = frontier();
    header.pes = config_.numPes;
    header.liveContexts = static_cast<int>(liveContexts);
    return flight_.dumpToFile(path, header);
}

void
System::emitTelemetry(Cycle best_time)
{
    // The stamp is the first boundary crossed; a quiet stretch that
    // slept through several boundaries advances the schedule past all
    // of them, so stamps stay aligned to multiples of telemetryEvery
    // and depend only on the simulated timeline.
    Cycle stamp = nextTelemetryAt_;
    while (nextTelemetryAt_ <= best_time)
        nextTelemetryAt_ += config_.telemetryEvery;
    if (telemetrySink_)
        telemetrySink_(*this, stamp);
}

std::string
System::dumpState() const
{
    std::ostringstream os;
    for (const Context &ctx : contexts) {
        if (ctx.status == CtxStatus::Done)
            continue;
        os << "ctx " << ctx.id << " pe=" << ctx.homePe << " pc="
           << ctx.regs.pc << " status=";
        switch (ctx.status) {
          case CtxStatus::Ready: os << "ready"; break;
          case CtxStatus::Running: os << "running"; break;
          case CtxStatus::BlockedChannel: os << "blocked-chan"; break;
          case CtxStatus::BlockedTime: os << "blocked-time"; break;
          case CtxStatus::Done: os << "done"; break;
        }
        os << " in=" << ctx.inChan << " out=" << ctx.outChan << "\n";
    }
    // With tracing on, the timeline tail shows what led up to a
    // deadlock or timeout - by far the most useful part of the report.
    if (tracer_.enabled())
        os << tracer_.summary();
    return os.str();
}

} // namespace qm::mp

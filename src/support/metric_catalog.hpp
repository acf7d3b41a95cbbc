/**
 * @file
 * The metric catalog: every statistic the simulator records, listed
 * once, and StatBlock, the dense storage each component records into
 * by catalog ID (`stats_.inc(metric::PeInstructions)`). A block holds
 * one slot per entry of its owner and one touched bit per entry, set by
 * the first record, so folding it into a StatSet creates exactly the
 * entries a name-keyed registry would have created on first use.
 * Registry names appear only here, and only matter when a block is
 * folded (reports, checkpoint sections) or a section unfolded.
 */
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

#include "support/diagnostics.hpp"
#include "support/stats.hpp"

namespace qm::metric {

enum class Kind : std::uint8_t { Counter, Scalar, Histogram };

/**
 * The StatBlock that records a metric, and so the checkpoint section it
 * travels in: Kernel and PeView (the kernel's view of one PE) in STAT,
 * Pe in SLOT, Cache in CACH and Bus in BUSS.
 */
enum class Owner : std::uint8_t { Kernel, PeView, Pe, Cache, Bus };

/**
 * X(id, registry name, kind, owner). A PeView entry is kept by the
 * kernel once per PE and registered as "pe<N>.<name>"; it is how the
 * catalog marks a per-PE statistic. A PE's own entries fold twice:
 * summed over the PEs under their name, and again under "pe<N>.".
 */
#define QM_METRIC_CATALOG(X)                                                 \
    X(SysCheckpoints, "sys.checkpoints", Counter, Kernel)                    \
    X(SysContextsCreated, "sys.contexts_created", Counter, Kernel)           \
    X(SysContextsFinished, "sys.contexts_finished", Counter, Kernel)         \
    X(SysEvictions, "sys.evictions", Counter, Kernel)                        \
    X(SysIforks, "sys.iforks", Counter, Kernel)                              \
    X(SysRforks, "sys.rforks", Counter, Kernel)                              \
    X(SysResidentResumes, "sys.resident_resumes", Counter, Kernel)           \
    X(SysShardLocalPlacements, "sys.shard_local_placements",                 \
      Counter, Kernel)                                                       \
    X(SysShardRemotePlacements, "sys.shard_remote_placements",               \
      Counter, Kernel)                                                       \
    X(SysShardMigrations, "sys.shard_migrations", Counter, Kernel)           \
    X(SysShardSpills, "sys.shard_spills", Counter, Kernel)                   \
    X(FaultCtxShipLost, "fault.ctx_ship_lost", Counter, Kernel)              \
    X(FaultPeKill, "fault.pe_kill", Counter, Kernel)                         \
    X(FaultPekillDetected, "fault.pekill.detected", Counter, Kernel)         \
    X(FaultPekillRecovered, "fault.pekill.recovered", Counter, Kernel)       \
    X(SysCycles, "sys.cycles", Scalar, Kernel)                               \
    X(SysUtilization, "sys.utilization", Scalar, Kernel)                     \
    X(SysCyclesCompute, "sys.cycles_compute", Scalar, Kernel)                \
    X(SysCyclesKernel, "sys.cycles_kernel", Scalar, Kernel)                  \
    X(SysCyclesBlocked, "sys.cycles_blocked", Scalar, Kernel)                \
    X(SysCyclesBus, "sys.cycles_bus", Scalar, Kernel)                        \
    X(SysReadyWait, "sys.ready_wait", Histogram, Kernel)                     \
    X(SysResidency, "sys.residency", Histogram, Kernel)                      \
    X(ViewClock, "clock", Scalar, PeView)                                    \
    X(ViewCyclesBusy, "cycles_busy", Scalar, PeView)                         \
    X(ViewCyclesKernel, "cycles_kernel", Scalar, PeView)                     \
    X(ViewCyclesSwitch, "cycles_switch", Scalar, PeView)                     \
    X(ViewReadyWait, "ready_wait", Histogram, PeView)                        \
    X(ViewResidency, "residency", Histogram, PeView)                         \
    X(PeInstructions, "pe.instructions", Counter, Pe)                        \
    X(PeAluOps, "pe.alu_ops", Counter, Pe)                                   \
    X(PeDups, "pe.dups", Counter, Pe)                                        \
    X(PeSends, "pe.sends", Counter, Pe)                                      \
    X(PeRecvs, "pe.recvs", Counter, Pe)                                      \
    X(PeStores, "pe.stores", Counter, Pe)                                    \
    X(PeFetches, "pe.fetches", Counter, Pe)                                  \
    X(PeBranches, "pe.branches", Counter, Pe)                                \
    X(PeTraps, "pe.traps", Counter, Pe)                                      \
    X(PeWindowHits, "pe.window_hits", Counter, Pe)                           \
    X(PeWindowMisses, "pe.window_misses", Counter, Pe)                       \
    X(PeRolloutRegs, "pe.rollout_regs", Counter, Pe)                         \
    X(FaultPeStall, "fault.pe_stall", Counter, Pe)                           \
    X(FaultPeStallCycles, "fault.pe_stall_cycles", Counter, Pe)              \
    X(PeTrapService, "pe.trap_service", Histogram, Pe)                       \
    X(FaultStall, "fault.stall", Histogram, Pe)                              \
    X(MsgSendRequests, "msg.send_requests", Counter, Cache)                  \
    X(MsgRecvRequests, "msg.recv_requests", Counter, Cache)                  \
    X(MsgRendezvous, "msg.rendezvous", Counter, Cache)                       \
    X(FaultCacheCorrupt, "fault.cache_corrupt", Counter, Cache)              \
    X(FaultCacheDup, "fault.cache_dup", Counter, Cache)                      \
    X(FaultDupDetected, "fault.dup.detected", Counter, Cache)                \
    X(FaultDupRecovered, "fault.dup.recovered", Counter, Cache)              \
    X(FaultChecksumMismatch, "fault.corrupt_detected", Counter, Cache)       \
    X(FaultCorruptDetected, "fault.corrupt.detected", Counter, Cache)        \
    X(FaultCorruptRecovered, "fault.corrupt.recovered", Counter, Cache)      \
    X(FaultNackPenaltyCycles, "fault.nack_penalty_cycles", Counter, Cache)   \
    X(MsgFifoDepth, "msg.fifo_depth", Histogram, Cache)                      \
    X(MsgLatency, "msg.latency", Histogram, Cache)                           \
    X(FaultNackPenalty, "fault.nack_penalty", Histogram, Cache)              \
    X(BusLocalTransfers, "bus.local_transfers", Counter, Bus)                \
    X(BusRemoteTransfers, "bus.remote_transfers", Counter, Bus)              \
    X(BusContentionCycles, "bus.contention_cycles", Counter, Bus)            \
    X(BusHopCount, "bus.hop_count", Counter, Bus)                            \
    X(BusTransferCycles, "bus.transfer_cycles", Counter, Bus)                \
    X(BusBridgeTransfers, "bus.bridge_transfers", Counter, Bus)              \
    X(BusBackboneHops, "bus.backbone_hops", Counter, Bus)                    \
    X(BusDroppedAttempt, "bus.dropped_attempt", Counter, Bus)                \
    X(FaultBusDrop, "fault.bus_drop", Counter, Bus)                          \
    X(FaultBusRetry, "fault.bus_retry", Counter, Bus)                        \
    X(FaultBusBackoffCycles, "fault.bus_backoff_cycles", Counter, Bus)       \
    X(FaultBusResend, "fault.bus_resend", Counter, Bus)                      \
    X(FaultBusLost, "fault.bus_lost", Counter, Bus)                          \
    X(FaultBusDelay, "fault.bus_delay", Counter, Bus)                        \
    X(FaultBusDelayCycles, "fault.bus_delay_cycles", Counter, Bus)           \
    X(FaultBusDup, "fault.bus_dup", Counter, Bus)                            \
    X(FaultDropDetected, "fault.drop.detected", Counter, Bus)                \
    X(FaultDropRecovered, "fault.drop.recovered", Counter, Bus)              \
    X(BusHops, "bus.hops", Histogram, Bus)                                   \
    X(BusQueueWait, "bus.queue_wait", Histogram, Bus)                        \
    X(BusLatency, "bus.latency", Histogram, Bus)                             \
    X(BusBridgeWait, "bus.bridge_wait", Histogram, Bus)                      \
    X(FaultBackoff, "fault.backoff", Histogram, Bus)                         \
    X(FaultDeliveryAttempts, "fault.delivery_attempts", Histogram, Bus)

/** A metric's catalog ID. */
enum Id : std::uint8_t
{
#define QM_METRIC_ID(id, name, kind, owner) id,
    QM_METRIC_CATALOG(QM_METRIC_ID)
#undef QM_METRIC_ID
};

struct Info
{
    const char *name;
    Kind kind;
    Owner owner;
};

/** The catalog, indexed by Id. */
inline constexpr Info kCatalog[] = {
#define QM_METRIC_INFO(id, name, kind, owner) {name, Kind::kind, Owner::owner},
    QM_METRIC_CATALOG(QM_METRIC_INFO)
#undef QM_METRIC_INFO
};
inline constexpr std::size_t kNumMetrics = std::size(kCatalog);

static_assert([] {
    for (std::size_t i = 0; i < kNumMetrics; ++i)
        for (std::size_t j = 0; j < i; ++j)
            if (std::string_view(kCatalog[i].name) == kCatalog[j].name)
                return false;
    return true;
}(), "every registry name is listed once");

/** The registry prefix of PE @p pe's entries, "pe<N>.". */
inline std::string
pePrefix(int pe)
{
    return "pe" + std::to_string(pe) + ".";
}

/** Entries of @p kind that @p owner's block holds. */
constexpr std::size_t
slots(Owner owner, Kind kind)
{
    std::size_t n = 0;
    for (const Info &m : kCatalog)
        n += m.owner == owner && m.kind == kind;
    return n;
}

/** Each entry's index among its owner's entries of its kind. */
inline constexpr auto kSlot = [] {
    std::array<std::uint8_t, kNumMetrics> slot{};
    for (std::size_t i = 0; i < kNumMetrics; ++i)
        for (std::size_t j = 0; j < i; ++j)
            slot[i] += kCatalog[i].owner == kCatalog[j].owner &&
                       kCatalog[i].kind == kCatalog[j].kind;
    return slot;
}();

} // namespace qm::metric

namespace qm {

/**
 * The recorded values of owner @p O's catalog entries: a fixed-size
 * value type, so checkpoints copy it whole. Recording another owner's
 * entry, or as another kind, panics; a constant ID folds the check away.
 */
template <metric::Owner O>
class StatBlock
{
    using Kind = metric::Kind;

  public:
    void
    inc(metric::Id id, std::uint64_t delta = 1)
    {
        counters_[slot(id, Kind::Counter)] += delta;
    }
    void
    set(metric::Id id, double value)
    {
        scalars_[slot(id, Kind::Scalar)] = value;
    }
    void
    record(metric::Id id, std::uint64_t value)
    {
        histograms_[slot(id, Kind::Histogram)].sample(value);
    }
    std::uint64_t
    counter(metric::Id id) const
    {
        return counters_[check(id, Kind::Counter)];
    }

    /** Add each touched entry to @p out as @p prefix + its name. */
    void
    foldInto(StatSet &out, const std::string &prefix = "") const
    {
        for (std::size_t i = 0; i < metric::kNumMetrics; ++i) {
            if (!touched_[i])
                continue;
            std::string name = prefix + metric::kCatalog[i].name;
            std::size_t at = metric::kSlot[i];
            if (metric::kCatalog[i].kind == Kind::Counter)
                out.inc(name, counters_[at]);
            else if (metric::kCatalog[i].kind == Kind::Scalar)
                out.set(name, scalars_[at]);
            else
                out.merge(name, histograms_[at]);
        }
    }

    StatSet
    folded() const
    {
        StatSet out;
        foldInto(out);
        return out;
    }

    /** The inverse of foldInto: take this block's entries from @p in. */
    void
    unfoldFrom(const StatSet &in, const std::string &prefix = "")
    {
        for (std::size_t i = 0; i < metric::kNumMetrics; ++i) {
            if (metric::kCatalog[i].owner != O)
                continue;
            auto id = static_cast<metric::Id>(i);
            Kind kind = metric::kCatalog[i].kind;
            std::string name = prefix + metric::kCatalog[i].name;
            if (kind == Kind::Counter && in.hasCounter(name))
                inc(id, in.counter(name));
            else if (kind == Kind::Scalar && in.scalarMap().count(name))
                set(id, in.scalar(name));
            else if (kind == Kind::Histogram && in.hasHistogram(name))
                histograms_[slot(id, kind)].merge(in.histogram(name));
        }
    }

  private:
    static std::size_t
    check(metric::Id id, Kind kind)
    {
        const metric::Info &m = metric::kCatalog[id];
        panicIf(m.owner != O || m.kind != kind, "metric ", m.name,
                " recorded by another block or as another kind");
        return metric::kSlot[id];
    }

    std::size_t
    slot(metric::Id id, Kind kind)
    {
        std::size_t at = check(id, kind);
        touched_[id] = true;
        return at;
    }

    std::array<std::uint64_t, metric::slots(O, Kind::Counter)> counters_{};
    std::array<double, metric::slots(O, Kind::Scalar)> scalars_{};
    std::array<Histogram, metric::slots(O, Kind::Histogram)> histograms_{};
    std::bitset<metric::kNumMetrics> touched_;
};

} // namespace qm

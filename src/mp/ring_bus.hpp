/**
 * @file
 * Partitioned ring-bus interconnect (thesis section 5.6, Fig 5.18),
 * optionally hierarchical.
 *
 * Flat topology (numRings == 1): the PEs sit on a shared bus that is
 * partitioned into segments and closed into a ring. A message travels
 * the ring in one direction, crossing every partition between source
 * and destination; each partition is an independently arbitrated
 * resource, so transfers through disjoint partitions proceed
 * concurrently while transfers sharing a partition serialize.
 *
 * Hierarchical topology (numRings == K > 1, "rings:KxM"): the PEs are
 * split into K local rings of M partitions each, joined by a backbone
 * ring of K segments. Each local ring owns one bridge - the single
 * entry/exit point between it and the backbone. A cross-ring message
 * exits its local ring (crossing the segments between the source and
 * the bridge), reserves the source bridge, rides the backbone segments
 * to the destination ring, reserves the destination bridge, and enters
 * the destination ring (crossing the segments up to the destination
 * PE). Bridges and backbone segments are independently arbitrated
 * resources like local segments, so saturation can now be attributed:
 * local contention shows up in bus.queue_wait, bridge/backbone
 * contention in bus.bridge_wait.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "support/metric_catalog.hpp"
#include "trace/trace.hpp"

namespace qm::mp {

using Cycle = std::int64_t;

/**
 * Outcome of one kernel-level message delivery over the ring
 * (RingBus::deliver). Without fault injection every delivery succeeds
 * on the first attempt with no duplicate.
 */
struct BusDelivery
{
    bool delivered = true;  ///< False: dropped beyond the retry bound.
    Cycle at = 0;           ///< Delivery time (last attempt if lost).
    int attempts = 1;       ///< Transfer attempts charged to the ring.
    bool duplicated = false;///< A second copy also arrives...
    Cycle duplicateAt = 0;  ///< ...at this time.
};

// Transfer costs in cycles (thesis section 5.6).
constexpr Cycle kHopCycles = 4;          ///< Crossing one partition segment.
constexpr Cycle kMessageOverhead = 2;    ///< Arbitration + header.
constexpr Cycle kBridgeCycles = 1;       ///< Crossing an inter-ring bridge.
constexpr Cycle kBackboneHopCycles = 1;  ///< One backbone segment hop.

/**
 * Sender ack timeout before an end-to-end retransmission (recovery
 * only), in cycles. mp::configFingerprint records it, like the
 * transfer costs above.
 */
constexpr Cycle kAckTimeoutCycles = 64;

/** Ring-bus shape; the per-hop costs are the constants above. */
struct RingBusConfig
{
    int numPes = 4;
    /**
     * Bus partitions (Fig 5.18 shows 4 PEs on 2 partitions). With
     * numRings > 1 this is the partition count of EACH local ring
     * (the M in "rings:KxM").
     */
    int numPartitions = 2;
    /**
     * Local rings (the K in "rings:KxM"). 1 = the flat single ring,
     * byte-identical to the pre-topology model.
     */
    int numRings = 1;
};

/**
 * A parsed --topology specification. "ring" is the flat default,
 * "ring:P" a flat ring with P partitions, "rings:KxM" the hierarchy
 * of K local rings with M partitions each.
 */
struct RingTopology
{
    int rings = 1;
    int partitions = 2;
};

/**
 * Parse a --topology argument. Accepts "ring", "ring:P", and
 * "rings:KxM"; throws FatalError (naming the flag) on anything else.
 * Fitting the parsed machine onto a given PE count is validated by the
 * RingBus constructor, which rejects impossible combinations instead
 * of silently clamping them.
 */
RingTopology parseTopology(const std::string &text);

/** Render a topology as its canonical --topology spelling. */
std::string topologyName(const RingTopology &topology);

/** The bus state a checkpoint captures, copied whole (RingBus's base). */
struct RingBusState
{
    /** Earliest free cycle per local segment (ring-major order). */
    std::vector<Cycle> partitionFree;
    /** Earliest free cycle per bridge (hierarchical only). */
    std::vector<Cycle> bridgeFree;
    /** Earliest free cycle per backbone segment (hierarchical only). */
    std::vector<Cycle> backboneFree;
    /** The bus's statistics, recorded by catalog ID. */
    StatBlock<metric::Owner::Bus> stats_;
};

/** Time-aware transfer model for the (optionally hierarchical) ring. */
class RingBus : private RingBusState
{
  public:
    explicit RingBus(RingBusConfig config);

    /** Local rings in the topology (1 = flat). */
    int numRings() const { return config_.numRings; }

    /** Local ring owning PE @p pe (always 0 when flat). */
    int ringOf(int pe) const;

    /** First PE of local ring @p ring. */
    int ringBase(int ring) const;

    /** PEs on local ring @p ring. */
    int ringSize(int ring) const;

    /** Partition index owning PE @p pe's bus tap (flat topology). */
    int partitionOf(int pe) const;

    /**
     * Segments crossed travelling from @p src to @p dst: partition
     * crossings on the flat ring, or local-exit + backbone + local-entry
     * segment crossings in the hierarchy (bridges not included; they
     * are counted by bus.bridge_transfers).
     */
    int partitionsCrossed(int src, int dst) const;

    /**
     * Schedule a one-word message from PE @p src to PE @p dst entering
     * the bus at time @p now. Returns the delivery time; partition
     * (and bridge/backbone) reservations serialize conflicting
     * transfers.
     */
    Cycle transfer(int src, int dst, Cycle now);

    /**
     * Kernel-level delivery of one message: a transfer() plus the
     * fault model. With an injector attached, a remote transfer may be
     * dropped (retried with exponential backoff up to the plan's retry
     * bound, then reported undelivered), delayed by a bounded extra
     * latency, or duplicated (the copy rides the ring again). Without
     * an injector this is exactly transfer().
     *
     * With a recovery plan attached and enabled, link-layer loss is
     * additionally covered end-to-end: the sender waits out an ack
     * timeout and retransmits, up to RecoveryPlan::maxResends times,
     * before the delivery is finally reported lost.
     *
     * Accounting split (see DESIGN.md): every attempt occupies the
     * ring and books occupancy-level statistics (contention, hop and
     * transfer cycle counters, the trace span); only attempts that
     * actually arrive sample the delivered-level distributions
     * (bus.remote_transfers, bus.hops/queue_wait/latency). Attempts
     * the fault model drops bump bus.dropped_attempt instead, so the
     * latency histograms never count phantom deliveries.
     */
    BusDelivery deliver(int src, int dst, Cycle now);

    const StatBlock<metric::Owner::Bus> &statBlock() const { return stats_; }

    StatSet stats() const { return stats_.folded(); }

    /** Attach the system's event recorder (may be null). */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

    /** Attach the system's fault injector (may be null). */
    void setFaultInjector(fault::FaultInjector *faults)
    {
        faults_ = faults;
    }

    /** Attach the system's recovery plan (null or disabled = PR 3). */
    void setRecovery(const fault::RecoveryPlan *recovery)
    {
        recovery_ = recovery;
    }

    /** Deep-copyable timing state for System checkpoints. */
    using Snapshot = RingBusState;
    Snapshot snapshot() const { return *this; }
    void restore(const Snapshot &snap) { RingBusState::operator=(snap); }

  private:
    /**
     * One ring occupation: the timing outcome of pushing a message
     * through every segment (and bridge) between src and dst, with the
     * occupancy-level statistics already booked. deliver() books the
     * delivered-level statistics (bookDelivered) only for the attempt
     * that actually arrives.
     */
    struct Attempt
    {
        Cycle at = 0;       ///< Arrival time.
        int hops = 0;       ///< Segments crossed.
        Cycle waited = 0;   ///< Total arbitration wait along the path.
        Cycle bridgeWaited = 0;  ///< Wait on bridges + backbone only.
    };

    /** Occupy every resource on the src->dst path starting at now. */
    Attempt occupyRing(int src, int dst, Cycle now);

    /** Book the delivered-level statistics for a landed attempt. */
    void bookDelivered(const Attempt &attempt, Cycle now);

    /** Local partition of @p pe within its ring (hierarchical). */
    int localPartitionOf(int pe) const;

    RingBusConfig config_;
    trace::Tracer *tracer_ = nullptr;
    fault::FaultInjector *faults_ = nullptr;
    const fault::RecoveryPlan *recovery_ = nullptr;
};

} // namespace qm::mp

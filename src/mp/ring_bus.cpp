#include "mp/ring_bus.hpp"

#include <algorithm>

#include "support/cli.hpp"
#include "support/diagnostics.hpp"

namespace qm::mp {

namespace {

/**
 * Closed-form count of partition boundaries crossed walking upward
 * (with wraparound) from index @p src to @p dst over @p pes positions
 * spread evenly across @p partitions groups, inclusive of the
 * destination's partition entry. Algebraically identical to the
 * PE-by-PE reference walk (mp_test keeps the walk and asserts the
 * equivalence exhaustively): partition indices are monotone in ring
 * order, so an upward path crosses exactly one boundary per partition
 * change, plus the wrap boundary between the last partition and
 * partition 0 when the path passes the ring seam.
 */
int
crossingsClosedForm(int src, int dst, int pes, int partitions)
{
    if (src == dst)
        return 0;
    auto part = [&](int pe) { return pe * partitions / pes; };
    int crossings;
    if (src < dst)
        crossings = 1 + part(dst) - part(src);
    else
        crossings = 1 + (partitions - 1 - part(src)) +
                    (partitions > 1 ? 1 : 0) + part(dst);
    return std::min(crossings, partitions);
}

} // namespace

RingTopology
parseTopology(const std::string &text)
{
    RingTopology topology;
    if (text == "ring")
        return topology;
    if (text.rfind("ring:", 0) == 0) {
        topology.partitions = static_cast<int>(
            parseIntArg(text.substr(5), "--topology ring:P", 1, 4096));
        return topology;
    }
    if (text.rfind("rings:", 0) == 0) {
        std::string spec = text.substr(6);
        std::size_t split = spec.find('x');
        fatalIf(split == std::string::npos || split == 0 ||
                    split + 1 >= spec.size(),
                "--topology expects ring, ring:P, or rings:KxM, got '",
                text, "'");
        topology.rings = static_cast<int>(parseIntArg(
            spec.substr(0, split), "--topology rings:K", 2, 4096));
        topology.partitions = static_cast<int>(parseIntArg(
            spec.substr(split + 1), "--topology rings:KxM", 1, 4096));
        return topology;
    }
    fatal("--topology expects ring, ring:P, or rings:KxM, got '", text,
          "'");
}

std::string
topologyName(const RingTopology &topology)
{
    if (topology.rings <= 1)
        return topology.partitions == 2
                   ? "ring"
                   : cat("ring:", topology.partitions);
    return cat("rings:", topology.rings, "x", topology.partitions);
}

RingBus::RingBus(RingBusConfig config) : config_(config)
{
    fatalIf(config_.numPes < 1, "ring bus needs at least one PE");
    fatalIf(config_.numPartitions < 1, "ring bus needs >= 1 partition");
    fatalIf(config_.numRings < 1, "ring bus needs >= 1 ring");
    fatalIf(config_.numRings > config_.numPes, "ring bus: ",
            config_.numRings, " rings cannot seat on ", config_.numPes,
            " PEs (every ring needs at least one PE)");
    if (config_.numRings == 1) {
        // More partitions than PEs would leave segments with no bus
        // tap: a mistyped --topology would quietly simulate a machine
        // that cannot exist, so reject it outright.
        fatalIf(config_.numPartitions > config_.numPes, "ring bus: ",
                config_.numPartitions, " partitions on ",
                config_.numPes,
                " PEs leaves partitions without a PE; use at most ",
                config_.numPes, " partitions");
    } else {
        int min_ring = config_.numPes;
        for (int ring = 0; ring < config_.numRings; ++ring)
            min_ring = std::min(min_ring, ringSize(ring));
        fatalIf(config_.numPartitions > min_ring, "ring bus: rings:",
                config_.numRings, "x", config_.numPartitions,
                " needs >= ", config_.numPartitions,
                " PEs per ring, but the smallest ring has only ",
                min_ring, " of ", config_.numPes, " PEs");
    }
    partitionFree.assign(static_cast<size_t>(config_.numRings) *
                             static_cast<size_t>(config_.numPartitions),
                         0);
    if (config_.numRings > 1) {
        bridgeFree.assign(static_cast<size_t>(config_.numRings), 0);
        backboneFree.assign(static_cast<size_t>(config_.numRings), 0);
    }
}

int
RingBus::ringOf(int pe) const
{
    panicIf(pe < 0 || pe >= config_.numPes, "PE index out of range");
    // PEs are spread evenly over the rings in contiguous blocks.
    return pe * config_.numRings / config_.numPes;
}

int
RingBus::ringBase(int ring) const
{
    // Smallest PE index whose ringOf is >= ring: ceil(ring * N / K).
    return static_cast<int>(
        (static_cast<long>(ring) * config_.numPes + config_.numRings -
         1) /
        config_.numRings);
}

int
RingBus::ringSize(int ring) const
{
    return ringBase(ring + 1) - ringBase(ring);
}

int
RingBus::localPartitionOf(int pe) const
{
    int ring = ringOf(pe);
    return (pe - ringBase(ring)) * config_.numPartitions /
           ringSize(ring);
}

int
RingBus::partitionOf(int pe) const
{
    panicIf(pe < 0 || pe >= config_.numPes, "PE index out of range");
    if (config_.numRings <= 1)
        // PEs are spread evenly over the partitions in ring order.
        return pe * config_.numPartitions / config_.numPes;
    // Hierarchical: global segment index, ring-major.
    return ringOf(pe) * config_.numPartitions + localPartitionOf(pe);
}

int
RingBus::partitionsCrossed(int src, int dst) const
{
    if (src == dst)
        return 0;
    if (config_.numRings <= 1)
        return crossingsClosedForm(src, dst, config_.numPes,
                                   config_.numPartitions);
    int src_ring = ringOf(src);
    int dst_ring = ringOf(dst);
    if (src_ring == dst_ring) {
        int base = ringBase(src_ring);
        return crossingsClosedForm(src - base, dst - base,
                                   ringSize(src_ring),
                                   config_.numPartitions);
    }
    // Cross-ring: exit segments from the source partition through the
    // end of its ring, the backbone segments between the rings, and
    // entry segments from the destination ring's seam to the
    // destination partition. Bridges are separate resources, counted
    // by bus.bridge_transfers rather than as segment hops.
    int exit_hops = config_.numPartitions - localPartitionOf(src);
    int entry_hops = localPartitionOf(dst) + 1;
    int backbone =
        (dst_ring - src_ring + config_.numRings) % config_.numRings;
    return exit_hops + backbone + entry_hops;
}

RingBus::Attempt
RingBus::occupyRing(int src, int dst, Cycle now)
{
    Attempt attempt;
    Cycle t = now + kMessageOverhead;
    Cycle waited = 0;
    Cycle bridge_waited = 0;
    // Reserve one arbitrated resource (local segment, bridge, or
    // backbone segment) along the path, in travel order.
    auto reserve = [&](std::vector<Cycle> &pool, int index, Cycle cost,
                       bool bridge) {
        Cycle &free_at = pool[static_cast<size_t>(index)];
        Cycle start = std::max(t, free_at);
        Cycle wait = start - t;
        if (wait > 0) {
            stats_.inc(metric::BusContentionCycles,
                       static_cast<std::uint64_t>(wait));
            if (bridge)
                bridge_waited += wait;
        }
        waited += wait;
        t = start + cost;
        free_at = t;
    };

    const int rings = config_.numRings;
    const int parts = config_.numPartitions;
    int hops;
    if (rings <= 1 || ringOf(src) == ringOf(dst)) {
        // Flat ring, or both endpoints on the same local ring: reserve
        // each crossed segment in order starting at the source's
        // partition.
        const int ring = rings <= 1 ? 0 : ringOf(src);
        const int first = rings <= 1 ? partitionOf(src)
                                     : localPartitionOf(src);
        hops = partitionsCrossed(src, dst);
        for (int i = 0; i < hops; ++i)
            reserve(partitionFree, ring * parts + (first + i) % parts,
                    kHopCycles, false);
    } else {
        const int src_ring = ringOf(src);
        const int dst_ring = ringOf(dst);
        const int exit_hops = parts - localPartitionOf(src);
        const int entry_hops = localPartitionOf(dst) + 1;
        const int backbone =
            (dst_ring - src_ring + rings) % rings;
        for (int i = 0; i < exit_hops; ++i)
            reserve(partitionFree,
                    src_ring * parts + localPartitionOf(src) + i,
                    kHopCycles, false);
        reserve(bridgeFree, src_ring, kBridgeCycles, true);
        for (int i = 0; i < backbone; ++i)
            reserve(backboneFree, (src_ring + i) % rings,
                    kBackboneHopCycles, true);
        reserve(bridgeFree, dst_ring, kBridgeCycles, true);
        for (int i = 0; i < entry_hops; ++i)
            reserve(partitionFree, dst_ring * parts + i,
                    kHopCycles, false);
        hops = exit_hops + backbone + entry_hops;
        stats_.inc(metric::BusBridgeTransfers);
        stats_.inc(metric::BusBackboneHops,
                   static_cast<std::uint64_t>(backbone));
    }
    stats_.inc(metric::BusHopCount, static_cast<std::uint64_t>(hops));
    stats_.inc(metric::BusTransferCycles,
               static_cast<std::uint64_t>(t - now));
    if (tracer_)
        tracer_->busTransfer(now, t, src, dst, hops, bridge_waited);
    attempt.at = t;
    attempt.hops = hops;
    attempt.waited = waited;
    attempt.bridgeWaited = bridge_waited;
    return attempt;
}

void
RingBus::bookDelivered(const Attempt &attempt, Cycle now)
{
    stats_.inc(metric::BusRemoteTransfers);
    stats_.record(metric::BusHops, static_cast<std::uint64_t>(attempt.hops));
    stats_.record(metric::BusQueueWait,
                  static_cast<std::uint64_t>(attempt.waited));
    stats_.record(metric::BusLatency,
                  static_cast<std::uint64_t>(attempt.at - now));
    if (config_.numRings > 1)
        stats_.record(metric::BusBridgeWait,
                      static_cast<std::uint64_t>(attempt.bridgeWaited));
}

Cycle
RingBus::transfer(int src, int dst, Cycle now)
{
    if (src == dst) {
        // Intra-PE transfers stay inside the local message processor.
        stats_.inc(metric::BusLocalTransfers);
        return now + kMessageOverhead;
    }
    Attempt attempt = occupyRing(src, dst, now);
    bookDelivered(attempt, now);
    return attempt.at;
}

BusDelivery
RingBus::deliver(int src, int dst, Cycle now)
{
    BusDelivery delivery;
    // Intra-PE messages never ride the ring, so bus faults only apply
    // to remote transfers.
    if (!faults_ || src == dst) {
        delivery.at = transfer(src, dst, now);
        return delivery;
    }

    // Link layer: bounded retries with exponential backoff. End-to-end
    // layer (recovery only): after the link gives up, the sender waits
    // out its ack timeout and retransmits, up to maxResends times.
    const bool e2e = recovery_ && recovery_->enabled;
    const int max_resends = e2e ? recovery_->maxResends : 0;
    Cycle depart = now;
    int attempts = 0;
    std::uint64_t drops = 0;
    bool delivered = false;
    for (int resend = 0; resend <= max_resends && !delivered;
         ++resend) {
        if (resend > 0) {
            depart += kAckTimeoutCycles;
            stats_.inc(metric::FaultBusResend);
            if (tracer_)
                tracer_->faultRecover(
                    depart, src, fault::kBusDrop,
                    static_cast<std::uint64_t>(resend) << 32);
        }
        for (int attempt_no = 0;; ++attempt_no) {
            // Every attempt occupies the ring for real, but only the
            // one that lands counts as a delivery (bookDelivered): the
            // hops/latency distributions must describe messages that
            // arrived, not phantoms the fault model dropped.
            Attempt attempt = occupyRing(src, dst, depart);
            ++attempts;
            if (!faults_->fire(fault::kBusDrop)) {
                bookDelivered(attempt, depart);
                delivery.at = attempt.at;
                delivered = true;
                break;
            }
            ++drops;
            stats_.inc(metric::BusDroppedAttempt);
            stats_.inc(metric::FaultBusDrop);
            stats_.inc(metric::FaultDropDetected);
            if (tracer_)
                tracer_->faultInject(attempt.at, src, fault::kBusDrop,
                                     static_cast<std::uint64_t>(dst));
            if (attempt_no >= faults_->plan().maxRetries) {
                // Link retry budget exhausted; without the end-to-end
                // layer the message is lost here.
                depart = attempt.at;
                break;
            }
            // Exponential backoff, exponent clamped against shift
            // overflow.
            Cycle backoff = faults_->plan().retryBackoff
                            << std::min(attempt_no, 16);
            stats_.inc(metric::FaultBusRetry);
            stats_.inc(metric::FaultBusBackoffCycles,
                       static_cast<std::uint64_t>(backoff));
            stats_.record(metric::FaultBackoff,
                          static_cast<std::uint64_t>(backoff));
            if (tracer_)
                tracer_->faultRecover(
                    attempt.at + backoff, src, fault::kBusDrop,
                    static_cast<std::uint64_t>(attempt_no + 1));
            depart = attempt.at + backoff;
        }
    }
    delivery.attempts = attempts;
    // Reliability overhead, as a distribution: how many ring occupations
    // one kernel message cost under the active fault plan.
    stats_.record(metric::FaultDeliveryAttempts,
                  static_cast<std::uint64_t>(attempts));
    if (!delivered) {
        // The message is permanently lost. The caller (kernel) leaves
        // the receiver unwoken; the System watchdog converts any
        // resulting livelock into a clean structured failure, and the
        // checkpoint-replay policy gets a chance to retry the run.
        stats_.inc(metric::FaultBusLost);
        delivery.delivered = false;
        delivery.at = depart;
        return delivery;
    }
    if (drops > 0)
        // Every drop on this delivery was compensated by a retry or an
        // end-to-end retransmission.
        stats_.inc(metric::FaultDropRecovered, drops);

    if (faults_->fire(fault::kBusDelay)) {
        Cycle extra = faults_->delayCycles();
        stats_.inc(metric::FaultBusDelay);
        stats_.inc(metric::FaultBusDelayCycles,
                   static_cast<std::uint64_t>(extra));
        if (tracer_)
            tracer_->faultInject(delivery.at, src, fault::kBusDelay,
                                 static_cast<std::uint64_t>(extra));
        delivery.at += extra;
    }

    if (faults_->fire(fault::kBusDup)) {
        // The duplicate occupies the ring like any other transfer;
        // delivery must be idempotent, so it only perturbs timing.
        stats_.inc(metric::FaultBusDup);
        delivery.duplicated = true;
        delivery.duplicateAt = transfer(src, dst, delivery.at);
        if (tracer_)
            tracer_->faultInject(delivery.at, src, fault::kBusDup,
                                 static_cast<std::uint64_t>(dst));
    }
    return delivery;
}

} // namespace qm::mp

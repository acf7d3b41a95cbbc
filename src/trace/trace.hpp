/**
 * @file
 * Cycle-level event trace for the multiprocessor simulator.
 *
 * The thesis's Chapter 6 study reports aggregate statistics (Tables
 * 6.2-6.5); this layer records *where* those cycles went: typed,
 * cycle-stamped events for the Fig 6.4 context lifecycle, channel
 * rendezvous in the message cache, ring-bus transfers, kernel trap
 * entries with their charged service cycles, and PE busy spans.
 *
 * The recorder is flag-gated: every emit helper is an inline one-branch
 * no-op when tracing is disabled, so the hot simulation loop pays one
 * predictable-not-taken branch per emit point. Events live in a flat
 * preallocated vector with a hard cap; past the cap events are counted
 * as dropped rather than recorded, keeping memory bounded on runaway
 * programs.
 *
 * Exporters (export.hpp) turn the event stream into Chrome
 * trace_event JSON (one "process" per PE, contexts as flow events) and
 * a plain-text timeline summary reused by deadlock reports.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace qm::trace {

using Cycle = std::int64_t;

/** Context ids mirror msg::CtxId; kNoCtx marks "not applicable". */
using CtxId = std::uint32_t;
constexpr CtxId kNoCtx = 0xFFFFFFFFu;

/** Event taxonomy (see DESIGN.md "Observability"). */
enum class EventKind : std::uint8_t
{
    CtxCreate,   ///< Context allocated (a = forking PE).
    CtxDispatch, ///< Context loaded/resumed onto a PE.
    CtxPark,     ///< Context left the PE still live (a = ParkReason).
    CtxFinish,   ///< Context terminated (kernel exit).
    Rendezvous,  ///< Receive completed on a channel (a = channel, b = value).
    /**
     * Remote ring-bus message (a = dst PE, b = hops in the low 16
     * bits; hierarchical topologies pack the bridge/backbone wait
     * into the bits above, zero on the flat ring).
     */
    BusTransfer,
    TrapEnter,   ///< Kernel trap serviced (a = trap number, b = cycles).
    PeBusy,      ///< One context's uninterrupted run span on a PE.
    FaultInject, ///< Injected fault (a = fault-kind bit, b = payload).
    FaultRecover,///< Recovery action (a = fault-kind bit, b = payload).
    CtxMigrate,  ///< Context placed across shards (a = source PE).
};

constexpr int kEventKinds = 11;

/** Why a context left its PE (payload of CtxPark). */
enum class ParkReason : std::uint8_t
{
    Channel,  ///< Blocked on a channel rendezvous (rolled out).
    Timer,    ///< TrapWait deadline in the future.
    Resident, ///< Blocked on a channel but stayed loaded (lazy switch).
};

/** One recorded event; `end` is only meaningful for span kinds. */
struct Event
{
    EventKind kind = EventKind::CtxCreate;
    std::int16_t pe = -1;  ///< Emitting PE, -1 when not PE-bound.
    CtxId ctx = kNoCtx;
    Cycle at = 0;          ///< Cycle stamp (span start for spans).
    Cycle end = 0;         ///< Span end (PeBusy, BusTransfer).
    std::uint64_t a = 0;   ///< Kind-specific payload (see EventKind).
    std::uint64_t b = 0;   ///< Kind-specific payload (see EventKind).
};

/** Trace knobs, carried inside mp::SystemConfig. */
struct TraceConfig
{
    bool enabled = false;
    /** Hard cap on recorded events; beyond it events are dropped. */
    std::size_t maxEvents = 1u << 22;
    /**
     * When non-empty, sim::runOnce writes the Chrome trace_event JSON
     * here after the run (occamc writes its own --trace path).
     */
    std::string chromeJsonPath;
};

/**
 * Passive observer of the emit stream. A sink sees every event the
 * Tracer's emit helpers are called with, regardless of whether the
 * flag-gated recorder itself is enabled; the flight recorder
 * (src/obs) implements this to keep a bounded ring of recent events
 * always on. Sinks must be cheap: they run inline at emit points.
 */
class EventSink
{
  public:
    virtual ~EventSink() = default;
    virtual void record(const Event &event) = 0;
};

/** The flag-gated event recorder. One instance per mp::System. */
class Tracer
{
  public:
    Tracer() = default;
    explicit Tracer(const TraceConfig &config);

    bool enabled() const { return enabled_; }

    /** Attach/detach the always-on sink (nullptr detaches). */
    void setSink(EventSink *sink) { sink_ = sink; }

    // --- Emit points (inline no-ops when disabled) -----------------------

    void
    ctxCreate(Cycle at, int homePe, CtxId ctx, int forkingPe)
    {
        if (enabled_ || sink_)
            emit({EventKind::CtxCreate, static_cast<std::int16_t>(homePe),
                  ctx, at, 0, static_cast<std::uint64_t>(forkingPe), 0});
    }

    void
    ctxDispatch(Cycle at, int pe, CtxId ctx)
    {
        if (enabled_ || sink_)
            emit({EventKind::CtxDispatch, static_cast<std::int16_t>(pe),
                  ctx, at, 0, 0, 0});
    }

    void
    ctxPark(Cycle at, int pe, CtxId ctx, ParkReason reason)
    {
        if (enabled_ || sink_)
            emit({EventKind::CtxPark, static_cast<std::int16_t>(pe), ctx,
                  at, 0, static_cast<std::uint64_t>(reason), 0});
    }

    void
    ctxFinish(Cycle at, int pe, CtxId ctx)
    {
        if (enabled_ || sink_)
            emit({EventKind::CtxFinish, static_cast<std::int16_t>(pe),
                  ctx, at, 0, 0, 0});
    }

    void
    rendezvous(Cycle at, std::uint64_t channel, CtxId receiver,
               std::uint64_t value)
    {
        if (enabled_ || sink_)
            emit({EventKind::Rendezvous, -1, receiver, at, 0, channel,
                  value});
    }

    void
    busTransfer(Cycle start, Cycle end, int src, int dst, int hops,
                Cycle bridgeWait = 0)
    {
        if (enabled_ || sink_)
            // Hops stay in the low 16 bits so flat-ring traces (bridge
            // wait always zero) keep their historical payload bytes.
            emit({EventKind::BusTransfer, static_cast<std::int16_t>(src),
                  kNoCtx, start, end, static_cast<std::uint64_t>(dst),
                  static_cast<std::uint64_t>(hops) |
                      (static_cast<std::uint64_t>(bridgeWait) << 16)});
    }

    /**
     * A context descriptor crossed a shard boundary: distance-aware
     * placement or fail-stop recovery homed @p ctx on a PE in a
     * different local ring than @p fromPe's (hierarchical topologies
     * only; never emitted on the flat ring).
     */
    void
    ctxMigrate(Cycle at, int pe, CtxId ctx, int fromPe)
    {
        if (enabled_ || sink_)
            emit({EventKind::CtxMigrate, static_cast<std::int16_t>(pe),
                  ctx, at, 0, static_cast<std::uint64_t>(fromPe), 0});
    }

    void
    trapEnter(Cycle at, int pe, std::uint64_t number, long serviceCycles)
    {
        if (enabled_ || sink_)
            emit({EventKind::TrapEnter, static_cast<std::int16_t>(pe),
                  kNoCtx, at, 0, number,
                  static_cast<std::uint64_t>(serviceCycles)});
    }

    void
    peBusy(Cycle start, Cycle end, int pe, CtxId ctx)
    {
        if (enabled_ || sink_)
            emit({EventKind::PeBusy, static_cast<std::int16_t>(pe), ctx,
                  start, end, 0, 0});
    }

    /**
     * An injected fault (src/fault). @p kindBit is the fault::FaultKind
     * bit; @p payload is kind-specific (destination PE for bus faults,
     * delay/stall cycles, corrupted channel id).
     */
    void
    faultInject(Cycle at, int pe, std::uint64_t kindBit,
                std::uint64_t payload)
    {
        if (enabled_ || sink_)
            emit({EventKind::FaultInject, static_cast<std::int16_t>(pe),
                  kNoCtx, at, 0, kindBit, payload});
    }

    /**
     * A recovery action for an injected fault: a bus retry (@p payload
     * = attempt number) or a checksum-detected corruption (@p payload
     * = channel id).
     */
    void
    faultRecover(Cycle at, int pe, std::uint64_t kindBit,
                 std::uint64_t payload)
    {
        if (enabled_ || sink_)
            emit({EventKind::FaultRecover, static_cast<std::int16_t>(pe),
                  kNoCtx, at, 0, kindBit, payload});
    }

    // --- Inspection ------------------------------------------------------

    const std::vector<Event> &events() const { return events_; }
    std::size_t dropped() const { return dropped_; }

    /**
     * Rewind support for checkpoint restore (mp::System): a mark
     * captures the recorder position, and rewinding to it discards
     * every event recorded since, so a replayed run's trace does not
     * contain the abandoned timeline.
     */
    struct Mark
    {
        std::size_t events = 0;
        std::size_t dropped = 0;
        std::array<std::size_t, kEventKinds> kindCounts{};
    };

    Mark
    mark() const
    {
        return {events_.size(), dropped_, kindCounts_};
    }

    void
    rewind(const Mark &mark)
    {
        events_.resize(mark.events);
        dropped_ = mark.dropped;
        kindCounts_ = mark.kindCounts;
    }

    /**
     * Replace the recorded stream outright (durable checkpoint
     * restore in a fresh process): the events captured up to the
     * persisted mark are reinstated so the resumed run's exported
     * trace is byte-identical to an uninterrupted run's.
     */
    void
    restoreStream(std::vector<Event> events, std::size_t dropped,
                  const std::array<std::size_t, kEventKinds> &kindCounts)
    {
        events_ = std::move(events);
        dropped_ = dropped;
        kindCounts_ = kindCounts;
    }

    /** Number of recorded events of @p kind. */
    std::size_t
    countOf(EventKind kind) const
    {
        return kindCounts_[static_cast<std::size_t>(kind)];
    }

    /**
     * Plain-text timeline summary: per-kind totals, per-PE busy time,
     * and the tail of the event stream. Reused by deadlock reports.
     */
    std::string summary(std::size_t tailEvents = 16) const;

  private:
    void push(const Event &event);

    /** Fan one built event out to the sink and the gated recorder. */
    void
    emit(const Event &event)
    {
        if (sink_)
            sink_->record(event);
        if (enabled_)
            push(event);
    }

    EventSink *sink_ = nullptr;
    bool enabled_ = false;
    std::size_t maxEvents_ = 0;
    std::size_t dropped_ = 0;
    std::vector<Event> events_;
    std::array<std::size_t, kEventKinds> kindCounts_{};
};

/** Short lower-case label for an event kind ("ctx-create", ...). */
const char *toString(EventKind kind);

/** Short label for a park reason ("channel", "timer", "resident"). */
const char *toString(ParkReason reason);

} // namespace qm::trace

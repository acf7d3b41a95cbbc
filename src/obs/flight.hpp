/**
 * @file
 * Always-on flight recorder: a bounded black box of recent events.
 *
 * PR 5's observability layer is opt-in and post-hoc — histograms and
 * traces exist only behind a flag and only after the run ends, so the
 * exact scenarios the fault/recovery/durability layers engineer for
 * (watchdog trip, fatal fault, deadline abort, kill -9) leave no
 * record of what the machine was doing when it died. The flight
 * recorder closes that gap: it implements trace::EventSink, sees every
 * Tracer emit regardless of the --trace flag, and keeps only the most
 * recent events per component in fixed-size rings (plus exact per-kind
 * totals), so memory stays bounded and the per-event cost is an index
 * write and a counter increment.
 *
 * On any failure path — watchdog, fatal fault, --deadline-ms abort,
 * SIGINT/SIGTERM, FatalError/PanicError — mp::System and the run
 * drivers dump the rings as a `qm.flight.v1` JSON document next to the
 * checkpoint/metrics files. Checkpoint boundaries also persist a dump
 * so a kill -9 (which no handler can catch) still leaves a black box
 * on disk.
 *
 * The recorder never rewinds on checkpoint restore: it is a record of
 * what the host actually executed, including abandoned replay
 * timelines, which is exactly what a post-mortem wants to see.
 *
 * Kill switch: the environment variable QM_FLIGHT=0 (or "off")
 * disables recording and dumping entirely; the CI overhead gate uses
 * it to measure the recorder's cost.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "persist/io.hpp"
#include "trace/trace.hpp"

namespace qm::obs {

/**
 * Synthetic event kinds that exist only inside the flight recorder.
 * They are deliberately far outside the Tracer's EventKind range so
 * they can never collide with (or leak into) the persisted trace
 * stream — kEventKinds and the TRAC checkpoint section are untouched.
 */
constexpr auto kCheckpointKind = static_cast<trace::EventKind>(200);
constexpr auto kRestoreKind = static_cast<trace::EventKind>(201);

/** Label for any kind the recorder stores, including synthetic ones. */
const char *flightKindName(trace::EventKind kind);

/** Snapshot identity written into a dump's header. */
struct FlightHeader
{
    std::string reason;      ///< Why the dump was written.
    std::int64_t cycle = 0;  ///< Simulated cycle at dump time.
    int pes = 0;
    int liveContexts = 0;
};

/** One fixed-capacity ring of recent events for a component. */
class FlightRing
{
  public:
    FlightRing(const char *name, std::size_t capacity)
        : name_(name), capacity_(capacity)
    {
        events_.reserve(capacity);
    }

    void
    push(const trace::Event &event)
    {
        std::size_t pos =
            static_cast<std::size_t>(recorded_ % capacity_);
        if (events_.size() < capacity_)
            events_.push_back(event);
        else
            events_[pos] = event;
        ++recorded_;
    }

    const char *name() const { return name_; }
    std::size_t capacity() const { return capacity_; }
    /** Total events ever pushed (>= size() once the ring wraps). */
    std::uint64_t recorded() const { return recorded_; }
    std::size_t size() const { return events_.size(); }

    /** Events oldest-to-newest (unwraps the ring). */
    std::vector<trace::Event> ordered() const;

  private:
    const char *name_;
    std::size_t capacity_;
    std::uint64_t recorded_ = 0;
    std::vector<trace::Event> events_;
};

/**
 * The always-on recorder. One instance per mp::System, attached as the
 * Tracer's sink. All Tracer emits happen on the thread running the
 * simulation, so the recorder needs no synchronization.
 */
class FlightRecorder : public trace::EventSink
{
  public:
    FlightRecorder();

    /** False when QM_FLIGHT=0/off disabled recording at construction. */
    bool enabled() const { return enabled_; }

    void record(const trace::Event &event) override;

    /** A checkpoint boundary was reached (snapshot taken). */
    void checkpoint(trace::Cycle at, int liveContexts);

    /** State was restored (replay rewound the machine to @p at). */
    void noteRestore(trace::Cycle at);

    /** Total events seen of @p kind (real kinds only, exact). */
    std::uint64_t countOf(trace::EventKind kind) const;
    std::uint64_t checkpoints() const { return checkpointCount_; }
    std::uint64_t restores() const { return restoreCount_; }

    const std::vector<FlightRing> &rings() const { return rings_; }

    /**
     * Serialize the black box as a `qm.flight.v1` JSON document and
     * write it atomically (temp + rename) to @p path.
     */
    persist::Status dumpToFile(const std::string &path,
                               const FlightHeader &header) const;

    /** The document as a string (tests, in-memory inspection). */
    std::string dump(const FlightHeader &header) const;

  private:
    FlightRing &ringFor(trace::EventKind kind);

    bool enabled_ = true;
    std::vector<FlightRing> rings_;
    std::array<std::uint64_t, trace::kEventKinds> counts_{};
    std::uint64_t checkpointCount_ = 0;
    std::uint64_t restoreCount_ = 0;
};

/**
 * Write a minimal, schema-valid `qm.flight.v1` marker document (no
 * events) to @p path. sim::runAll drops one per spec before the run
 * starts so a kill -9 that lands mid-run still leaves a parseable
 * black box; a real dump overwrites it on failure or checkpoint.
 */
persist::Status writeFlightMarker(const std::string &path,
                                  const std::string &reason);

} // namespace qm::obs

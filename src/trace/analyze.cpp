#include "trace/analyze.hpp"

#include <algorithm>
#include <cstdlib>
#include <locale>
#include <map>
#include <set>
#include <sstream>

#include "support/cli.hpp"
#include "support/diagnostics.hpp"
#include "support/format.hpp"
#include "support/json_parse.hpp"
#include "support/table.hpp"

namespace qm::trace {

namespace {

/**
 * "pe3 -> pe5" -> 5; -1 when the pattern is absent or the destination
 * is not a plain integer ("pe3 -> pe", "pe3 -> peXL"). A malformed
 * name must not silently attribute the transfer to PE 0.
 */
int
parseBusDst(const std::string &name)
{
    const std::string arrow = " -> pe";
    std::size_t pos = name.find(arrow);
    if (pos == std::string::npos)
        return -1;
    auto dst = tryParseInt(name.substr(pos + arrow.size()));
    if (!dst || *dst < 0)
        return -1;
    return static_cast<int>(*dst);
}

/** "park (channel)" -> ParkReason::Channel (Channel on no match). */
ParkReason
parseParkReason(const std::string &name)
{
    if (name.find("(timer)") != std::string::npos)
        return ParkReason::Timer;
    if (name.find("(resident)") != std::string::npos)
        return ParkReason::Resident;
    return ParkReason::Channel;
}

/** "fault kind-bit 8" -> 8 (the trailing integer of the name). */
std::uint64_t
parseTrailingInt(const std::string &name)
{
    std::size_t pos = name.find_last_of(' ');
    if (pos == std::string::npos)
        return 0;
    return static_cast<std::uint64_t>(
        std::strtoull(name.c_str() + pos + 1, nullptr, 10));
}

/** Everything the analyses need to know about one context. */
struct CtxInfo
{
    bool created = false;
    Cycle createAt = 0;
    int forkingPe = -1;
    bool finished = false;
    Cycle finishAt = 0;
    std::vector<std::pair<Cycle, int>> dispatches;  ///< (at, pe).
    std::vector<std::pair<Cycle, ParkReason>> parks;
    /** Busy spans (at, end, pe), ascending by start. */
    struct Span
    {
        Cycle at;
        Cycle end;
        int pe;
    };
    std::vector<Span> spans;
};

/** Park reason governing the blocked gap that ends at @p redispatch. */
ParkReason
gapReason(const CtxInfo &info, Cycle gapStart, Cycle redispatch)
{
    // The park event that opened the gap carries the reason; it is
    // stamped at the gap's start (roll-out completion). Pick the last
    // park at or before the redispatch but not before the gap.
    ParkReason reason = ParkReason::Channel;
    for (const auto &[at, r] : info.parks) {
        if (at > redispatch)
            break;
        if (at >= gapStart)
            reason = r;
    }
    return reason;
}

} // namespace

std::vector<Event>
loadChromeTrace(const std::string &path, std::uint64_t *dropped)
{
    JsonValue doc = parseJsonFile(path);
    fatalIf(doc.kind != JsonValue::Kind::Object,
            "trace file is not a JSON object: ", path);
    if (dropped)
        *dropped =
            static_cast<std::uint64_t>(doc.intval("qmDroppedEvents", 0));
    const JsonValue &rows = doc.get("traceEvents");
    fatalIf(rows.kind != JsonValue::Kind::Array,
            "trace file has no traceEvents array: ", path);

    std::vector<Event> events;
    events.reserve(rows.items.size());
    for (const JsonValue &row : rows.items) {
        if (row.kind != JsonValue::Kind::Object)
            continue;
        std::string ph = row.str("ph");
        if (ph.empty() || ph == "M")
            continue;
        std::string category = row.str("cat");
        std::string name = row.str("name");
        const JsonValue &args = row.get("args");
        Event e;
        e.at = static_cast<Cycle>(row.intval("ts", 0));
        if (ph == "X") {
            e.end = e.at + static_cast<Cycle>(row.intval("dur", 1));
            if (category == "run") {
                e.kind = EventKind::PeBusy;
                e.pe = static_cast<std::int16_t>(row.intval("pid", 0));
                e.ctx = static_cast<CtxId>(args.intval("ctx", kNoCtx));
            } else if (category == "kernel") {
                e.kind = EventKind::TrapEnter;
                e.pe = static_cast<std::int16_t>(row.intval("pid", 0));
                e.a = static_cast<std::uint64_t>(args.intval("trap", 0));
                e.b = static_cast<std::uint64_t>(
                    args.intval("service_cycles", 0));
                e.end = 0;  // TrapEnter is a point event in the stream.
            } else if (category == "bus") {
                e.kind = EventKind::BusTransfer;
                e.pe = static_cast<std::int16_t>(row.intval("tid", 0));
                e.a = static_cast<std::uint64_t>(parseBusDst(name));
                // Reconstruct the tracer's payload packing: hops in the
                // low 16 bits, bridge/backbone wait above them.
                e.b = static_cast<std::uint64_t>(args.intval("hops", 0)) |
                      (static_cast<std::uint64_t>(
                           args.intval("bridge_wait", 0))
                       << 16);
            } else {
                continue;  // unknown span category
            }
        } else if (ph == "i") {
            if (category == "channel") {
                e.kind = EventKind::Rendezvous;
                e.ctx =
                    static_cast<CtxId>(args.intval("receiver", kNoCtx));
                e.a = static_cast<std::uint64_t>(row.intval("tid", 0));
                e.b = static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                    args.intval("value", 0)));
            } else if (category == "lifecycle") {
                e.kind = EventKind::CtxPark;
                e.pe = static_cast<std::int16_t>(row.intval("pid", 0));
                e.ctx = static_cast<CtxId>(args.intval("ctx", kNoCtx));
                e.a = static_cast<std::uint64_t>(parseParkReason(name));
            } else if (category == "fault") {
                e.kind = name.compare(0, 6, "fault ") == 0
                             ? EventKind::FaultInject
                             : EventKind::FaultRecover;
                e.pe = static_cast<std::int16_t>(row.intval("pid", 0));
                e.a = parseTrailingInt(name);
                e.b = static_cast<std::uint64_t>(args.intval("info", 0));
            } else if (category == "shard") {
                e.kind = EventKind::CtxMigrate;
                e.pe = static_cast<std::int16_t>(row.intval("pid", 0));
                e.ctx = static_cast<CtxId>(args.intval("ctx", kNoCtx));
                e.a = static_cast<std::uint64_t>(
                    args.intval("from_pe", 0));
            } else {
                continue;
            }
        } else if (ph == "s") {
            e.kind = EventKind::CtxCreate;
            // The exporter stamps the forking PE as the flow source's
            // pid; the home PE is not recoverable from the file (the
            // first dispatch reveals it).
            e.pe = -1;
            e.ctx = static_cast<CtxId>(row.intval("id", kNoCtx));
            e.a = static_cast<std::uint64_t>(row.intval("pid", 0));
        } else if (ph == "t") {
            e.kind = EventKind::CtxDispatch;
            e.pe = static_cast<std::int16_t>(row.intval("pid", 0));
            e.ctx = static_cast<CtxId>(row.intval("id", kNoCtx));
        } else if (ph == "f") {
            e.kind = EventKind::CtxFinish;
            e.pe = static_cast<std::int16_t>(row.intval("pid", 0));
            e.ctx = static_cast<CtxId>(row.intval("id", kNoCtx));
        } else {
            continue;  // counters etc.: not produced by the exporter
        }
        events.push_back(e);
    }
    return events;
}

Profile
analyzeTrace(const std::vector<Event> &events,
             const AnalyzeOptions &options)
{
    Profile profile;
    std::map<CtxId, CtxInfo> ctxs;
    int max_pe = -1;

    for (const Event &e : events) {
        profile.totalCycles =
            std::max(profile.totalCycles, std::max(e.at, e.end));
        if (e.pe > max_pe)
            max_pe = e.pe;
        switch (e.kind) {
          case EventKind::CtxCreate: {
            CtxInfo &info = ctxs[e.ctx];
            info.created = true;
            info.createAt = e.at;
            info.forkingPe = static_cast<int>(e.a);
            max_pe = std::max(max_pe, static_cast<int>(e.a));
            break;
          }
          case EventKind::CtxDispatch:
            ctxs[e.ctx].dispatches.push_back({e.at, e.pe});
            break;
          case EventKind::CtxPark:
            ctxs[e.ctx].parks.push_back(
                {e.at, static_cast<ParkReason>(e.a)});
            break;
          case EventKind::CtxFinish: {
            CtxInfo &info = ctxs[e.ctx];
            info.finished = true;
            info.finishAt = e.at;
            break;
          }
          case EventKind::PeBusy:
            if (e.ctx != kNoCtx)
                ctxs[e.ctx].spans.push_back({e.at, e.end, e.pe});
            break;
          case EventKind::BusTransfer:
            max_pe = std::max(max_pe, static_cast<int>(e.a));
            ++profile.busTransfers;
            profile.busCycles += e.end - e.at;
            profile.bridgeWaitCycles += static_cast<Cycle>(e.b >> 16);
            break;
          case EventKind::CtxMigrate:
            ++profile.migrations;
            break;
          default:
            break;
        }
    }
    profile.numPes = max_pe + 1;
    for (auto &[id, info] : ctxs) {
        std::sort(info.spans.begin(), info.spans.end(),
                  [](const CtxInfo::Span &x, const CtxInfo::Span &y) {
                      return x.at != y.at ? x.at < y.at : x.end < y.end;
                  });
        std::sort(info.dispatches.begin(), info.dispatches.end());
        std::sort(info.parks.begin(), info.parks.end());
        if (info.created || !info.spans.empty() ||
            !info.dispatches.empty())
            ++profile.contexts;
        if (info.finished)
            ++profile.finished;
    }

    // ---- Critical path --------------------------------------------------
    // Start from the last context to finish (falling back to the
    // latest busy span) and walk strictly backward in time: run spans
    // on the context's own PE, blocked gaps between them attributed by
    // park reason, and at the context's creation cross to the parent -
    // the context whose busy span on the forking PE covers the fork
    // cycle. Every segment ends at or before the previous one starts,
    // so the summed length can never exceed the run's total cycles.
    CtxId cur = kNoCtx;
    Cycle t = -1;
    for (const auto &[id, info] : ctxs) {
        Cycle done = info.finished
                         ? info.finishAt
                         : (info.spans.empty() ? -1
                                               : info.spans.back().end);
        if (done > t) {
            t = done;
            cur = id;
        }
    }
    std::set<CtxId> visited;
    while (cur != kNoCtx && visited.insert(cur).second) {
        const CtxInfo &info = ctxs[cur];
        // Index of the last span starting before the walk frontier.
        int idx = -1;
        for (std::size_t i = 0; i < info.spans.size(); ++i)
            if (info.spans[i].at < t)
                idx = static_cast<int>(i);
        for (; idx >= 0; --idx) {
            const CtxInfo::Span &span =
                info.spans[static_cast<std::size_t>(idx)];
            Cycle run_hi = std::min(t, span.end);
            if (run_hi > span.at)
                profile.criticalPath.push_back(
                    {PathSegment::Kind::Run, cur, span.pe, span.at,
                     run_hi, ""});
            t = span.at;
            Cycle lower = idx > 0
                              ? info.spans[static_cast<std::size_t>(
                                               idx - 1)]
                                    .end
                              : (info.created ? info.createAt : t);
            if (t > lower) {
                std::string reason =
                    idx > 0 ? toString(gapReason(info, lower, t))
                            : "startup";
                profile.criticalPath.push_back(
                    {PathSegment::Kind::Blocked, cur, -1, lower, t,
                     reason});
                t = lower;
            }
        }
        if (!info.created)
            break;
        t = std::min(t, info.createAt);
        // Cross to the forking parent: the context whose busy span on
        // the forking PE covers the fork cycle.
        CtxId parent = kNoCtx;
        for (const auto &[id, other] : ctxs) {
            if (id == cur)
                continue;
            for (const CtxInfo::Span &span : other.spans)
                if (span.pe == info.forkingPe && span.at <= t &&
                    t <= span.end) {
                    parent = id;
                    break;
                }
            if (parent != kNoCtx)
                break;
        }
        if (parent == kNoCtx)
            break;
        profile.criticalPath.push_back({PathSegment::Kind::Fork, cur,
                                        info.forkingPe, t, t, ""});
        cur = parent;
    }
    for (const PathSegment &seg : profile.criticalPath)
        profile.criticalPathCycles += seg.length();

    // ---- Blocked-time attribution ---------------------------------------
    for (const auto &[id, info] : ctxs) {
        if (info.spans.empty())
            continue;  // never ran: starvation digest material
        BlockedReport report;
        report.ctx = id;
        if (info.created && info.spans.front().at > info.createAt)
            report.startup = info.spans.front().at - info.createAt;
        for (std::size_t i = 0; i + 1 < info.spans.size(); ++i) {
            Cycle gap_start = info.spans[i].end;
            Cycle gap_end = info.spans[i + 1].at;
            if (gap_end <= gap_start)
                continue;
            Cycle gap = gap_end - gap_start;
            switch (gapReason(info, gap_start, gap_end)) {
              case ParkReason::Channel: report.channel += gap; break;
              case ParkReason::Timer: report.timer += gap; break;
              case ParkReason::Resident: report.resident += gap; break;
            }
        }
        report.total = report.startup + report.channel + report.timer +
                       report.resident;
        if (report.total > 0)
            profile.blockedTop.push_back(report);
    }
    std::sort(profile.blockedTop.begin(), profile.blockedTop.end(),
              [](const BlockedReport &x, const BlockedReport &y) {
                  if (x.total != y.total)
                      return x.total > y.total;
                  return x.ctx < y.ctx;
              });

    // ---- Per-PE utilization timelines -----------------------------------
    int buckets = std::max(1, options.timelineBuckets);
    profile.peTimelines.resize(
        static_cast<std::size_t>(std::max(0, profile.numPes)));
    for (int pe = 0; pe < profile.numPes; ++pe) {
        profile.peTimelines[static_cast<std::size_t>(pe)].pe = pe;
        profile.peTimelines[static_cast<std::size_t>(pe)]
            .buckets.assign(static_cast<std::size_t>(buckets), 0.0);
    }
    Cycle span_total = std::max<Cycle>(profile.totalCycles, 1);
    Cycle bucket_width = (span_total + buckets - 1) / buckets;
    bucket_width = std::max<Cycle>(bucket_width, 1);
    for (const Event &e : events) {
        if (e.kind != EventKind::PeBusy || e.pe < 0 ||
            e.pe >= profile.numPes)
            continue;
        PeTimeline &line =
            profile.peTimelines[static_cast<std::size_t>(e.pe)];
        line.busy += e.end - e.at;
        for (Cycle c = e.at; c < e.end;) {
            Cycle bucket = c / bucket_width;
            Cycle bucket_end = (bucket + 1) * bucket_width;
            Cycle hi = std::min(e.end, bucket_end);
            if (bucket < buckets)
                line.buckets[static_cast<std::size_t>(bucket)] +=
                    static_cast<double>(hi - c);
            c = hi;
        }
    }
    for (PeTimeline &line : profile.peTimelines)
        for (double &fill : line.buckets)
            fill /= static_cast<double>(bucket_width);

    // ---- Starvation digest ----------------------------------------------
    for (const auto &[id, info] : ctxs) {
        if (info.finished)
            continue;
        if (!info.created && info.spans.empty() &&
            info.dispatches.empty())
            continue;
        StarvedContext row;
        row.ctx = id;
        row.createdAt = info.createAt;
        row.dispatched = !info.dispatches.empty();
        if (!row.dispatched) {
            row.lastState = "never dispatched";
        } else {
            Cycle last_dispatch = info.dispatches.back().first;
            if (!info.parks.empty() &&
                info.parks.back().first >= last_dispatch)
                row.lastState =
                    cat("parked (", toString(info.parks.back().second),
                        ") at cycle ", info.parks.back().first);
            else
                row.lastState = cat("running at trace end (dispatched "
                                    "at cycle ",
                                    last_dispatch, ")");
        }
        profile.starved.push_back(row);
    }

    return profile;
}

std::string
Profile::render(const AnalyzeOptions &options) const
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << "qmprof report\n"
       << "  total cycles: " << totalCycles << "\n"
       << "  PEs:          " << numPes << "\n"
       << "  contexts:     " << contexts << " created, " << finished
       << " finished\n";
    if (dropped > 0)
        os << "  WARNING: trace truncated (" << dropped
           << " events dropped past the cap); every figure below "
              "undercounts\n";
    os << "\n";

    // Critical path.
    Cycle run_cycles = 0, blocked_cycles = 0;
    for (const PathSegment &seg : criticalPath) {
        if (seg.kind == PathSegment::Kind::Run)
            run_cycles += seg.length();
        else if (seg.kind == PathSegment::Kind::Blocked)
            blocked_cycles += seg.length();
    }
    os << "critical path: " << criticalPathCycles << " cycles";
    if (totalCycles > 0)
        os << " ("
           << fixed(100.0 * static_cast<double>(criticalPathCycles) /
                        static_cast<double>(totalCycles),
                    1)
           << "% of the run)";
    os << "\n  running " << run_cycles << ", blocked " << blocked_cycles
       << ", across " << criticalPath.size() << " segments\n";
    const std::size_t max_rows = 32;
    for (std::size_t i = 0; i < criticalPath.size(); ++i) {
        if (i >= max_rows) {
            os << "  ... " << criticalPath.size() - max_rows
               << " more segments\n";
            break;
        }
        const PathSegment &seg = criticalPath[i];
        os << "  [" << seg.from << ".." << seg.to << "] ";
        switch (seg.kind) {
          case PathSegment::Kind::Run:
            os << "ctx " << seg.ctx << " ran " << seg.length()
               << " cycles on pe" << seg.pe;
            break;
          case PathSegment::Kind::Blocked:
            os << "ctx " << seg.ctx << " blocked " << seg.length()
               << " cycles (" << seg.reason << ")";
            break;
          case PathSegment::Kind::Fork:
            os << "ctx " << seg.ctx << " forked on pe" << seg.pe;
            break;
        }
        os << "\n";
    }
    os << "\n";

    // Bus / topology attribution.
    if (busTransfers > 0 || migrations > 0) {
        os << "ring bus: " << busTransfers << " remote transfers, "
           << busCycles << " cycles on the wire\n";
        if (bridgeWaitCycles > 0)
            os << "  bridge/backbone wait: " << bridgeWaitCycles
               << " cycles ("
               << fixed(100.0 * static_cast<double>(bridgeWaitCycles) /
                            static_cast<double>(
                                std::max<Cycle>(busCycles, 1)),
                        1)
               << "% of bus time)\n";
        if (migrations > 0)
            os << "  cross-shard migrations: " << migrations << "\n";
        os << "\n";
    }

    // Blocked-time table.
    os << "top contexts by blocked time:\n";
    if (blockedTop.empty()) {
        os << "  (no context ever blocked)\n";
    } else {
        TextTable table({"ctx", "blocked", "startup", "channel",
                         "timer", "resident"});
        std::size_t rows = std::min(
            blockedTop.size(),
            static_cast<std::size_t>(std::max(1, options.topK)));
        for (std::size_t i = 0; i < rows; ++i) {
            const BlockedReport &r = blockedTop[i];
            table.addRow({std::to_string(r.ctx),
                          std::to_string(r.total),
                          std::to_string(r.startup),
                          std::to_string(r.channel),
                          std::to_string(r.timer),
                          std::to_string(r.resident)});
        }
        os << table.render();
        if (blockedTop.size() > rows)
            os << "  ... " << blockedTop.size() - rows
               << " more blocked contexts\n";
    }
    os << "\n";

    // Utilization timelines.
    os << "per-PE utilization over " << options.timelineBuckets
       << " buckets:\n";
    constexpr const char *kShades = " .:-=+*#%@";
    for (const PeTimeline &line : peTimelines) {
        os << "  pe" << line.pe << " [";
        for (double fill : line.buckets) {
            int shade = static_cast<int>(fill * 10.0);
            shade = std::clamp(shade, 0, 9);
            os << kShades[shade];
        }
        double util =
            totalCycles > 0 ? static_cast<double>(line.busy) /
                                  static_cast<double>(totalCycles)
                            : 0.0;
        os << "] " << fixed(100.0 * util, 1) << "% busy\n";
    }
    os << "\n";

    // Starvation digest.
    if (starved.empty()) {
        os << "deadlock/starvation digest: all " << finished
           << " contexts finished\n";
    } else {
        os << "deadlock/starvation digest: " << starved.size()
           << " context(s) never finished\n";
        for (const StarvedContext &row : starved)
            os << "  ctx " << row.ctx << " (created at cycle "
               << row.createdAt << "): " << row.lastState << "\n";
    }
    return os.str();
}

} // namespace qm::trace

#include "obs/analytics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "support/diagnostics.hpp"
#include "support/format.hpp"
#include "support/json_parse.hpp"
#include "trace/trace.hpp"

namespace qm::obs {

namespace {

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/** (series name, PE count) -> run object. */
using RunMap = std::map<std::pair<std::string, int>, const JsonValue *>;

/** One loaded BENCH/metrics document and its run index. */
struct Report
{
    std::string path;
    JsonValue doc;
    RunMap runs;  ///< Points into doc.
};

/**
 * Load one side of a comparison - a single report, or with @p repeats
 * a comma-separated list of repeated reports - and index their runs.
 * A missing, unreadable, or structurally-wrong file (a top level,
 * series entry or run entry that is not an object) is a one-line
 * diagnostic and exit 2, never a crash.
 */
bool
loadSide(const std::string &paths, bool repeats, std::vector<Report> &side,
         std::ostream &err)
{
    std::istringstream in(paths);
    for (std::string path; std::getline(in, path, repeats ? ',' : '\0');)
        side.push_back({path, {}, {}});
    // Loaded in place once the vector stops growing: each RunMap
    // points into its own report's doc.
    for (Report &report : side) {
        auto fail = [&](const std::string &what) {
            err << "qmprof diff: " << report.path << ": " << what << "\n";
            return false;
        };
        try {
            report.doc = parseJsonFile(report.path);
        } catch (const std::exception &e) {
            return fail(e.what());
        }
        if (!report.doc.isObject())
            return fail("not a BENCH/metrics report (top level is not "
                        "an object)");
        for (const JsonValue &series : report.doc.get("series").items) {
            if (!series.isObject())
                return fail("malformed series entry (not an object)");
            for (const JsonValue &run : series.get("runs").items) {
                if (!run.isObject())
                    return fail("malformed run entry (not an object)");
                report.runs[{series.str("name", "?"),
                             static_cast<int>(run.intval("pes"))}] = &run;
            }
        }
    }
    return true;
}

std::string
cellName(const std::pair<std::string, int> &key)
{
    return key.first + " @ " + std::to_string(key.second) + " PEs";
}

/** host_wall_ms of @p run, when it was measured (--host-time). */
std::optional<double>
hostMs(const JsonValue &run)
{
    auto it = run.members.find("host_wall_ms");
    if (it == run.members.end())
        return std::nullopt;
    return it->second.number;
}

std::string
pct(double fraction)
{
    std::ostringstream os;
    os << fixed(fraction * 100.0, 1) << "%";
    return os.str();
}

/** Per-counter deltas + histogram percentile divergence (metrics docs). */
void
diffRunMetrics(const std::string &cell, const JsonValue &base,
               const JsonValue &cur, std::ostream &out)
{
    const JsonValue &base_counters = base.get("counters");
    const JsonValue &cur_counters = cur.get("counters");
    if (base_counters.isObject() && cur_counters.isObject()) {
        for (const auto &[name, value] : base_counters.members) {
            double base_v = value.number;
            double cur_v = cur_counters.get(name).number;
            if (base_v != cur_v)
                out << "note: " << cell << ": counter " << name << " "
                    << fixed(base_v, 0) << " -> " << fixed(cur_v, 0)
                    << "\n";
        }
        for (const auto &[name, value] : cur_counters.members) {
            (void)value;
            if (base_counters.members.find(name) ==
                base_counters.members.end())
                out << "note: " << cell << ": counter " << name
                    << " is new\n";
        }
    }
    const JsonValue &base_hists = base.get("histograms");
    const JsonValue &cur_hists = cur.get("histograms");
    if (base_hists.isObject() && cur_hists.isObject()) {
        for (const auto &[name, bh] : base_hists.members) {
            auto it = cur_hists.members.find(name);
            if (it == cur_hists.members.end()) {
                out << "note: " << cell << ": histogram " << name
                    << " missing from current report\n";
                continue;
            }
            const JsonValue &ch = it->second;
            for (const char *p : {"p50", "p90", "p99"}) {
                double bp = bh.num(p);
                double cp = ch.num(p);
                if (bp != cp)
                    out << "note: " << cell << ": " << name << " " << p
                        << " " << fixed(bp, 1) << " -> " << fixed(cp, 1)
                        << "\n";
            }
        }
    }
}

/**
 * Best-of-N aggregate host gate: the minimum total host_wall_ms per
 * side (which discards scheduler hiccups instead of averaging them
 * in) may exceed the baseline's by at most @p tolerance.
 */
int
checkHostAggregate(const std::vector<Report> &base,
                   const std::vector<Report> &cur, double tolerance,
                   std::ostream &out)
{
    double best[2] = {std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::infinity()};
    for (int side = 0; side < 2; ++side) {
        for (const Report &report : side == 0 ? base : cur) {
            double total = 0.0;
            for (const auto &[key, run] : report.runs) {
                std::optional<double> ms = hostMs(*run);
                if (!ms) {
                    // A partial sum would compare different work.
                    out << "FAIL: " << report.path << ": " << cellName(key)
                        << " has no host_wall_ms (rerun with --host-time)\n";
                    return 1;
                }
                total += *ms;
            }
            out << "note: " << report.path << ": total host "
                << fixed(total, 2) << "ms\n";
            best[side] = std::min(best[side], total);
        }
    }
    double overhead = (best[1] - best[0]) / best[0];
    bool ok = best[0] > 0.0 && overhead <= tolerance;
    out << (ok ? "aggregate host overhead ok: "
               : "FAIL: aggregate host overhead: ")
        << "best-of-" << cur.size() << " total host " << fixed(best[0], 2)
        << "ms -> " << fixed(best[1], 2) << "ms (" << pct(overhead)
        << ", tolerance " << pct(tolerance) << ")\n";
    return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// flight
// ---------------------------------------------------------------------------

/** One line of the rendered timeline for a recorded ring event. */
void
renderFlightEvent(const JsonValue &event, std::ostream &out)
{
    out << "    cycle " << event.intval("at") << ": "
        << event.str("kind", "?");
    long long pe = event.intval("pe", -1);
    if (pe >= 0)
        out << " pe=" << pe;
    auto ctx = event.members.find("ctx");
    if (ctx != event.members.end())
        out << " ctx=" << event.intval("ctx");
    long long end = event.intval("end");
    if (end != 0)
        out << " end=" << end;
    out << " a=" << event.intval("a") << " b=" << event.intval("b")
        << "\n";
}

} // namespace

int
diffReports(const std::string &baselinePath,
            const std::string &currentPath, const DiffOptions &options,
            std::ostream &out, std::ostream &err)
{
    // With hostAggregate each side may list repeated reports; the
    // first of each side anchors the cell checks.
    std::vector<Report> base_side;
    std::vector<Report> cur_side;
    if (!loadSide(baselinePath, options.hostAggregate, base_side, err) ||
        !loadSide(currentPath, options.hostAggregate, cur_side, err))
        return 2;
    const RunMap &base_runs = base_side.front().runs;
    const RunMap &cur_runs = cur_side.front().runs;

    std::string base_name = base_side.front().doc.str("bench", "?");
    std::string cur_name = cur_side.front().doc.str("bench", "?");
    if (base_name != cur_name) {
        out << "FAIL: comparing different benches ('" << base_name
            << "' vs '" << cur_name << "')\n";
        return 1;
    }

    // The simulator is deterministic: a repeat whose cycles disagree
    // with its side's first report is a broken sweep, not noise.
    int failures = 0;
    for (const std::vector<Report> *side : {&base_side, &cur_side}) {
        for (const Report &repeat : *side) {
            for (const auto &[key, run] : side->front().runs) {
                auto it = repeat.runs.find(key);
                if (it == repeat.runs.end() ||
                    it->second->intval("cycles") != run->intval("cycles")) {
                    out << "FAIL: " << repeat.path << ": " << cellName(key)
                        << " disagrees with its first repetition "
                           "(nondeterministic sweep?)\n";
                    ++failures;
                }
            }
        }
    }

    for (const auto &[key, base] : base_runs) {
        std::string cell = cellName(key);
        auto it = cur_runs.find(key);
        if (it == cur_runs.end()) {
            out << "FAIL: " << cell << ": missing from current report\n";
            ++failures;
            continue;
        }
        const JsonValue &cur = *it->second;
        if (!cur.get("verified").boolean) {
            out << "FAIL: " << cell << ": run no longer verifies\n";
            ++failures;
            continue;
        }
        long long base_cycles = base->intval("cycles");
        long long cur_cycles = cur.intval("cycles");
        if (base_cycles > 0) {
            double delta =
                static_cast<double>(cur_cycles - base_cycles) /
                static_cast<double>(base_cycles);
            if (delta > options.tolerance) {
                out << "FAIL: " << cell << ": cycles " << base_cycles
                    << " -> " << cur_cycles << " (+" << pct(delta)
                    << " > " << pct(options.tolerance)
                    << " tolerance)\n";
                ++failures;
            } else if (delta != 0.0) {
                out << "note: " << cell << ": cycles " << base_cycles
                    << " -> " << cur_cycles << " ("
                    << pct(std::fabs(delta))
                    << (delta > 0 ? " slower)" : " faster)") << "\n";
            } else {
                out << "ok:   " << cell << ": " << cur_cycles
                    << " cycles (unchanged)\n";
            }
        }
        // Host time is gated per cell only when both sides measured
        // it (a committed machine-independent baseline never carries
        // it), and not under hostAggregate: per-cell times on the
        // small sweeps are sub-millisecond, below runner noise.
        std::optional<double> base_ms = hostMs(*base);
        std::optional<double> cur_ms = hostMs(cur);
        if (!options.hostAggregate && base_ms && cur_ms &&
            *base_ms > 0.0) {
            double host_delta = (*cur_ms - *base_ms) / *base_ms;
            if (host_delta > options.hostTolerance) {
                out << "FAIL: " << cell << ": host " << fixed(*base_ms, 2)
                    << "ms -> " << fixed(*cur_ms, 2) << "ms (+"
                    << pct(host_delta) << " > "
                    << pct(options.hostTolerance)
                    << " host tolerance)\n";
                ++failures;
            }
        }
        if (options.showMetrics)
            diffRunMetrics(cell, *base, cur, out);
    }
    for (const auto &[key, run] : cur_runs) {
        (void)run;
        if (base_runs.find(key) == base_runs.end())
            out << "note: " << cellName(key) << ": new cell, no baseline\n";
    }

    if (failures != 0) {
        out << failures
            << " cell(s) regressed past tolerance; if intentional, "
               "refresh the baseline in the same change\n";
        return 1;
    }
    out << "all " << base_runs.size()
        << " baseline cells within tolerance\n";
    if (options.hostAggregate)
        return checkHostAggregate(base_side, cur_side,
                                  options.hostTolerance, out);
    return 0;
}

int
analyzeFlight(const std::string &path, const FlightOptions &options,
              std::ostream &out, std::ostream &err)
{
    JsonValue doc;
    try {
        doc = parseJsonFile(path);
    } catch (const std::exception &e) {
        err << "qmprof flight: " << path << ": " << e.what() << "\n";
        return 2;
    }
    if (!doc.isObject() || doc.str("schema") != "qm.flight.v1") {
        err << "qmprof flight: " << path
            << ": not a qm.flight.v1 black box\n";
        return 2;
    }

    std::string reason = doc.str("reason", "?");
    out << "flight recorder black box: " << path << "\n";
    out << "  reason: " << reason << "\n";
    out << "  cycle: " << doc.intval("cycle") << "  pes: "
        << doc.intval("pes") << "  live contexts: "
        << doc.intval("live_contexts") << "\n";

    const JsonValue &counts = doc.get("counts");
    if (counts.isObject() && !counts.members.empty()) {
        out << "  event totals:\n";
        for (const auto &[kind, value] : counts.members)
            out << "    " << kind << " " << fixed(value.number, 0)
                << "\n";
    }

    // Blocked-context attribution: walk the sched ring and keep, per
    // context, the last lifecycle event. A context whose final
    // recorded event is a park never came back within the ring's
    // window — the prime suspects for a deadlock or starvation.
    std::map<long long, const JsonValue *> last_sched;
    const JsonValue *sched_ring = nullptr;
    for (const JsonValue &ring : doc.get("rings").items) {
        if (ring.str("name") == "sched")
            sched_ring = &ring;
    }
    if (sched_ring != nullptr) {
        for (const JsonValue &event : sched_ring->get("events").items) {
            std::string kind = event.str("kind");
            if (kind != "ctx-dispatch" && kind != "ctx-park" &&
                kind != "ctx-finish")
                continue;
            last_sched[event.intval("ctx")] = &event;
        }
    }
    std::vector<std::pair<long long, const JsonValue *>> blocked;
    for (const auto &[ctx, event] : last_sched)
        if (event->str("kind") == "ctx-park")
            blocked.emplace_back(ctx, event);
    if (!blocked.empty()) {
        out << "  blocked contexts (last event is a park):\n";
        for (const auto &[ctx, event] : blocked) {
            long long r = event->intval("a");
            const char *why =
                (r >= 0 && r < 3)
                    ? trace::toString(static_cast<trace::ParkReason>(r))
                    : "?";
            out << "    ctx " << ctx << ": parked (" << why
                << ") on pe " << event->intval("pe") << " at cycle "
                << event->intval("at") << "\n";
        }
    }

    // Probable cause: the dump reason names the failure class; the
    // rings supply the supporting evidence.
    out << "  probable cause: ";
    if (reason.find("watchdog") != std::string::npos ||
        reason.find("deadlock") != std::string::npos ||
        reason.find("starv") != std::string::npos) {
        out << "no context made progress — ";
        if (!blocked.empty())
            out << blocked.size()
                << " context(s) parked and never redispatched (see "
                   "above)\n";
        else
            out << "no parked context in the ring window; suspect a "
                   "kernel or bus livelock\n";
    } else if (reason.find("deadline") != std::string::npos) {
        out << "host wall-clock deadline expired; the machine was "
               "still making progress when aborted\n";
    } else if (reason.find("signal") != std::string::npos ||
               reason.find("interrupt") != std::string::npos) {
        out << "external interrupt (SIGINT/SIGTERM); not a simulator "
               "failure\n";
    } else if (reason.find("fault") != std::string::npos ||
               reason.find("fatal") != std::string::npos ||
               reason.find("corrupt") != std::string::npos) {
        out << "injected or fatal fault; see the fault ring timeline "
               "below\n";
    } else if (reason.find("checkpoint") != std::string::npos ||
               reason.find("run-start") != std::string::npos) {
        out << "not a failure dump (" << reason << ")\n";
    } else {
        out << reason << "\n";
    }

    for (const JsonValue &ring : doc.get("rings").items) {
        const std::vector<JsonValue> &events =
            ring.get("events").items;
        std::uint64_t recorded =
            static_cast<std::uint64_t>(ring.num("recorded"));
        out << "  ring " << ring.str("name", "?") << ": " << recorded
            << " recorded, last " << events.size() << " kept\n";
        std::size_t show =
            std::min(events.size(),
                     static_cast<std::size_t>(options.lastEvents));
        for (std::size_t i = events.size() - show; i < events.size();
             ++i)
            renderFlightEvent(events[i], out);
    }
    return 0;
}

} // namespace qm::obs

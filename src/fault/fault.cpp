#include "fault/fault.hpp"

#include <bit>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "support/cli.hpp"
#include "support/diagnostics.hpp"

namespace qm::fault {

namespace {

/** Stream index of a (single-bit) fault kind. */
int
kindIndex(FaultKind kind)
{
    int index = std::countr_zero(static_cast<unsigned>(kind));
    panicIf(index >= kNumFaultKinds ||
                (static_cast<unsigned>(kind) & (static_cast<unsigned>(kind) - 1u)) != 0,
            "fire() takes exactly one fault kind");
    return index;
}

/** Parse one `kinds=` term ("drop", "all", ...) into a mask. */
unsigned
kindMaskOf(const std::string &term)
{
    if (term == "drop")
        return kBusDrop;
    if (term == "dup")
        return kBusDup;
    if (term == "delay")
        return kBusDelay;
    if (term == "corrupt")
        return kCacheCorrupt;
    if (term == "stall")
        return kPeStall;
    if (term == "pekill")
        return kPeKill;
    if (term == "all")
        return kAllKinds;
    fatal("--faults: unknown fault kind '", term,
          "' (expected drop, dup, delay, corrupt, stall, pekill, or "
          "all)");
}

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::string::size_type start = 0;
    while (start <= text.size()) {
        auto end = text.find(sep, start);
        if (end == std::string::npos)
            end = text.size();
        parts.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return parts;
}

std::uint64_t
parseSeed(const std::string &text)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    errno = 0;
    unsigned long long value = std::strtoull(begin, &end, 0);
    fatalIf(end == begin || *end != '\0' || errno == ERANGE ||
                text[0] == '-',
            "--faults: seed expects a non-negative integer, got '",
            text, "'");
    return value;
}

} // namespace

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case kBusDrop: return "drop";
      case kBusDup: return "dup";
      case kBusDelay: return "delay";
      case kCacheCorrupt: return "corrupt";
      case kPeStall: return "stall";
      case kPeKill: return "pekill";
    }
    return "?";
}

FaultPlan
parseFaultPlan(const std::string &spec)
{
    fatalIf(spec.empty(), "--faults: empty spec");
    FaultPlan plan;
    plan.rate = 0.01;
    plan.kinds = kDefaultKinds;
    for (const std::string &pair : split(spec, ',')) {
        auto eq = pair.find('=');
        fatalIf(eq == std::string::npos || eq == 0,
                "--faults: expected key=value, got '", pair, "'");
        std::string key = pair.substr(0, eq);
        std::string value = pair.substr(eq + 1);
        fatalIf(value.empty(), "--faults: empty value for '", key, "'");
        if (key == "seed") {
            plan.seed = parseSeed(value);
        } else if (key == "rate") {
            const char *begin = value.c_str();
            char *end = nullptr;
            double rate = std::strtod(begin, &end);
            fatalIf(end == begin || *end != '\0' || !(rate > 0.0) ||
                        rate > 1.0,
                    "--faults: rate must be in (0, 1], got '", value,
                    "'");
            plan.rate = rate;
        } else if (key == "kinds") {
            unsigned mask = 0;
            for (const std::string &term : split(value, '+'))
                mask |= kindMaskOf(term);
            plan.kinds = mask;
        } else if (key == "retries") {
            plan.maxRetries = static_cast<int>(
                parseIntArg(value, "--faults retries", 0, 64));
        } else if (key == "backoff") {
            plan.retryBackoff =
                parseIntArg(value, "--faults backoff", 1, 1 << 20);
        } else if (key == "delay") {
            plan.maxDelay =
                parseIntArg(value, "--faults delay", 1, 1 << 20);
        } else if (key == "stall") {
            plan.maxStall =
                parseIntArg(value, "--faults stall", 1, 1 << 20);
        } else if (key == "killat") {
            plan.killAt =
                parseIntArg(value, "--faults killat", 1, 1 << 30);
        } else if (key == "killpe") {
            plan.killPe = static_cast<int>(
                parseIntArg(value, "--faults killpe", 0, 4095));
        } else {
            fatal("--faults: unknown key '", key,
                  "' (expected seed, rate, kinds, retries, backoff, "
                  "delay, stall, killat, or killpe)");
        }
    }
    // The fail-stop kill is addressed by name either way: killat=N
    // implies the kind, and kinds=...+pekill implies a default cycle.
    if (plan.killAt > 0)
        plan.kinds |= kPeKill;
    else if (plan.kinds & kPeKill)
        plan.killAt = 10'000;
    return plan;
}

std::string
toString(const FaultPlan &plan)
{
    std::ostringstream os;
    os << "seed=" << plan.seed << ",rate=" << plan.rate << ",kinds=";
    bool first = true;
    for (int i = 0; i < kNumFaultKinds; ++i) {
        auto kind = static_cast<FaultKind>(1u << i);
        if (!(plan.kinds & kind))
            continue;
        os << (first ? "" : "+") << toString(kind);
        first = false;
    }
    if (first)
        os << "none";
    os << ",retries=" << plan.maxRetries << ",backoff="
       << plan.retryBackoff << ",delay=" << plan.maxDelay << ",stall="
       << plan.maxStall;
    if (plan.kinds & kPeKill) {
        os << ",killat=" << plan.killAt;
        if (plan.killPe >= 0)
            os << ",killpe=" << plan.killPe;
    }
    return os.str();
}

std::string
runBanner(const FaultPlan &plan, const RecoveryPlan &recovery)
{
    std::ostringstream os;
    if (plan.enabled())
        os << "fault injection: " << toString(plan) << "\n";
    if (recovery.enabled) {
        os << "recovery: enabled";
        if (recovery.checkpointEvery > 0)
            os << " (checkpoint every " << recovery.checkpointEvery
               << " cycles)";
        os << "\n";
    }
    return os.str();
}

FaultInjector::FaultInjector(const FaultPlan &plan)
    : plan_(plan),
      streams_{SplitMix64(0), SplitMix64(0), SplitMix64(0),
               SplitMix64(0), SplitMix64(0)},
      payload_(0)
{
    fatalIf(plan_.rate < 0.0 || plan_.rate > 1.0,
            "fault rate must be in [0, 1]");
    fatalIf(plan_.maxRetries < 0, "fault retries must be >= 0");
    fatalIf(plan_.retryBackoff < 1 || plan_.maxDelay < 1 ||
                plan_.maxStall < 1,
            "fault backoff/delay/stall bounds must be >= 1");
    // Derive an independent sub-seed per stream from the plan seed, so
    // one kind's decision sequence never depends on the others.
    SplitMix64 root(plan_.seed);
    for (auto &stream : streams_)
        stream = SplitMix64(root.next());
    payload_ = SplitMix64(root.next());
}

bool
FaultInjector::fire(FaultKind kind)
{
    if (!(plan_.kinds & kind))
        return false;
    int index = kindIndex(kind);
    panicIf(index >= kNumRandomKinds,
            "fire() takes a stochastic fault kind (pekill is "
            "scheduled by FaultPlan::killAt)");
    // Top 53 bits -> uniform double in [0, 1); exact across platforms.
    double u = static_cast<double>(streams_[static_cast<std::size_t>(
                                       index)].next() >>
                                   11) *
               0x1.0p-53;
    if (u >= plan_.rate)
        return false;
    ++counts_[static_cast<std::size_t>(index)];
    ++injected_;
    return true;
}

Cycle
FaultInjector::delayCycles()
{
    return 1 + static_cast<Cycle>(
                   payload_.below(static_cast<std::uint64_t>(
                       plan_.maxDelay)));
}

Cycle
FaultInjector::stallCycles()
{
    return 1 + static_cast<Cycle>(
                   payload_.below(static_cast<std::uint64_t>(
                       plan_.maxStall)));
}

std::uint32_t
FaultInjector::corruptWord(std::uint32_t value)
{
    return value ^ (1u << payload_.below(32));
}

void
FaultInjector::notePlanned(FaultKind kind)
{
    ++counts_[static_cast<std::size_t>(kindIndex(kind))];
    ++injected_;
}

std::uint64_t
FaultInjector::injectedOf(FaultKind kind) const
{
    return counts_[static_cast<std::size_t>(kindIndex(kind))];
}

} // namespace qm::fault

#include "harness.hpp"

#include <cmath>
#include <new>

#include "workloads.hpp"

namespace perfbench {

int
Tracer::begin(const char *name)
{
    if (size_ == capacity_) {
        std::size_t grown = capacity_ == 0 ? 4096 : capacity_ * 2;
        void *p = std::realloc(spans_, grown * sizeof(Span));
        if (p == nullptr)
            throw std::bad_alloc();
        spans_ = static_cast<Span *>(p);
        capacity_ = grown;
    }
    Span &s = spans_[size_];
    s.name = name;
    s.parent = open_;
    s.op = op_;
    open_ = static_cast<int>(size_++);
    s.allocs = allocCount();
    s.startNs = nowNs();
    return open_;
}

void
Tracer::end(int index)
{
    std::int64_t now = nowNs();
    Span &s = spans_[index];
    s.endNs = now;
    s.allocs = allocCount() - s.allocs;
    open_ = s.parent;
}

const std::vector<std::string> &
simCountNames()
{
    static const std::vector<std::string> names = {
        "pe.instructions",      "pe.traps",
        "pe.window_hits",       "pe.window_misses",
        "msg.rendezvous",       "bus.remote_transfers",
        "bus.contention_cycles", "sys.cycles_compute",
        "sys.cycles_kernel",    "sys.cycles_blocked",
        "sys.cycles_bus",       "sys.contexts_created",
        "sys.checkpoints",
    };
    return names;
}

void
addCount(Counts &counts, const std::string &name, std::uint64_t value)
{
    for (auto &[n, v] : counts)
        if (n == name) {
            v += value;
            return;
        }
    counts.emplace_back(name, value);
}

void
addSimCounts(Counts &counts, const qm::StatSet &stats)
{
    for (const std::string &name : simCountNames()) {
        // The cycle split is kept as scalars; they hold whole cycles.
        std::uint64_t v =
            name.rfind("sys.cycles_", 0) == 0
                ? static_cast<std::uint64_t>(std::llround(stats.scalar(name)))
                : stats.counter(name);
        addCount(counts, name, v);
    }
}

void
checkRun(OpOutcome &out, const std::string &what,
         const qm::mp::RunResult &result, qm::mp::System &system,
         const qm::occam::CompiledProgram &program, const std::string &array,
         const std::vector<std::int32_t> &expected)
{
    if (!result.completed) {
        out.fail(what + ": run did not complete (" + result.failureReason +
                 ")");
        return;
    }
    qm::isa::Addr base = program.arrayAddress(array);
    for (std::size_t i = 0; i < expected.size(); ++i) {
        auto got = static_cast<std::int32_t>(system.memory().readWord(
            base + static_cast<qm::isa::Addr>(i) * 4));
        if (got != expected[i]) {
            out.fail(what + ": " + array + "[" + std::to_string(i) +
                     "] = " + std::to_string(got) + ", expected " +
                     std::to_string(expected[i]));
            return;
        }
    }
}

} // namespace perfbench

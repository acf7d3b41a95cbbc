/**
 * @file
 * Shared pieces of the benchmark: the clock, the allocation counter,
 * the in-memory span tracer, and the interface every workload
 * implements.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Calls of any global operator new so far (see alloc_count.cpp). */
std::uint64_t allocCount();

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One timed call into a layer. */
struct Span
{
    const char *name = nullptr;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t allocs = 0;  ///< operator new calls, children included.
    std::int32_t parent = -1;  ///< Index of the enclosing span, or -1.
    std::int32_t op = -1;      ///< Op the span belongs to.
};

/**
 * Records spans while an op id is set. Storage is malloc'd and grown
 * with realloc, never with operator new, so recording does not change
 * the allocation counts it measures.
 */
class Tracer
{
  public:
    Tracer() = default;
    ~Tracer() { std::free(spans_); }
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return op_ >= 0; }
    /** Record the following spans under @p op; -1 stops recording. */
    void setOp(int op) { op_ = op; }

    int begin(const char *name);
    void end(int index);

    std::size_t size() const { return size_; }
    const Span &operator[](std::size_t i) const { return spans_[i]; }

  private:
    Span *spans_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
    int open_ = -1;
    int op_ = -1;
};

/** Times the enclosing scope as one span when the tracer records. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name)
        : tracer_(tracer), index_(tracer.enabled() ? tracer.begin(name) : -1)
    {}
    ~ScopedSpan()
    {
        if (index_ >= 0)
            tracer_.end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int index_;
};

/** Exact per-op counts, in a fixed order: name -> value. */
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

/** What one op did and whether every check passed. */
struct OpOutcome
{
    bool verified = true;
    std::string failure;  ///< First failed check, empty when verified.
    std::uint64_t instructions = 0;     ///< Retired by the op's runs.
    std::uint64_t runInstructions = 0;  ///< Retired inside mp.run.
    std::uint64_t cycles = 0;           ///< Summed over the op's runs.
    Counts counts;                      ///< Simulated stats and bytes.

    void
    fail(const std::string &why)
    {
        if (verified)
            failure = why;
        verified = false;
    }
};

/** Benchmark-only switches of a workload. */
struct WorkloadOptions
{
    /** Corrupt one check's input so verification must fail. */
    bool corrupt = false;
    /** This is the traced run. */
    bool trace = false;
    /** Directory (relative to the checkout) for files an op writes. */
    std::string workDir;
};

/**
 * One workload. Construction generates the seeded inputs (not timed);
 * prepare() is the set-up proper; op() is one timed op.
 */
class Workload
{
  public:
    Workload() = default;
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    /** Compile the fixed programs. May be called more than once. */
    virtual void prepare() = 0;
    /** Ops in one pass; a timed phase runs whole passes. */
    virtual std::size_t poolSize() const = 0;
    virtual OpOutcome op(std::size_t index, Tracer &tracer) = 0;
};

} // namespace perfbench

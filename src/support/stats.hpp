/**
 * @file
 * Simple named-statistic registry used throughout the simulator.
 *
 * Mirrors the role of the thesis simulator's per-run statistics tables
 * (Tables 6.2-6.5): counters (events), scalars (measured quantities)
 * and fixed-bucket log2 histograms (exact count/sum plus percentile
 * estimates) for the latency and occupancy metrics the aggregate
 * tables hide. The simulator records into catalog-indexed blocks
 * (support/metric_catalog.hpp); StatSet is the name-keyed form they
 * fold into, which every report, renderer and file reads.
 */
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace qm {

/**
 * Fixed-bucket log2 histogram over non-negative integer samples
 * (cycle counts, hop counts, queue depths).
 *
 * Bucket 0 holds exact zeros; bucket i (1 <= i < kNumBuckets-1) holds
 * values in [2^(i-1), 2^i); the last bucket is the overflow bucket for
 * everything at or above 2^(kNumBuckets-2). Count and sum are exact;
 * min/max are exact; percentiles are estimated by linear interpolation
 * inside the covering bucket (clamped to the exact min/max), which is
 * accurate to within one power of two - plenty for "where did the
 * cycles go" questions. Two histograms merge exactly (bucket-wise
 * addition), so per-PE views fold into system totals without loss.
 */
class Histogram
{
  public:
    static constexpr int kNumBuckets = 32;

    void
    sample(std::uint64_t value)
    {
        if (count_ == 0 || value < min_)
            min_ = value;
        if (count_ == 0 || value > max_)
            max_ = value;
        sum_ += value;
        ++count_;
        ++buckets_[static_cast<std::size_t>(bucketIndex(value))];
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return count_ ? max_ : 0; }
    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /** Samples recorded into bucket @p index. */
    std::uint64_t
    bucketCount(int index) const
    {
        return buckets_[static_cast<std::size_t>(index)];
    }

    /** Bucket @p value lands in: 0 for zero, last bucket = overflow. */
    static int
    bucketIndex(std::uint64_t value)
    {
        if (value == 0)
            return 0;
        int width = std::bit_width(value);
        return width < kNumBuckets - 1 ? width : kNumBuckets - 1;
    }

    /** Inclusive lower bound of bucket @p index. */
    static std::uint64_t
    bucketLow(int index)
    {
        if (index <= 0)
            return 0;
        return std::uint64_t{1} << (index - 1);
    }

    /** Exclusive upper bound of bucket @p index (max for overflow). */
    static std::uint64_t
    bucketHigh(int index)
    {
        if (index <= 0)
            return 1;
        if (index >= kNumBuckets - 1)
            return ~std::uint64_t{0};
        return std::uint64_t{1} << index;
    }

    /**
     * Estimated value at percentile @p p in [0, 100]: linear
     * interpolation inside the bucket covering that rank, clamped to
     * the exact [min, max] envelope. Returns 0 on an empty histogram.
     */
    double percentile(double p) const;

    /** Bucket-wise exact merge. */
    void merge(const Histogram &other);

    /**
     * Rebuild from persisted raw fields (durable checkpoints), or
     * nullopt when no samples and merges could produce them: count is
     * not the saturating sum of the buckets, an empty histogram has a
     * non-zero sum, min or max, or min or max lies outside the first or
     * last non-empty bucket (percentile() relies on min <= max).
     */
    static std::optional<Histogram>
    fromRaw(std::uint64_t count, std::uint64_t sum, std::uint64_t min,
            std::uint64_t max,
            const std::array<std::uint64_t, kNumBuckets> &buckets);

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    std::array<std::uint64_t, kNumBuckets> buckets_{};
};

/** Registry of named counters, scalars and histograms for one run. */
class StatSet
{
  public:
    /** Add delta to the named counter (created on first use). */
    void inc(const std::string &name, std::uint64_t delta = 1);

    /** Set a named scalar outright. */
    void set(const std::string &name, double value);

    /** Merge a whole histogram into the named one (created if absent). */
    void merge(const std::string &name, const Histogram &hist);

    std::uint64_t counter(const std::string &name) const;
    double scalar(const std::string &name) const;
    const Histogram &histogram(const std::string &name) const;
    bool hasCounter(const std::string &name) const;
    bool hasHistogram(const std::string &name) const;

    // Ordered whole-registry views (metrics export).
    const std::map<std::string, std::uint64_t> &
    counterMap() const
    {
        return counters_;
    }
    const std::map<std::string, double> &
    scalarMap() const
    {
        return scalars_;
    }
    const std::map<std::string, Histogram> &
    histogramMap() const
    {
        return histograms_;
    }

    /** Render all statistics as "name value" lines, sorted by name. */
    std::string render() const;

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> scalars_;
    std::map<std::string, Histogram> histograms_;
};

/**
 * Render a registry in the Prometheus text exposition format
 * (version 0.0.4): counters become `counter` samples, scalars
 * `gauge`s, and log2 histograms full `histogram` families with
 * cumulative `le` buckets (+Inf included). Metric names are
 * `<prefix>_<name>` with every character outside [a-zA-Z0-9_:] mapped
 * to '_', so registry names like "pe0.ready_wait" scrape cleanly.
 * Deterministic: maps are name-ordered and doubles are locale-pinned.
 */
std::string renderPrometheus(const StatSet &stats,
                             const std::string &prefix = "qm");

} // namespace qm

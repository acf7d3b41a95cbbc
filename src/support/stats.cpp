#include "support/stats.hpp"

#include <algorithm>
#include <sstream>

#include "support/diagnostics.hpp"
#include "support/format.hpp"

namespace qm {

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // Rank of the requested percentile, 1-based (nearest-rank style,
    // then interpolated inside the covering bucket).
    double rank = p / 100.0 * static_cast<double>(count_);
    if (rank < 1.0)
        rank = 1.0;
    std::uint64_t seen = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
        std::uint64_t in_bucket = buckets_[static_cast<std::size_t>(i)];
        if (in_bucket == 0)
            continue;
        if (static_cast<double>(seen + in_bucket) < rank) {
            seen += in_bucket;
            continue;
        }
        // Interpolate within [lo, hi), clamped to the exact envelope
        // (the overflow bucket in particular has no usable hi). The
        // cap is compared strictly-greater rather than via
        // min(cap, max_ + 1): with max_ == UINT64_MAX the +1 would
        // wrap to 0 and collapse the bucket to [lo, lo+1).
        double lo = static_cast<double>(
            std::max(bucketLow(i), min_));
        std::uint64_t cap = bucketHigh(i);
        double hi = cap > max_ ? static_cast<double>(max_) + 1.0
                               : static_cast<double>(cap);
        if (hi <= lo)
            hi = lo + 1.0;
        double into =
            (rank - static_cast<double>(seen)) /
            static_cast<double>(in_bucket);
        double value = lo + (hi - lo) * into;
        return std::clamp(value, static_cast<double>(min_),
                          static_cast<double>(max_));
    }
    return static_cast<double>(max_);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0 || other.min_ < min_)
        min_ = other.min_;
    if (count_ == 0 || other.max_ > max_)
        max_ = other.max_;
    // Saturate instead of wrapping: a wrapped count would report a
    // near-empty histogram for the fullest one possible, and a wrapped
    // sum a nonsense mean. Saturation keeps both monotone.
    if (__builtin_add_overflow(count_, other.count_, &count_))
        count_ = ~std::uint64_t{0};
    if (__builtin_add_overflow(sum_, other.sum_, &sum_))
        sum_ = ~std::uint64_t{0};
    for (int i = 0; i < kNumBuckets; ++i) {
        std::uint64_t &mine = buckets_[static_cast<std::size_t>(i)];
        if (__builtin_add_overflow(
                mine, other.buckets_[static_cast<std::size_t>(i)],
                &mine))
            mine = ~std::uint64_t{0};
    }
}

std::optional<Histogram>
Histogram::fromRaw(std::uint64_t count, std::uint64_t sum, std::uint64_t min,
                   std::uint64_t max,
                   const std::array<std::uint64_t, kNumBuckets> &buckets)
{
    Histogram h;
    int first = -1, last = -1;
    for (int i = 0; i < kNumBuckets; ++i) {
        std::uint64_t in = buckets[static_cast<std::size_t>(i)];
        if (in == 0)
            continue;
        first = first < 0 ? i : first;
        last = i;
        if (__builtin_add_overflow(h.count_, in, &h.count_))
            h.count_ = ~std::uint64_t{0};
    }
    bool consistent = count == 0 ? sum == 0 && min == 0 && max == 0
                                 : min <= max && bucketIndex(min) == first &&
                                       bucketIndex(max) == last;
    if (count != h.count_ || !consistent)
        return std::nullopt;
    h.sum_ = sum;
    h.min_ = min;
    h.max_ = max;
    h.buckets_ = buckets;
    return h;
}

void
StatSet::inc(const std::string &name, std::uint64_t delta)
{
    counters_[name] += delta;
}

void
StatSet::set(const std::string &name, double value)
{
    scalars_[name] = value;
}

void
StatSet::merge(const std::string &name, const Histogram &hist)
{
    histograms_[name].merge(hist);
}

std::uint64_t
StatSet::counter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

bool
StatSet::hasCounter(const std::string &name) const
{
    return counters_.count(name) != 0;
}

bool
StatSet::hasHistogram(const std::string &name) const
{
    return histograms_.count(name) != 0;
}

double
StatSet::scalar(const std::string &name) const
{
    auto it = scalars_.find(name);
    return it == scalars_.end() ? 0.0 : it->second;
}

const Histogram &
StatSet::histogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    panicIf(it == histograms_.end(), "unknown histogram: ", name);
    return it->second;
}

std::string
StatSet::render() const
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    for (const auto &[name, value] : counters_)
        os << name << " " << value << "\n";
    for (const auto &[name, value] : scalars_)
        os << name << " " << fixed(value, 4) << "\n";
    for (const auto &[name, hist] : histograms_) {
        os << name << " count=" << hist.count() << " sum=" << hist.sum()
           << " min=" << hist.min() << " max=" << hist.max()
           << " mean=" << fixed(hist.mean(), 3)
           << " p50=" << fixed(hist.percentile(50), 1)
           << " p90=" << fixed(hist.percentile(90), 1)
           << " p99=" << fixed(hist.percentile(99), 1) << "\n";
    }
    return os.str();
}

namespace {

/** "pe0.ready_wait" -> "pe0_ready_wait" (exposition-safe name). */
std::string
promName(const std::string &prefix, const std::string &name)
{
    std::string out = prefix + "_" + name;
    for (char &c : out) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        if (!ok)
            c = '_';
    }
    return out;
}

} // namespace

std::string
renderPrometheus(const StatSet &stats, const std::string &prefix)
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    for (const auto &[name, value] : stats.counterMap()) {
        std::string metric = promName(prefix, name);
        os << "# TYPE " << metric << " counter\n"
           << metric << " " << value << "\n";
    }
    for (const auto &[name, value] : stats.scalarMap()) {
        std::string metric = promName(prefix, name);
        os << "# TYPE " << metric << " gauge\n"
           << metric << " " << fixed(value, 6) << "\n";
    }
    for (const auto &[name, hist] : stats.histogramMap()) {
        std::string metric = promName(prefix, name);
        os << "# TYPE " << metric << " histogram\n";
        // Cumulative le buckets up to the last populated one; the
        // mandatory +Inf bucket then carries the total count, so the
        // empty log2 tail never bloats the exposition.
        int last = -1;
        for (int i = 0; i < Histogram::kNumBuckets; ++i)
            if (hist.bucketCount(i) > 0)
                last = i;
        std::uint64_t cumulative = 0;
        for (int i = 0; i <= last && i < Histogram::kNumBuckets - 1;
             ++i) {
            cumulative += hist.bucketCount(i);
            // Bucket i covers [2^(i-1), 2^i) over integers, so its
            // inclusive Prometheus upper bound is 2^i - 1 (bucket 0
            // holds exact zeros: le="0").
            os << metric << "_bucket{le=\""
               << (Histogram::bucketHigh(i) - 1) << "\"} " << cumulative
               << "\n";
        }
        os << metric << "_bucket{le=\"+Inf\"} " << hist.count() << "\n"
           << metric << "_sum " << hist.sum() << "\n"
           << metric << "_count " << hist.count() << "\n";
    }
    return os.str();
}

} // namespace qm

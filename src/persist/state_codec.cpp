#include "persist/state_codec.hpp"

#include "support/format.hpp"

namespace qm::persist {

namespace {

/** Cap on decoded container sizes (entries, not bytes): a corrupt
 * length field must not be able to drive a multi-gigabyte allocation
 * before the bounds check on the payload bytes kicks in. Every decoded
 * element is at least one byte, so remaining() is always a safe cap. */
std::size_t
mapLimit(Decoder &dec)
{
    return dec.remaining();
}

} // namespace

// ---------------------------------------------------------------------------
// StatSet.
// ---------------------------------------------------------------------------

void
encodeStatSet(Encoder &enc, const StatSet &stats)
{
    const auto &counters = stats.counterMap();
    enc.u64(counters.size());
    for (const auto &[name, value] : counters) {
        enc.str(name);
        enc.u64(value);
    }
    const auto &scalars = stats.scalarMap();
    enc.u64(scalars.size());
    for (const auto &[name, value] : scalars) {
        enc.str(name);
        enc.f64(value);
    }
    const auto &dists = stats.distributionMap();
    enc.u64(dists.size());
    for (const auto &[name, d] : dists) {
        enc.str(name);
        enc.u64(d.count());
        enc.f64(d.min());
        enc.f64(d.max());
        enc.f64(d.sum());
    }
    const auto &hists = stats.histogramMap();
    enc.u64(hists.size());
    for (const auto &[name, h] : hists) {
        enc.str(name);
        enc.u64(h.count());
        enc.u64(h.sum());
        enc.u64(h.min());
        enc.u64(h.max());
        for (int i = 0; i < Histogram::kNumBuckets; ++i)
            enc.u64(h.bucketCount(i));
    }
}

StatSet
decodeStatSet(Decoder &dec)
{
    StatSet stats;
    std::size_t n = dec.length(mapLimit(dec));
    for (std::size_t i = 0; i < n && dec.ok(); ++i) {
        std::string name = dec.str();
        std::uint64_t value = dec.u64();
        if (dec.ok())
            stats.inc(name, value);
    }
    n = dec.length(mapLimit(dec));
    for (std::size_t i = 0; i < n && dec.ok(); ++i) {
        std::string name = dec.str();
        double value = dec.f64();
        if (dec.ok())
            stats.set(name, value);
    }
    n = dec.length(mapLimit(dec));
    for (std::size_t i = 0; i < n && dec.ok(); ++i) {
        std::string name = dec.str();
        std::uint64_t count = dec.u64();
        double min = dec.f64();
        double max = dec.f64();
        double sum = dec.f64();
        if (dec.ok())
            stats.distributionRef(name) =
                Distribution::fromRaw(count, min, max, sum);
    }
    n = dec.length(mapLimit(dec));
    for (std::size_t i = 0; i < n && dec.ok(); ++i) {
        std::string name = dec.str();
        std::uint64_t count = dec.u64();
        std::uint64_t sum = dec.u64();
        std::uint64_t min = dec.u64();
        std::uint64_t max = dec.u64();
        std::array<std::uint64_t, Histogram::kNumBuckets> buckets{};
        for (int b = 0; b < Histogram::kNumBuckets; ++b)
            buckets[static_cast<std::size_t>(b)] = dec.u64();
        if (dec.ok())
            stats.histogramRef(name) =
                Histogram::fromRaw(count, sum, min, max, buckets);
    }
    return stats;
}

// ---------------------------------------------------------------------------
// Sparse memory image.
// ---------------------------------------------------------------------------

namespace {

bool
pageIsZero(const std::uint8_t *page, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (page[i] != 0)
            return false;
    return true;
}

} // namespace

void
encodeMemoryImage(Encoder &enc, const pe::PageImage &image)
{
    auto length = [&](std::size_t k) {
        return pe::pageLength(image.size, image.pages[k]);
    };
    enc.u64(image.size);
    // Written pages that hold only zeroes are skipped. Count the rest
    // first, so the decoder knows how many page records follow
    // without a sentinel.
    std::uint64_t pages = 0;
    for (std::size_t k = 0; k < image.pages.size(); ++k)
        if (!pageIsZero(image.page(k), length(k)))
            ++pages;
    enc.u64(pages);
    for (std::size_t k = 0; k < image.pages.size(); ++k) {
        if (pageIsZero(image.page(k), length(k)))
            continue;
        enc.u64(std::uint64_t{image.pages[k]} * pe::kPageBytes);
        enc.blob(image.page(k), length(k));
    }
}

pe::PageImage
decodeMemoryImage(Decoder &dec, std::size_t expected_size)
{
    pe::PageImage image;
    std::uint64_t size = dec.u64();
    if (!dec.ok())
        return image;
    if (size != expected_size) {
        dec.fail(cat("memory image is ", size, " bytes, this machine has ",
                     expected_size));
        return image;
    }
    image.size = expected_size;
    std::size_t pages = dec.length(mapLimit(dec));
    image.pages.reserve(pages);
    for (std::size_t k = 0; k < pages && dec.ok(); ++k) {
        std::uint64_t off = dec.u64();
        std::uint64_t len = dec.u64();
        if (!dec.ok())
            break;
        if (off % pe::kPageBytes != 0 || off >= size) {
            dec.fail(cat("memory page offset ", off,
                         " is not a page of this memory"));
            break;
        }
        auto page = static_cast<std::uint32_t>(off / pe::kPageBytes);
        if (!image.pages.empty() && page <= image.pages.back()) {
            dec.fail(cat("memory page offset ", off,
                         " does not ascend"));
            break;
        }
        std::size_t want = pe::pageLength(expected_size, page);
        if (len != want) {
            dec.fail(cat("memory page at offset ", off, " is ", len,
                         " bytes, not ", want));
            break;
        }
        image.pages.push_back(page);
        image.bytes.resize(image.bytes.size() + pe::kPageBytes);
        dec.blobInto(image.bytes.data() + k * pe::kPageBytes, want);
    }
    return image;
}

} // namespace qm::persist

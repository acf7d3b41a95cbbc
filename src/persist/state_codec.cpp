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
    enc.u64(0);  // The removed distribution kind.
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
    // One list of named entries; the names must strictly ascend, as
    // StatSet's ordered maps write them (a repeat would be summed).
    auto list = [&](const char *kind, auto &&entry) {
        std::size_t n = dec.length(mapLimit(dec));
        std::string last;
        for (std::size_t i = 0; i < n && dec.ok(); ++i) {
            std::string name = dec.str();
            if (dec.ok() && i > 0 && name <= last)
                return dec.fail(cat(kind, " ", name, " does not ascend after ",
                                    last));
            entry(name);
            last = std::move(name);
        }
    };
    // A failed decode returns garbage the caller never reads.
    list("counter", [&](const std::string &n) { stats.inc(n, dec.u64()); });
    list("scalar", [&](const std::string &n) { stats.set(n, dec.f64()); });
    if (std::size_t n = dec.length(mapLimit(dec)); dec.ok() && n != 0)
        dec.fail(cat(n, " distributions listed; that statistic kind was "
                        "removed"));
    list("histogram", [&](const std::string &name) {
        std::uint64_t count = dec.u64();
        std::uint64_t sum = dec.u64();
        std::uint64_t min = dec.u64();
        std::uint64_t max = dec.u64();
        std::array<std::uint64_t, Histogram::kNumBuckets> buckets{};
        for (auto &bucket : buckets)
            bucket = dec.u64();
        auto hist = Histogram::fromRaw(count, sum, min, max, buckets);
        if (dec.ok() && !hist)
            dec.fail(cat("histogram ", name, " (count ", count, ", sum ", sum,
                         ", min ", min, ", max ", max,
                         ") does not match its buckets"));
        else if (dec.ok())
            stats.merge(name, *hist);
    });
    return stats;
}

void
refuseStrays(Decoder &dec, const StatSet &in, const StatSet &kept)
{
    auto check = [&](const char *kind, const auto &listed, const auto &mine) {
        for (const auto &entry : listed)
            if (dec.ok() && mine.count(entry.first) == 0)
                dec.fail(cat(kind, " ", entry.first, " is not one of this "
                             "section's metric catalog entries"));
    };
    check("counter", in.counterMap(), kept.counterMap());
    check("scalar", in.scalarMap(), kept.scalarMap());
    check("histogram", in.histogramMap(), kept.histogramMap());
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

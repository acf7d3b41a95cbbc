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
// Trace stream.
// ---------------------------------------------------------------------------

void
encodeTraceState(Encoder &enc, const TraceState &state)
{
    enc.u64(state.dropped);
    for (int i = 0; i < trace::kEventKinds; ++i)
        enc.u64(state.kindCounts[static_cast<std::size_t>(i)]);
    enc.u64(state.events.size());
    for (const trace::Event &e : state.events) {
        enc.u8(static_cast<std::uint8_t>(e.kind));
        enc.u64(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(e.pe)));
        enc.u32(e.ctx);
        enc.i64(e.at);
        enc.i64(e.end);
        enc.u64(e.a);
        enc.u64(e.b);
    }
}

TraceState
decodeTraceState(Decoder &dec)
{
    TraceState state;
    state.dropped = dec.u64();
    for (int i = 0; i < trace::kEventKinds; ++i)
        state.kindCounts[static_cast<std::size_t>(i)] =
            static_cast<std::size_t>(dec.u64());
    std::size_t n = dec.length(mapLimit(dec));
    state.events.reserve(n);
    for (std::size_t i = 0; i < n && dec.ok(); ++i) {
        trace::Event e;
        std::uint8_t kind = dec.u8();
        if (kind >= trace::kEventKinds) {
            dec.fail(cat("trace event kind ", int(kind), " out of range"));
            break;
        }
        e.kind = static_cast<trace::EventKind>(kind);
        std::int64_t pe = static_cast<std::int64_t>(dec.u64());
        if (pe < -1 || pe > 0x7FFF) {
            dec.fail(cat("trace event pe ", pe, " out of range"));
            break;
        }
        e.pe = static_cast<std::int16_t>(pe);
        e.ctx = dec.u32();
        e.at = dec.i64();
        e.end = dec.i64();
        e.a = dec.u64();
        e.b = dec.u64();
        state.events.push_back(e);
    }
    return state;
}

// ---------------------------------------------------------------------------
// Message cache.
// ---------------------------------------------------------------------------

void
encodeCacheSnapshot(Encoder &enc, const msg::MessageCache::Snapshot &snap)
{
    enc.u64(snap.entries.size());
    for (const auto &[channel, entry] : snap.entries) {
        enc.u32(channel);
        enc.u64(entry.nextSeq);
        enc.u64(entry.values.size());
        for (const msg::Token &t : entry.values) {
            enc.u32(t.value);
            enc.u8(t.sum);
            enc.u64(t.seq);
            enc.u32(t.pristine);
            enc.i64(t.sentAt);
        }
        enc.u64(entry.sendWaiters.size());
        for (msg::CtxId ctx : entry.sendWaiters)
            enc.u32(ctx);
        enc.u64(entry.recvWaiters.size());
        for (msg::CtxId ctx : entry.recvWaiters)
            enc.u32(ctx);
    }
    encodeStatSet(enc, snap.stats);
}

msg::MessageCache::Snapshot
decodeCacheSnapshot(Decoder &dec)
{
    msg::MessageCache::Snapshot snap;
    std::size_t entries = dec.length(mapLimit(dec));
    for (std::size_t i = 0; i < entries && dec.ok(); ++i) {
        isa::Word channel = dec.u32();
        msg::ChannelEntry entry;
        entry.nextSeq = dec.u64();
        std::size_t values = dec.length(mapLimit(dec));
        for (std::size_t v = 0; v < values && dec.ok(); ++v) {
            msg::Token t;
            t.value = dec.u32();
            t.sum = dec.u8();
            t.seq = dec.u64();
            t.pristine = dec.u32();
            t.sentAt = dec.i64();
            entry.values.push_back(t);
        }
        std::size_t sends = dec.length(mapLimit(dec));
        for (std::size_t s = 0; s < sends && dec.ok(); ++s)
            entry.sendWaiters.push_back(dec.u32());
        std::size_t recvs = dec.length(mapLimit(dec));
        for (std::size_t r = 0; r < recvs && dec.ok(); ++r)
            entry.recvWaiters.push_back(dec.u32());
        if (dec.ok())
            snap.entries.emplace(channel, std::move(entry));
    }
    snap.stats = decodeStatSet(dec);
    return snap;
}

// ---------------------------------------------------------------------------
// Ring bus.
// ---------------------------------------------------------------------------

namespace {

void
encodeCycleVector(Encoder &enc, const std::vector<mp::Cycle> &v)
{
    enc.u64(v.size());
    for (mp::Cycle c : v)
        enc.i64(c);
}

std::vector<mp::Cycle>
decodeCycleVector(Decoder &dec)
{
    std::vector<mp::Cycle> v;
    std::size_t n = dec.length(mapLimit(dec));
    v.reserve(n);
    for (std::size_t i = 0; i < n && dec.ok(); ++i)
        v.push_back(dec.i64());
    return v;
}

} // namespace

void
encodeBusSnapshot(Encoder &enc, const mp::RingBus::Snapshot &snap)
{
    encodeCycleVector(enc, snap.partitionFree);
    encodeCycleVector(enc, snap.bridgeFree);
    encodeCycleVector(enc, snap.backboneFree);
    encodeStatSet(enc, snap.stats);
}

mp::RingBus::Snapshot
decodeBusSnapshot(Decoder &dec)
{
    mp::RingBus::Snapshot snap;
    snap.partitionFree = decodeCycleVector(dec);
    snap.bridgeFree = decodeCycleVector(dec);
    snap.backboneFree = decodeCycleVector(dec);
    snap.stats = decodeStatSet(dec);
    return snap;
}

// ---------------------------------------------------------------------------
// Kernel contexts.
// ---------------------------------------------------------------------------

void
encodeHostOp(Encoder &enc, const mp::HostOp &op)
{
    enc.u8(static_cast<std::uint8_t>(op.kind));
    enc.u32(op.arg);
    enc.u32(op.result);
    enc.i64(op.kernelCycles);
    enc.u8(op.hasResult ? 1 : 0);
}

mp::HostOp
decodeHostOp(Decoder &dec)
{
    mp::HostOp op;
    std::uint8_t kind = dec.u8();
    if (kind > static_cast<std::uint8_t>(mp::HostOp::Kind::Trap)) {
        dec.fail(cat("host-op kind ", int(kind), " out of range"));
        return op;
    }
    op.kind = static_cast<mp::HostOp::Kind>(kind);
    op.arg = dec.u32();
    op.result = dec.u32();
    op.kernelCycles = static_cast<long>(dec.i64());
    op.hasResult = dec.u8() != 0;
    return op;
}

void
encodeContext(Encoder &enc, const mp::Context &ctx)
{
    enc.u32(ctx.id);
    enc.u32(ctx.regs.pc);
    enc.u32(ctx.regs.qp);
    enc.u32(ctx.regs.pom);
    enc.u32(ctx.regs.nar);
    enc.u32(ctx.regs.lastResult);
    for (isa::Word g : ctx.regs.generals)
        enc.u32(g);
    enc.u8(static_cast<std::uint8_t>(ctx.status));
    enc.u64(static_cast<std::uint64_t>(ctx.homePe));
    enc.u32(ctx.inChan);
    enc.u32(ctx.outChan);
    enc.u32(ctx.queuePage);
    enc.i64(ctx.readyAt);
    enc.u64(ctx.pendingReplay.size());
    for (const mp::HostOp &op : ctx.pendingReplay)
        encodeHostOp(enc, op);
}

mp::Context
decodeContext(Decoder &dec)
{
    mp::Context ctx;
    ctx.id = dec.u32();
    ctx.regs.pc = dec.u32();
    ctx.regs.qp = dec.u32();
    ctx.regs.pom = dec.u32();
    ctx.regs.nar = dec.u32();
    ctx.regs.lastResult = dec.u32();
    for (isa::Word &g : ctx.regs.generals)
        g = dec.u32();
    std::uint8_t status = dec.u8();
    if (status > static_cast<std::uint8_t>(mp::CtxStatus::Done)) {
        dec.fail(cat("context status ", int(status), " out of range"));
        return ctx;
    }
    ctx.status = static_cast<mp::CtxStatus>(status);
    std::uint64_t home = dec.u64();
    if (home > 0xFFFF) {
        dec.fail(cat("context homePe ", home, " out of range"));
        return ctx;
    }
    ctx.homePe = static_cast<int>(home);
    ctx.inChan = dec.u32();
    ctx.outChan = dec.u32();
    ctx.queuePage = dec.u32();
    ctx.readyAt = dec.i64();
    std::size_t replay = dec.length(mapLimit(dec));
    ctx.pendingReplay.reserve(replay);
    for (std::size_t i = 0; i < replay && dec.ok(); ++i)
        ctx.pendingReplay.push_back(decodeHostOp(dec));
    return ctx;
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

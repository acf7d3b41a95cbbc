/**
 * @file
 * Binary codecs for the simulator state that travels inside a durable
 * checkpoint: the statistics registry, the trace event stream, the
 * message-cache and ring-bus snapshots, and kernel context records.
 *
 * Each record's wire layout is listed once, in a `fields(ar, record)`
 * template that encodes through an Encoder (record const) and decodes
 * through a Decoder (record written in place). StatSet and the MEMS
 * memory image keep encode/decode pairs: their read side rebuilds and
 * validates differently from how the write side walks them. A
 * component's StatBlock travels as the StatSet it folds into.
 *
 * Decode never throws and never trusts the input: every length is
 * bounds-checked against the remaining bytes and every enum/index is
 * range-checked, flipping the Decoder into its sticky failed state on
 * the first problem. The section CRC catches random corruption; these
 * checks catch *structurally* hostile bytes behind a valid CRC, so a
 * bad checkpoint is always refused, never undefined behavior.
 */
#pragma once

#include <concepts>
#include <string>
#include <type_traits>
#include <vector>

#include "msg/message_cache.hpp"
#include "mp/ring_bus.hpp"
#include "mp/system.hpp"
#include "pe/memory.hpp"
#include "persist/io.hpp"
#include "support/metric_catalog.hpp"
#include "trace/trace.hpp"

namespace qm::persist {

/**
 * A StatSet: counters, scalars, the always-empty list of a removed kind
 * and histograms, each by ascending name. Decoding refuses a list that
 * does not strictly ascend, a non-empty removed list and a histogram
 * Histogram::fromRaw refuses.
 */
void encodeStatSet(Encoder &enc, const StatSet &stats);
StatSet decodeStatSet(Decoder &dec);

/** A StatSet as one field of a fields() record (journal rows). */
inline void
statSet(Encoder &enc, const StatSet &stats)
{
    encodeStatSet(enc, stats);
}

inline void
statSet(Decoder &dec, StatSet &stats)
{
    stats = decodeStatSet(dec);
}

/** The kernel's view of each PE, which STAT carries beside its block. */
using PeViews = std::vector<StatBlock<metric::Owner::PeView>>;

/** @p block's entries, and @p views' under "pe<N>.", as one StatSet. */
template <metric::Owner O>
StatSet
sectionStats(const StatBlock<O> &block, const PeViews *views)
{
    StatSet stats = block.folded();
    for (std::size_t pe = 0; views && pe < views->size(); ++pe)
        (*views)[pe].foldInto(stats, metric::pePrefix(static_cast<int>(pe)));
    return stats;
}

/** Fail @p dec on the first entry of @p in that @p kept lacks. */
void refuseStrays(Decoder &dec, const StatSet &in, const StatSet &kept);

/**
 * A component's statistics as one field of a fields() record: the
 * StatSet its block (and the kernel's @p views) fold into. Decoding
 * unfolds it by catalog name and refuses any entry no block took: a
 * name outside the catalog, of another kind, owned by another section,
 * or naming a PE the machine lacks (@p views holds one block per PE).
 */
template <metric::Owner O>
void
statSet(Encoder &enc, const StatBlock<O> &block,
        const PeViews *views = nullptr)
{
    encodeStatSet(enc, sectionStats(block, views));
}

template <metric::Owner O>
void
statSet(Decoder &dec, StatBlock<O> &block, PeViews *views = nullptr)
{
    StatSet in = decodeStatSet(dec);
    block.unfoldFrom(in);
    for (std::size_t pe = 0; views && pe < views->size(); ++pe)
        (*views)[pe].unfoldFrom(in, metric::pePrefix(static_cast<int>(pe)));
    refuseStrays(dec, in, sectionStats(block, views));
}

/** @p T is the record type @p R, const when encoding. */
template <class T, class R>
concept RecordOf = std::same_as<std::remove_const_t<T>, R>;

/** The full recorder content: events + dropped count + kind counts. */
struct TraceState
{
    std::vector<trace::Event> events;
    std::uint64_t dropped = 0;
    std::array<std::size_t, trace::kEventKinds> kindCounts{};
};

template <class Ar, RecordOf<trace::Event> T>
void
fields(Ar &ar, T &e)
{
    ar.u8(e.kind, static_cast<trace::EventKind>(trace::kEventKinds - 1),
          "trace event kind");
    ar.i64(e.pe, -1, 0x7FFF, "trace event pe");
    ar.u32(e.ctx);
    ar.i64(e.at);
    ar.i64(e.end);
    ar.u64(e.a);
    ar.u64(e.b);
}

template <class Ar, RecordOf<TraceState> T>
void
fields(Ar &ar, T &state)
{
    ar.u64(state.dropped);
    for (auto &count : state.kindCounts)
        ar.u64(count);
    ar.seq(state.events, [&](auto &e) { fields(ar, e); });
}

/**
 * CACH: every channel ever touched, by ascending id, each with its
 * sequence counter, its tokens oldest first and its parked senders and
 * receivers. An entry listing more tokens than its ring holds is
 * refused.
 */
template <class Ar, RecordOf<msg::MessageCache::Snapshot> T>
void
fields(Ar &ar, T &snap)
{
    ar.map(snap.entries, [&](auto &channel, auto &entry) {
        ar.u32(channel);
        ar.u64(entry.nextSeq);
        auto tokens = [&] {
            return "channel " + std::to_string(channel) + " tokens";
        };
        ar.seq(entry.values, entry.values.max_size(), tokens, [&](auto &t) {
            ar.u32(t.value);
            ar.u8(t.sum);
            ar.u64(t.seq);
            ar.u32(t.pristine);
            ar.i64(t.sentAt);
        });
        ar.seq(entry.sendWaiters, [&](auto &ctx) { ar.u32(ctx); });
        ar.seq(entry.recvWaiters, [&](auto &ctx) { ar.u32(ctx); });
    });
    statSet(ar, snap.stats_);
}

template <class Ar, RecordOf<mp::RingBus::Snapshot> T>
void
fields(Ar &ar, T &snap)
{
    auto cycle = [&](auto &c) { ar.i64(c); };
    ar.seq(snap.partitionFree, cycle);
    ar.seq(snap.bridgeFree, cycle);
    ar.seq(snap.backboneFree, cycle);
    statSet(ar, snap.stats_);
}

template <class Ar, RecordOf<mp::Context> T>
void
fields(Ar &ar, T &ctx)
{
    // A retired slot, from a span journal a fail-stopped PE handed to
    // the context: the count of its host ops, always 0. A record
    // holding anything else is refused.
    std::uint64_t host_ops = 0;

    ar.u32(ctx.id);
    ar.u32(ctx.regs.pc);
    ar.u32(ctx.regs.qp);
    ar.u32(ctx.regs.pom);
    ar.u32(ctx.regs.nar);
    ar.u32(ctx.regs.lastResult);
    for (auto &g : ctx.regs.generals)
        ar.u32(g);
    ar.u8(ctx.status, mp::CtxStatus::Done, "context status");
    ar.i64(ctx.homePe, 0, 0xFFFF, "context homePe");
    ar.u32(ctx.inChan);
    ar.u32(ctx.outChan);
    ar.u32(ctx.queuePage);
    ar.i64(ctx.readyAt);
    ar.u64(host_ops, 0, 0, "retired host-op count slot");
}

/**
 * MEMS: a memory image as its non-zero pages, ascending. Layout: size
 * u64, page count u64, then per page its byte offset u64 and its bytes
 * as a blob. Every page is pe::kPageBytes long except a last page past
 * a size that is not a multiple of it. Decode fails unless the size is
 * @p expected_size and every record is one page-aligned, in-range page
 * at a strictly higher offset than the one before.
 */
void encodeMemoryImage(Encoder &enc, const pe::PageImage &image);
pe::PageImage decodeMemoryImage(Decoder &dec, std::size_t expected_size);

} // namespace qm::persist

/**
 * @file
 * Binary codecs for the simulator state that travels inside a durable
 * checkpoint: the statistics registry, the trace event stream, the
 * message-cache and ring-bus snapshots, and kernel context records.
 *
 * Decode never throws and never trusts the input: every length is
 * bounds-checked against the remaining bytes and every enum/index is
 * range-checked, flipping the Decoder into its sticky failed state on
 * the first problem. The section CRC catches random corruption; these
 * checks catch *structurally* hostile bytes behind a valid CRC, so a
 * bad checkpoint is always refused, never undefined behavior.
 */
#pragma once

#include <vector>

#include "msg/message_cache.hpp"
#include "mp/ring_bus.hpp"
#include "mp/system.hpp"
#include "pe/memory.hpp"
#include "persist/io.hpp"
#include "support/stats.hpp"
#include "trace/trace.hpp"

namespace qm::persist {

void encodeStatSet(Encoder &enc, const StatSet &stats);
StatSet decodeStatSet(Decoder &dec);

/** The full recorder content: events + dropped count + kind counts. */
struct TraceState
{
    std::vector<trace::Event> events;
    std::uint64_t dropped = 0;
    std::array<std::size_t, trace::kEventKinds> kindCounts{};
};

void encodeTraceState(Encoder &enc, const TraceState &state);
TraceState decodeTraceState(Decoder &dec);

void encodeCacheSnapshot(Encoder &enc, const msg::MessageCache::Snapshot &snap);
msg::MessageCache::Snapshot decodeCacheSnapshot(Decoder &dec);

void encodeBusSnapshot(Encoder &enc, const mp::RingBus::Snapshot &snap);
mp::RingBus::Snapshot decodeBusSnapshot(Decoder &dec);

void encodeContext(Encoder &enc, const mp::Context &ctx);
mp::Context decodeContext(Decoder &dec);

void encodeHostOp(Encoder &enc, const mp::HostOp &op);
mp::HostOp decodeHostOp(Decoder &dec);

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

#include "msg/message_cache.hpp"

#include "support/diagnostics.hpp"

namespace qm::msg {

std::string
toString(ChannelState state)
{
    switch (state) {
      case ChannelState::Idle: return "Idle";
      case ChannelState::Full: return "Full";
      case ChannelState::RecvWait: return "RecvWait";
    }
    panic("unreachable channel state");
}

std::uint8_t
tokenChecksum(Word value)
{
    Word folded = value ^ (value >> 16);
    folded ^= folded >> 8;
    return static_cast<std::uint8_t>(folded & 0xFF);
}

MessageCache::MessageCache(int capacity) : capacity_(capacity)
{
    fatalIf(capacity < 1 || capacity > kChannelDepth,
            "message cache capacity ", capacity, " is not in [1, ",
            kChannelDepth, "]");
}

ChannelOp
MessageCache::send(Word channel, CtxId ctx, Word value,
                   trace::Cycle now)
{
    ChannelEntry &entry = entries[channel];
    ChannelOp op;
    stats_.inc(metric::MsgSendRequests);
    if (entry.values.size() >= static_cast<std::size_t>(capacity_)) {
        entry.sendWaiters.push_back(ctx);
        op.blocked = true;
        return op;
    }
    std::uint64_t seq = entry.nextSeq++;
    entry.values.push_back({value, tokenChecksum(value), seq, value, now});
    stats_.record(metric::MsgFifoDepth,
                  static_cast<std::uint64_t>(entry.values.size()));
    if (faults_ && faults_->fire(fault::kCacheCorrupt)) {
        // Flip one bit of the slot just written, keeping the send-time
        // checksum (and the sender's pristine retransmit copy): the
        // receive side detects the mismatch.
        entry.values.back().value =
            faults_->corruptWord(entry.values.back().value);
        stats_.inc(metric::FaultCacheCorrupt);
        if (tracer_)
            tracer_->faultInject(now, -1, fault::kCacheCorrupt,
                                 channel);
    }
    if (faults_ && recoveryOn() && faults_->fire(fault::kBusDup)) {
        // A duplicated deposit arrives carrying the same sequence
        // number; the entry already holds (or has consumed past) that
        // seq, so receiver-side dedup rejects it outright. Idempotent
        // by protocol, not by luck.
        stats_.inc(metric::FaultCacheDup);
        stats_.inc(metric::FaultDupDetected);
        stats_.inc(metric::FaultDupRecovered);
        if (tracer_) {
            tracer_->faultInject(now, -1, fault::kBusDup, channel);
            tracer_->faultRecover(now, -1, fault::kBusDup, seq);
        }
    }
    op.completed = true;
    if (!entry.recvWaiters.empty())
        op.wake = entry.recvWaiters.pop_front();
    return op;
}

ChannelOp
MessageCache::recv(Word channel, CtxId ctx, trace::Cycle now)
{
    ChannelEntry &entry = entries[channel];
    ChannelOp op;
    stats_.inc(metric::MsgRecvRequests);
    if (entry.values.empty()) {
        entry.recvWaiters.push_back(ctx);
        op.blocked = true;
        return op;
    }
    Token token = entry.values.front();
    entry.values.pop_front();
    op.completed = true;
    op.value = token.value;
    if (faults_ && tokenChecksum(token.value) != token.sum) {
        op.corrupted = true;
        stats_.inc(metric::FaultChecksumMismatch);
        stats_.inc(metric::FaultCorruptDetected);
        if (tracer_)
            tracer_->faultRecover(now, -1, fault::kCacheCorrupt,
                                  channel);
        if (recoveryOn()) {
            // NACK + deterministic resend: the sender's pristine copy
            // replaces the corrupted slot, and the round trip costs
            // bounded protocol cycles instead of the whole run.
            op.value = token.pristine;
            op.healed = true;
            op.penalty = kNackPenaltyCycles;
            stats_.inc(metric::FaultCorruptRecovered);
            stats_.inc(metric::FaultNackPenaltyCycles,
                       static_cast<std::uint64_t>(op.penalty));
            stats_.record(metric::FaultNackPenalty,
                          static_cast<std::uint64_t>(op.penalty));
        }
    }
    stats_.inc(metric::MsgRendezvous);
    // Send-to-rendezvous latency. The receiver's clock can lag the
    // sender's (PE clocks are only loosely synchronized), so clamp at
    // zero rather than recording a wrapped negative.
    stats_.record(metric::MsgLatency,
                  now >= token.sentAt
                      ? static_cast<std::uint64_t>(now - token.sentAt)
                      : 0);
    if (tracer_)
        tracer_->rendezvous(now, channel, ctx, *op.value);
    if (!entry.sendWaiters.empty())
        op.wake = entry.sendWaiters.pop_front();
    return op;
}

ChannelState
MessageCache::state(Word channel) const
{
    auto it = entries.find(channel);
    if (it == entries.end())
        return ChannelState::Idle;
    if (!it->second.values.empty())
        return ChannelState::Full;
    if (!it->second.recvWaiters.empty())
        return ChannelState::RecvWait;
    return ChannelState::Idle;
}

const ChannelEntry *
MessageCache::entry(Word channel) const
{
    auto it = entries.find(channel);
    return it == entries.end() ? nullptr : &it->second;
}

std::size_t
MessageCache::pendingChannels() const
{
    std::size_t count = 0;
    for (const auto &[id, entry] : entries)
        if (!entry.values.empty() || !entry.recvWaiters.empty())
            ++count;
    return count;
}

} // namespace qm::msg

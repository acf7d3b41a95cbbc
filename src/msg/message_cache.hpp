/**
 * @file
 * Message-cache channel state machine (thesis section 5.5, Tables
 * 5.3/5.4, Figures 5.14-5.17, and the accessible-state analysis of
 * Table 6.7 / Fig 6.13).
 *
 * The thesis implements channels with dedicated message-processor and
 * message-cache hardware; operand/token queueing is "an integral part
 * of data-flow machines" (section 2.7), and every value sent over a
 * splice channel is a distinct arc of the data-flow graph with its own
 * token-carrying capacity of one. The cache entry therefore holds a
 * small FIFO of in-flight values: a send deposits into the FIFO and the
 * sending context continues, blocking only when the FIFO is full; a
 * receive takes the oldest value, or parks until one arrives.
 *
 * Entry states (Fig 5.16/5.17 protocol):
 *   Idle     - no values, no parked receivers.
 *   Full     - one or more values queued, awaiting receivers.
 *   RecvWait - receivers parked, awaiting values.
 *
 * Requests that find the entry unable to serve them park in per-entry
 * waiter queues and are woken to retry, in arrival order, whenever the
 * entry can make progress - so no wakeup is ever lost.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "isa/fields.hpp"
#include "support/metric_catalog.hpp"
#include "trace/trace.hpp"

namespace qm::msg {

using isa::Word;

/** Protocol state of one channel entry. */
enum class ChannelState
{
    Idle,
    Full,
    RecvWait,
};

std::string toString(ChannelState state);

/** Opaque context identifier (kernel context ids). */
using CtxId = std::uint32_t;
constexpr CtxId kNoCtx = 0xFFFFFFFFu;

/** Tokens a channel entry of mp::System's cache holds before senders park. */
constexpr int kChannelDepth = 8;

/**
 * Cycles charged for a NACK + pristine-copy resend when recovery heals
 * a corrupted token. mp::configFingerprint records it.
 */
constexpr fault::Cycle kNackPenaltyCycles = 16;

/** Outcome of presenting a send or receive request to the cache. */
struct ChannelOp
{
    bool completed = false;       ///< Request retired this attempt.
    bool blocked = false;         ///< Requester must park and retry.
    /** Checksum mismatch on the received token (fault detection). */
    bool corrupted = false;
    /** Mismatch healed from the pristine copy (recovery enabled). */
    bool healed = false;
    /** Protocol cycles to charge (NACK + pristine-copy resend). */
    fault::Cycle penalty = 0;
    std::optional<Word> value;    ///< Received value (receive only).
    /**
     * The parked peer to make ready, or kNoCtx. A send wakes at most
     * one receiver and a receive at most one sender.
     */
    CtxId wake = kNoCtx;
};

/**
 * One in-flight token: the value, the checksum stamped at send time
 * (so cache-slot corruption is detectable at receive time), the
 * channel sequence number (so a duplicated delivery is rejectable),
 * the sender's pristine retransmit copy (so a detected corruption is
 * healable by a deterministic resend), and the send-time cycle stamp
 * (so the receive side can charge the full send-to-rendezvous latency
 * to the `msg.latency` histogram).
 */
struct Token
{
    Word value = 0;
    std::uint8_t sum = 0;
    std::uint64_t seq = 0;
    Word pristine = 0;
    trace::Cycle sentAt = 0;
};

/** XOR-folded byte checksum; detects any single-bit flip. */
std::uint8_t tokenChecksum(Word value);

/**
 * A channel's in-flight tokens, oldest first, in a ring of
 * kChannelDepth slots stored inside the entry. Callers never push
 * onto a full ring: the cache parks the sender first, and the CACH
 * decoder refuses an entry that lists more tokens than fit.
 */
class TokenRing
{
  public:
    using value_type = Token;

    static constexpr std::size_t max_size()
    {
        return static_cast<std::size_t>(kChannelDepth);
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    const Token &front() const { return slots_[head_]; }
    Token &back() { return slots_[slot(count_ - 1u)]; }
    void push_back(const Token &token) { slots_[slot(count_++)] = token; }
    void pop_front()
    {
        head_ = static_cast<std::uint8_t>(slot(1));
        --count_;
    }

    /** Oldest-first iteration. */
    class const_iterator
    {
      public:
        const_iterator(const TokenRing *ring, std::size_t at)
            : ring_(ring), at_(at)
        {
        }
        const Token &operator*() const
        {
            return ring_->slots_[ring_->slot(at_)];
        }
        const_iterator &operator++()
        {
            ++at_;
            return *this;
        }
        bool operator==(const const_iterator &) const = default;

      private:
        const TokenRing *ring_;
        std::size_t at_;
    };
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count_}; }

  private:
    /** Slot of the token @p i places after the oldest. */
    std::size_t slot(std::size_t i) const
    {
        return (head_ + i) % max_size();
    }

    std::array<Token, kChannelDepth> slots_{};
    std::uint8_t head_ = 0;
    std::uint8_t count_ = 0;
};

/**
 * Parked contexts, first come first served: a vector read from a head
 * index. It allocates nothing until a context parks, and keeps its
 * buffer when it drains, so a channel's steady park-and-wake traffic
 * allocates nothing either.
 */
class WaiterQueue
{
  public:
    using value_type = CtxId;
    using const_iterator = std::vector<CtxId>::const_iterator;

    bool empty() const { return head_ == ids_.size(); }
    std::size_t size() const { return ids_.size() - head_; }

    void push_back(CtxId id)
    {
        // Reclaim the woken prefix before the buffer would grow.
        if (head_ > 0 && ids_.size() == ids_.capacity()) {
            ids_.erase(ids_.begin(), begin());
            head_ = 0;
        }
        ids_.push_back(id);
    }

    /** Remove and return the longest-parked context. */
    CtxId pop_front()
    {
        CtxId id = ids_[head_];
        if (++head_ == ids_.size()) {
            ids_.clear();
            head_ = 0;
        }
        return id;
    }

    const_iterator begin() const
    {
        return ids_.begin() + static_cast<std::ptrdiff_t>(head_);
    }
    const_iterator end() const { return ids_.end(); }

  private:
    std::vector<CtxId> ids_;
    std::size_t head_ = 0;
};

/** One channel's protocol entry (Fig 5.15 format). */
struct ChannelEntry
{
    TokenRing values;           ///< In-flight tokens, oldest first.
    WaiterQueue sendWaiters;    ///< Parked senders (FIFO full).
    WaiterQueue recvWaiters;    ///< Parked receivers (FIFO empty).
    std::uint64_t nextSeq = 0;  ///< Send-side sequence counter.
};

/**
 * The cache state a checkpoint captures, copied whole. Entries are
 * hashed by channel id; a checkpoint lists them by ascending id.
 */
struct MessageCacheState
{
    std::unordered_map<Word, ChannelEntry> entries;
    /** The cache's statistics, recorded by catalog ID. */
    StatBlock<metric::Owner::Cache> stats_;
};

/**
 * The message cache: channel-id -> protocol entry, with the transition
 * functions of Tables 5.3/5.4. One instance is shared by the kernel in
 * this reproduction (the thesis distributes entries across per-PE
 * caches; the protocol states and transitions are identical, and the
 * per-hop transfer costs are charged by the ring-bus model instead).
 */
class MessageCache : private MessageCacheState
{
  public:
    /**
     * @p capacity = tokens one entry holds before senders park, in
     * [1, kChannelDepth] (a FatalError otherwise).
     */
    explicit MessageCache(int capacity = kChannelDepth);

    /**
     * Present a send request from context @p ctx: deposit into the
     * FIFO (completed; wakes one parked receiver), or park when the
     * FIFO is at capacity. @p now stamps trace events.
     */
    ChannelOp send(Word channel, CtxId ctx, Word value,
                   trace::Cycle now = 0);

    /**
     * Present a receive request from context @p ctx: take the oldest
     * value (completed; wakes one parked sender), or park when no
     * value is available. @p now stamps trace events.
     */
    ChannelOp recv(Word channel, CtxId ctx, trace::Cycle now = 0);

    /** Current state of @p channel (Idle if never touched). */
    ChannelState state(Word channel) const;

    /** Entry inspection for tests/diagnostics. */
    const ChannelEntry *entry(Word channel) const;

    /** Number of channels not currently Idle. */
    std::size_t pendingChannels() const;

    int capacity() const { return capacity_; }

    const StatBlock<metric::Owner::Cache> &statBlock() const
    {
        return stats_;
    }


    /** Attach the system's event recorder (may be null). */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

    /**
     * Attach the system's fault injector (may be null). With cache
     * corruption enabled, a send may flip one bit of the token it just
     * deposited; the mismatch against the send-time checksum is
     * reported by the receiving recv() via ChannelOp::corrupted.
     */
    void setFaultInjector(fault::FaultInjector *faults)
    {
        faults_ = faults;
    }

    /**
     * Attach the system's recovery plan (null or disabled = PR 3
     * detect-and-fail behavior). With recovery on, a duplicated
     * deposit is rejected by its sequence number and a receive-side
     * checksum mismatch heals from the token's pristine copy, charging
     * ChannelOp::penalty protocol cycles instead of failing the run.
     */
    void setRecovery(const fault::RecoveryPlan *recovery)
    {
        recovery_ = recovery;
    }

    /** Deep-copyable protocol state for System checkpoints. */
    using Snapshot = MessageCacheState;
    Snapshot snapshot() const { return *this; }
    void restore(const Snapshot &snap) { MessageCacheState::operator=(snap); }

  private:
    bool recoveryOn() const
    {
        return recovery_ != nullptr && recovery_->enabled;
    }

    int capacity_;
    trace::Tracer *tracer_ = nullptr;
    fault::FaultInjector *faults_ = nullptr;
    const fault::RecoveryPlan *recovery_ = nullptr;
};

} // namespace qm::msg

/**
 * @file
 * Exhaustive tests for the message-cache channel state machine
 * (thesis Tables 5.3/5.4, Figures 5.14-5.17, Table 6.7).
 *
 * Each cache entry carries a small FIFO of in-flight tokens (every
 * value of a splice sequence is its own capacity-one data-flow arc):
 * sends deposit and continue, blocking only at capacity; receives take
 * the oldest value or park until one arrives. The storage behind the
 * protocol is tested too: the inline token ring wraps, parked waiters
 * keep arrival order past the ring's depth, and steady traffic makes
 * no allocation.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "msg/message_cache.hpp"
#include "support/diagnostics.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

/** operator new calls so far in this process (see the replacements). */
std::uint64_t
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

} // namespace

// Counting replacements of the global allocation functions, so a test
// can assert that a code path allocates nothing. Every form allocates
// with malloc and frees with free, so sanitizers see matched pairs.
// The deletes stay out of line: inlined into a container's destructor,
// GCC would flag the free() of memory operator new returned.
void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace qm;
using namespace qm::msg;

constexpr CtxId kSender = 1;
constexpr CtxId kReceiver = 2;
constexpr CtxId kThird = 3;

TEST(MessageCache, SendFirstDepositsAndCompletes)
{
    MessageCache cache;
    EXPECT_EQ(cache.state(5), ChannelState::Idle);

    ChannelOp s1 = cache.send(5, kSender, 42);
    EXPECT_TRUE(s1.completed);   // the cache entry carries the value
    EXPECT_FALSE(s1.blocked);
    EXPECT_EQ(cache.state(5), ChannelState::Full);

    ChannelOp r1 = cache.recv(5, kReceiver);
    EXPECT_TRUE(r1.completed);
    ASSERT_TRUE(r1.value.has_value());
    EXPECT_EQ(*r1.value, 42u);
    EXPECT_EQ(r1.wake, kNoCtx);  // the sender never parked
    EXPECT_EQ(cache.state(5), ChannelState::Idle);
}

TEST(MessageCache, RecvFirstParksThenWakes)
{
    MessageCache cache;
    ChannelOp r1 = cache.recv(9, kReceiver);
    EXPECT_TRUE(r1.blocked);
    EXPECT_EQ(cache.state(9), ChannelState::RecvWait);

    ChannelOp s1 = cache.send(9, kSender, 77);
    EXPECT_TRUE(s1.completed);
    EXPECT_EQ(s1.wake, kReceiver);
    EXPECT_EQ(cache.state(9), ChannelState::Full);

    // The woken receiver retries and takes the value.
    ChannelOp r2 = cache.recv(9, kReceiver);
    EXPECT_TRUE(r2.completed);
    EXPECT_EQ(*r2.value, 77u);
    EXPECT_EQ(cache.state(9), ChannelState::Idle);
}

TEST(MessageCache, ValuesDrainInFifoOrder)
{
    MessageCache cache;
    for (Word v = 1; v <= 5; ++v)
        EXPECT_TRUE(cache.send(7, kSender, v).completed);
    for (Word v = 1; v <= 5; ++v) {
        ChannelOp r = cache.recv(7, kReceiver);
        ASSERT_TRUE(r.completed);
        EXPECT_EQ(*r.value, v);
    }
    EXPECT_EQ(cache.state(7), ChannelState::Idle);
}

TEST(MessageCache, SendBlocksAtCapacity)
{
    MessageCache cache(2);
    EXPECT_TRUE(cache.send(5, kSender, 1).completed);
    EXPECT_TRUE(cache.send(5, kSender, 2).completed);
    ChannelOp s3 = cache.send(5, kThird, 3);
    EXPECT_TRUE(s3.blocked);

    // Draining one value wakes the parked sender to retry.
    ChannelOp r = cache.recv(5, kReceiver);
    EXPECT_EQ(*r.value, 1u);
    EXPECT_EQ(r.wake, kThird);
    EXPECT_TRUE(cache.send(5, kThird, 3).completed);
}

TEST(MessageCache, CapacityMustBePositive)
{
    EXPECT_THROW(MessageCache cache(0), FatalError);
}

TEST(MessageCache, CapacityMustFitTheRing)
{
    EXPECT_THROW(MessageCache cache(kChannelDepth + 1), FatalError);
    EXPECT_EQ(MessageCache(kChannelDepth).capacity(), kChannelDepth);
}

TEST(MessageCache, RingWrapsOldestFirst)
{
    // Send 8, take 5, send 5: the last five land in the slots the
    // first five left, and the entry still hands values out oldest
    // first. A ninth token in flight parks its sender.
    MessageCache cache;
    Word next = 1;
    for (int i = 0; i < kChannelDepth; ++i)
        ASSERT_TRUE(cache.send(3, kSender, next++).completed);
    for (Word v = 1; v <= 5; ++v)
        EXPECT_EQ(*cache.recv(3, kReceiver).value, v);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(cache.send(3, kSender, next++).completed);
    EXPECT_EQ(cache.entry(3)->values.size(),
              static_cast<std::size_t>(kChannelDepth));
    EXPECT_TRUE(cache.send(3, kThird, 99).blocked);

    std::vector<Word> listed;
    for (const Token &t : cache.entry(3)->values)
        listed.push_back(t.value);
    EXPECT_EQ(listed, (std::vector<Word>{6, 7, 8, 9, 10, 11, 12, 13}));
    for (Word v = 6; v <= 13; ++v) {
        ChannelOp r = cache.recv(3, kReceiver);
        EXPECT_EQ(*r.value, v);
        EXPECT_EQ(r.wake, v == 6 ? kThird : kNoCtx);
    }
    EXPECT_EQ(cache.state(3), ChannelState::Idle);
}

TEST(MessageCache, ParkedReceiversPastTheDepthWakeInArrivalOrder)
{
    // Twenty parked receivers, more than the ring's depth: each send
    // wakes the longest-parked one, including receivers that parked
    // after earlier ones were woken.
    MessageCache cache;
    std::vector<CtxId> parked;
    auto park = [&](CtxId id) {
        EXPECT_TRUE(cache.recv(4, id).blocked);
        parked.push_back(id);
    };
    for (CtxId id = 100; id < 120; ++id)
        park(id);
    std::size_t woken = 0;
    auto deliver = [&] {
        ChannelOp s = cache.send(4, kSender, 500 + woken);
        ASSERT_TRUE(s.completed);
        ASSERT_EQ(s.wake, parked[woken]);
        ChannelOp r = cache.recv(4, s.wake);
        ASSERT_TRUE(r.completed);
        EXPECT_EQ(*r.value, 500 + woken);
        ++woken;
    };
    for (int i = 0; i < 15; ++i)
        deliver();
    for (CtxId id = 200; id < 215; ++id)
        park(id);
    EXPECT_EQ(cache.entry(4)->recvWaiters.size(), 20u);
    while (woken < parked.size())
        deliver();
    EXPECT_EQ(cache.state(4), ChannelState::Idle);
    EXPECT_TRUE(cache.entry(4)->recvWaiters.empty());
}

TEST(MessageCache, SteadyRendezvousAllocatesNothing)
{
    // Once a channel has an entry and has parked a context once, its
    // traffic reuses the entry's storage: 1,000 send/recv pairs and a
    // park-and-wake call operator new zero times.
    MessageCache cache;
    cache.send(6, kSender, 1);
    cache.recv(6, kReceiver);
    cache.recv(6, kReceiver);
    cache.send(6, kSender, 2);
    cache.recv(6, kReceiver);

    std::uint64_t before = allocations();
    Word sum = 0;
    for (Word v = 0; v < 1000; ++v) {
        cache.send(6, kSender, v);
        sum += *cache.recv(6, kReceiver).value;
    }
    bool parked = cache.recv(6, kReceiver).blocked;
    CtxId woken = cache.send(6, kSender, 7).wake;
    std::uint64_t during = allocations() - before;

    EXPECT_EQ(during, 0u);
    EXPECT_EQ(sum, 999u * 1000u / 2u);
    EXPECT_TRUE(parked);
    EXPECT_EQ(woken, kReceiver);
}

TEST(MessageCache, ChannelsAreIndependent)
{
    MessageCache cache;
    cache.send(1, kSender, 10);
    cache.send(2, kSender, 20);
    EXPECT_EQ(cache.state(1), ChannelState::Full);
    EXPECT_EQ(cache.state(2), ChannelState::Full);
    ChannelOp r = cache.recv(2, kReceiver);
    EXPECT_EQ(*r.value, 20u);
    EXPECT_EQ(cache.state(1), ChannelState::Full);
    EXPECT_EQ(cache.pendingChannels(), 1u);
}

TEST(MessageCache, MultipleParkedReceiversWakeOnePerDeposit)
{
    MessageCache cache;
    EXPECT_TRUE(cache.recv(5, kReceiver).blocked);
    EXPECT_TRUE(cache.recv(5, kThird).blocked);

    ChannelOp s1 = cache.send(5, kSender, 9);
    EXPECT_EQ(s1.wake, kReceiver);  // first-come, first-served

    ChannelOp s2 = cache.send(5, kSender, 10);
    EXPECT_EQ(s2.wake, kThird);
}

TEST(MessageCache, WokenReceiverRacesSafely)
{
    // A woken receiver that loses the race to a running receiver simply
    // parks again: no value is lost or duplicated.
    MessageCache cache;
    cache.recv(5, kReceiver);
    cache.send(5, kSender, 1);
    // kThird takes the value before kReceiver retries.
    ChannelOp thief = cache.recv(5, kThird);
    EXPECT_TRUE(thief.completed);
    EXPECT_EQ(*thief.value, 1u);
    // kReceiver retries, finds nothing, parks again.
    ChannelOp retry = cache.recv(5, kReceiver);
    EXPECT_TRUE(retry.blocked);
    // Next deposit wakes it again.
    ChannelOp s2 = cache.send(5, kSender, 2);
    EXPECT_EQ(s2.wake, kReceiver);
}

/**
 * Exhaustive accessibility sweep (thesis Table 6.7/Fig 6.13): from every
 * reachable state, applying every request type keeps the machine inside
 * the documented state set.
 */
TEST(MessageCache, AllReachableStatesAreAccessible)
{
    std::set<ChannelState> seen;
    for (int mask = 0; mask < (1 << 4); ++mask) {
        MessageCache cache(2);
        CtxId next_sender = 10;
        CtxId next_receiver = 20;
        seen.insert(cache.state(1));
        for (int step = 0; step < 4; ++step) {
            if ((mask >> step) & 1)
                cache.send(1, next_sender++, 55);
            else
                cache.recv(1, next_receiver++);
            seen.insert(cache.state(1));
        }
    }
    EXPECT_TRUE(seen.count(ChannelState::Idle));
    EXPECT_TRUE(seen.count(ChannelState::Full));
    EXPECT_TRUE(seen.count(ChannelState::RecvWait));
    EXPECT_EQ(seen.size(), 3u);
}

TEST(MessageCache, StateNamesRender)
{
    EXPECT_EQ(toString(ChannelState::Idle), "Idle");
    EXPECT_EQ(toString(ChannelState::Full), "Full");
    EXPECT_EQ(toString(ChannelState::RecvWait), "RecvWait");
}

} // namespace

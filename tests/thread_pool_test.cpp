/**
 * @file
 * Tests for the parallel loop behind the parallel experiment runner:
 * the parallelFor index-coverage, exception-propagation and
 * serial-degeneration guarantees.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "support/thread_pool.hpp"

namespace {

using namespace qm;

TEST(ThreadPool, DefaultWorkersIsPositive)
{
    EXPECT_GE(defaultWorkers(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(257);
    parallelFor(hits.size(), 8,
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, SerialJobsRunInlineInIndexOrder)
{
    std::vector<std::size_t> order;
    parallelFor(10, 1, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ZeroCountIsANoOp)
{
    bool called = false;
    parallelFor(0, 4, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesBodyException)
{
    EXPECT_THROW(parallelFor(16, 4,
                             [](std::size_t i) {
                                 if (i == 7)
                                     throw std::logic_error("boom");
                             }),
                 std::logic_error);
}

TEST(ParallelFor, MoreJobsThanItems)
{
    // The pool is clamped to the item count; every index still runs
    // exactly once.
    std::vector<std::atomic<int>> hits(3);
    parallelFor(hits.size(), 16,
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, ZeroItemsWithParallelJobsIsANoOp)
{
    // The zero-count early-out must fire before any pool is built.
    bool called = false;
    parallelFor(0, 16, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, SerialExceptionPropagates)
{
    // jobs <= 1 takes the inline path, whose throw must escape
    // directly (not via the pool's capture-and-rethrow).
    EXPECT_THROW(parallelFor(4, 1,
                             [](std::size_t i) {
                                 if (i == 2)
                                     throw std::runtime_error("inline");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, ResultsIndependentOfJobCount)
{
    auto compute = [](unsigned jobs) {
        std::vector<long> out(64, 0);
        parallelFor(out.size(), jobs, [&](std::size_t i) {
            long v = static_cast<long>(i);
            out[i] = v * v + 3 * v + 1;
        });
        return out;
    };
    std::vector<long> serial = compute(1);
    EXPECT_EQ(compute(2), serial);
    EXPECT_EQ(compute(8), serial);
}

} // namespace

/**
 * @file
 * Tests for the support thread pool behind the parallel experiment
 * runner: task completion, exception propagation, pool reuse, and the
 * parallelFor index-coverage and serial-degeneration guarantees.
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
    EXPECT_GE(ThreadPool::defaultWorkers(), 1u);
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workers(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitRethrowsFirstTaskException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPool, SurvivesFailedTasksAndStaysUsable)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 10; ++i)
        pool.submit([&, i] {
            if (i % 2 == 0)
                throw std::runtime_error("even task failed");
            ran.fetch_add(1);
        });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // Odd tasks still ran, and the pool accepts more work; the error
    // was consumed by the first wait.
    EXPECT_EQ(ran.load(), 5);
    pool.submit([&] { ran.fetch_add(1); });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(ran.load(), 6);
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

TEST(ThreadPool, WaitOnEmptyPoolReturnsImmediately)
{
    // No submitted tasks: wait() must not block or throw.
    ThreadPool pool(3);
    EXPECT_NO_THROW(pool.wait());
    // And stays usable afterwards.
    std::atomic<int> ran{0};
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, MoreWorkersThanTasks)
{
    // Idle workers must neither steal nor duplicate the few tasks.
    ThreadPool pool(8);
    std::atomic<int> ran{0};
    for (int i = 0; i < 3; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
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

/**
 * @file
 * Fixed-size thread pool for fanning independent simulator runs across
 * the host's cores (the Chapter-6 sweeps are a grid of independent
 * simulations - see sim::runAll).
 *
 * The pool is deliberately simple: one locked task queue drained by N
 * worker threads. Simulated runs take milliseconds to minutes each, so
 * queue contention is irrelevant next to task cost; what matters is
 * that exceptions thrown inside tasks are captured and rethrown to the
 * caller (wait()), and that the pool joins its workers on destruction
 * even when a task failed.
 *
 * parallelFor() is the intended entry point for callers: it executes
 * fn(0..count-1) with results naturally ordered by index, and with
 * jobs <= 1 it degenerates to a plain loop on the calling thread -
 * byte-identical behavior to the pre-pool serial code.
 */
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qm {

/** N worker threads draining one task queue; join-on-destroy. */
class ThreadPool
{
  public:
    /** Start @p workers threads (0 selects defaultWorkers()). */
    explicit ThreadPool(unsigned workers = 0);

    /** Drains nothing: pending tasks are discarded, workers joined. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task; it may start before submit returns. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished, then rethrow the
     * first exception any task raised (later ones are dropped).
     */
    void wait();

    unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

    /** Hardware concurrency, never less than 1. */
    static unsigned defaultWorkers();

  private:
    void workerLoop();

    std::vector<std::thread> threads_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::size_t unfinished_ = 0;  ///< Queued + currently running tasks.
    bool stopping_ = false;
    std::exception_ptr firstError_;
};

/**
 * Run fn(i) for every i in [0, count) on up to @p jobs threads.
 * With jobs <= 1 (or count <= 1) the loop runs inline on the calling
 * thread in index order - exactly the serial behavior. The first
 * exception thrown by any fn is rethrown here after all indices finish
 * or are abandoned.
 */
void parallelFor(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

} // namespace qm

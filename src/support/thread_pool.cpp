#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace qm {

unsigned
ThreadPool::defaultWorkers()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

ThreadPool::ThreadPool(unsigned workers)
{
    if (workers == 0)
        workers = defaultWorkers();
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        unfinished_ -= queue_.size();
        queue_.clear();
    }
    workReady_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        ++unfinished_;
    }
    workReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return unfinished_ == 0; });
    if (firstError_) {
        std::exception_ptr error = std::exchange(firstError_, nullptr);
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return;  // stopping, nothing left to run
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--unfinished_ == 0)
                allDone_.notify_all();
        }
    }
}

void
parallelFor(std::size_t count, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (jobs <= 1 || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(jobs, count)));
    // Dynamic scheduling off one shared cursor: workers claim the next
    // index as they free up, so uneven run times balance out.
    std::atomic<std::size_t> next{0};
    for (unsigned w = 0; w < pool.workers(); ++w)
        pool.submit([&] {
            for (std::size_t i = next.fetch_add(1); i < count;
                 i = next.fetch_add(1))
                fn(i);
        });
    pool.wait();
}

} // namespace qm

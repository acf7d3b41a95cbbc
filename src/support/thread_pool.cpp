#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace qm {

unsigned
defaultWorkers()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
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
    // Dynamic scheduling off one shared cursor: workers claim the next
    // index as they free up, so uneven run times balance out. A worker
    // whose index throws stops; the others drain the cursor.
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    auto work = [&] {
        try {
            for (std::size_t i = next.fetch_add(1); i < count;
                 i = next.fetch_add(1))
                fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error)
                first_error = std::current_exception();
        }
    };
    {
        // Declared after what the workers use, so it joins them (also
        // when starting a later one throws) before those go away.
        const std::size_t n = std::min<std::size_t>(jobs, count);
        std::vector<std::jthread> workers;
        workers.reserve(n);
        for (std::size_t w = 0; w < n; ++w)
            workers.emplace_back(work);
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace qm

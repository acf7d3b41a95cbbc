/**
 * @file
 * Parallel index loop for fanning independent simulator runs across
 * the host's cores (the Chapter-6 sweeps are a grid of independent
 * simulations - see sim::runAll).
 *
 * parallelFor() starts its own workers, which pull indices off one
 * shared cursor until none are left. Simulated runs take milliseconds
 * to minutes each, so contention on the cursor is irrelevant next to
 * task cost; what matters is that an exception thrown by one index is
 * captured and rethrown to the caller, and that every worker is joined
 * first, even when an index failed. With jobs <= 1 the loop runs
 * inline on the calling thread - byte-identical behavior to serial
 * code.
 */
#pragma once

#include <cstddef>
#include <functional>

namespace qm {

/** Hardware concurrency, never less than 1. */
unsigned defaultWorkers();

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

/**
 * @file
 * The three workloads and the simulator-facing helpers they share.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mp/system.hpp"
#include "occam/compiler.hpp"

namespace perfbench {

/** The Chapter 6 grid: six thesis programs on 1-8 PEs per op. */
std::unique_ptr<Workload> makeGrid(std::uint64_t seed,
                                   const WorkloadOptions &options);
/** `occamc --run` over a pool of generated ~300-line programs. */
std::unique_ptr<Workload> makeCompile(std::uint64_t seed,
                                      const WorkloadOptions &options);
/** Checkpointed, telemetered run on 8 PEs, then a resume from disk. */
std::unique_ptr<Workload> makeDurable(std::uint64_t seed,
                                      const WorkloadOptions &options);

/** Names of the simulated counts every op reports, in order. */
const std::vector<std::string> &simCountNames();

/** Add the run's simulated counts (StatSet names) to @p counts. */
void addSimCounts(Counts &counts, const qm::StatSet &stats);

/**
 * Check a finished run: it completed and @p array holds @p expected.
 * Records the first failure on @p out.
 */
void checkRun(OpOutcome &out, const std::string &what,
              const qm::mp::RunResult &result, qm::mp::System &system,
              const qm::occam::CompiledProgram &program,
              const std::string &array,
              const std::vector<std::int32_t> &expected);

/** Add @p value to the count @p name, appending it if absent. */
void addCount(Counts &counts, const std::string &name, std::uint64_t value);

} // namespace perfbench

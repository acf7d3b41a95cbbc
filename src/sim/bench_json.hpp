/**
 * @file
 * Machine-readable bench reports: every Chapter-6 bench writes a
 * BENCH_<name>.json next to its stdout tables so the performance
 * trajectory (cycles, utilization, per-phase breakdowns) can be
 * tracked across commits by tooling instead of by eyeballing tables.
 */
#pragma once

#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace qm::sim {

/**
 * Write @p series as JSON to BENCH_<bench>.json in the working
 * directory (or to @p path when given). Returns the path written.
 * Throws FatalError when the file cannot be opened.
 *
 * With @p host_time set, runs that measured host-side performance
 * additionally carry host_wall_ms and sim_cycles_per_sec. Off by
 * default: those fields are machine-dependent, and the default
 * document must stay byte-stable for determinism comparisons.
 */
std::string writeBenchJson(const std::string &bench,
                           const std::vector<SpeedupSeries> &series,
                           const std::string &path = "",
                           bool host_time = false);

} // namespace qm::sim

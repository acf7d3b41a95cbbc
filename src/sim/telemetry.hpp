/**
 * @file
 * Live telemetry stream (`--telemetry FILE`): periodic NDJSON
 * snapshots of the qm.metrics.v1 statistics registry, emitted mid-run
 * at deterministic cycle boundaries (mp::SystemConfig::telemetryEvery)
 * instead of once at the end.
 *
 * One snapshot = one line = one self-contained JSON object:
 *
 *   {"schema":"qm.telemetry.v1","label":...,"pes":N,"cycle":C,
 *    "counters":{...},"scalars":{...},"histograms":{name:{count,sum,
 *    min,max,mean,p50,p90,p99}}}
 *
 * Histograms carry their summary/percentile fields only (no buckets):
 * a stream samples the same registry dozens of times, and the full
 * bucket vectors belong in the end-of-run metrics document.
 *
 * Determinism contract: boundaries are evaluated at the same guard
 * points as periodic checkpoints, the registry fold is the same one
 * finalizeRun uses, and every map is name-ordered - so the stream is
 * byte-identical across --jobs (with per-run buffering in
 * sim::runAll). Counters are monotone along one timeline; a
 * checkpoint replay rewinds the registry with the machine, so a
 * faulted run's stream records the replayed timeline too (stamps can
 * repeat), which is the truthful account of what the machine did.
 */
#pragma once

#include <string>

#include "support/stats.hpp"

namespace qm::sim {

/** Schema tag stamped into every telemetry line. */
inline constexpr const char *kTelemetrySchema = "qm.telemetry.v1";

/**
 * Render one telemetry snapshot line (newline-terminated) from a
 * folded registry view (mp::System::statsSnapshot()).
 */
std::string telemetryLine(const std::string &label, int pes,
                          std::int64_t cycle, const StatSet &stats);

} // namespace qm::sim

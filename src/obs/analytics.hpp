/**
 * @file
 * Cross-run regression analytics and black-box post-mortems, the
 * logic behind `qmprof diff` and `qmprof flight`.
 *
 * diff ingests two BENCH_*.json or qm.metrics.v1 documents and walks
 * every (series, PE-count) cell of the baseline: cycle regressions
 * past a tolerance, cells that disappeared or stopped verifying, and
 * host-wall regressions when both documents measured host time. It is
 * the one regression comparator: every CI gate runs through it, so a
 * gate and an interactive diff can never disagree. Metrics documents
 * additionally get per-counter deltas and histogram percentile
 * divergence.
 *
 * flight ingests a `qm.flight.v1` black box (src/obs/flight.hpp) and
 * renders a post-mortem: the dump header, per-kind event totals, the
 * last-N-cycles timeline of every ring, blocked-context attribution
 * (contexts whose final recorded event is a park), and a probable-
 * cause digest keyed on the dump reason.
 *
 * Exit-code contract: 0 = clean, 1 = a real regression / verdict
 * failure, 2 = a document that cannot be read or is not of the
 * expected schema.
 */
#pragma once

#include <ostream>
#include <string>

namespace qm::obs {

/** Thresholds and gate modes for diffReports. */
struct DiffOptions
{
    /** Max fractional cycle regression before a cell fails. */
    double tolerance = 0.10;
    /** Max fractional host_wall_ms regression (both sides present). */
    double hostTolerance = 0.25;
    /**
     * Gate hostTolerance on the best-of-N total host_wall_ms instead
     * of per cell; each path may list comma-separated repeats, whose
     * cycles must match their side's first report.
     */
    bool hostAggregate = false;
    /** Print per-counter deltas / histogram divergence for metrics. */
    bool showMetrics = true;
};

/**
 * Compare @p currentPath against @p baselinePath, writing the verdict
 * lines to @p out and file-level diagnostics to @p err. Returns the
 * process exit code (0 clean, 1 regression, 2 unreadable document).
 */
int diffReports(const std::string &baselinePath,
                const std::string &currentPath, const DiffOptions &options,
                std::ostream &out, std::ostream &err);

/** Rendering knobs for analyzeFlight. */
struct FlightOptions
{
    /** Timeline shows at most this many events per ring. */
    int lastEvents = 16;
};

/**
 * Render a post-mortem of the black box at @p path to @p out.
 * Returns 0 on success, 2 when the file is missing/malformed/not a
 * qm.flight.v1 document (diagnostic on @p err).
 */
int analyzeFlight(const std::string &path, const FlightOptions &options,
                  std::ostream &out, std::ostream &err);

} // namespace qm::obs

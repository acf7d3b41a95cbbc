#include "sim/metrics.hpp"

#include <fstream>
#include <iostream>
#include <sstream>

#include "sim/telemetry.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"

namespace qm::sim {

namespace {

/**
 * @p stats as the "counters", "scalars" and "histograms" members of the
 * object @p json is writing: each histogram as count, sum, min, max,
 * mean, p50, p90 and p99, plus with @p buckets its non-empty buckets
 * (the metrics document has them, the telemetry stream does not).
 */
void
writeStatSet(JsonWriter &json, const StatSet &stats, bool buckets)
{
    json.key("counters").beginObject();
    for (const auto &[name, value] : stats.counterMap())
        json.key(name).value(value);
    json.endObject();
    json.key("scalars").beginObject();
    for (const auto &[name, value] : stats.scalarMap())
        json.key(name).value(value);
    json.endObject();
    json.key("histograms").beginObject();
    for (const auto &[name, h] : stats.histogramMap()) {
        json.key(name).beginObject()
            .key("count").value(h.count())
            .key("sum").value(h.sum())
            .key("min").value(h.min())
            .key("max").value(h.max())
            .key("mean").value(h.mean())
            .key("p50").value(h.percentile(50.0))
            .key("p90").value(h.percentile(90.0))
            .key("p99").value(h.percentile(99.0));
        if (buckets) {
            json.key("buckets").beginArray();
            for (int i = 0; i < Histogram::kNumBuckets; ++i) {
                if (h.bucketCount(i) == 0)
                    continue;
                json.beginObject()
                    .key("lo").value(Histogram::bucketLow(i))
                    .key("hi").value(Histogram::bucketHigh(i))
                    .key("count").value(h.bucketCount(i))
                    .endObject();
            }
            json.endArray();
        }
        json.endObject();
    }
    json.endObject();
}

void
writeRun(JsonWriter &json, const RunReport &run)
{
    json.beginObject()
        .key("pes").value(run.pes)
        .key("completed").value(run.completed)
        .key("verified").value(run.verified)
        .key("cycles").value(run.cycles)
        .key("trace_dropped").value(run.traceDropped);
    writeStatSet(json, run.stats, /*buckets=*/true);
    json.endObject();
}

} // namespace

std::string
telemetryLine(const std::string &label, int pes, std::int64_t cycle,
              const StatSet &stats)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.key("schema").value(kTelemetrySchema);
    json.key("label").value(label);
    json.key("pes").value(pes);
    json.key("cycle").value(cycle);
    writeStatSet(json, stats, /*buckets=*/false);
    json.endObject();
    os << "\n";
    return os.str();
}

std::string
writeMetricsJson(const std::string &bench,
                 const std::vector<SpeedupSeries> &series,
                 const std::string &path)
{
    std::ofstream file;
    if (path != "-") {
        file.open(path);
        fatalIf(!file, "cannot open metrics file: ", path);
    }
    std::ostream &out = path == "-" ? std::cout : file;

    JsonWriter json(out);
    json.beginObject();
    json.key("schema").value(kMetricsSchema);
    json.key("bench").value(bench);
    json.key("series").beginArray();
    for (const SpeedupSeries &s : series) {
        json.beginObject();
        json.key("name").value(s.name);
        json.key("runs").beginArray();
        for (const RunReport &run : s.runs)
            writeRun(json, run);
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    out << "\n";
    return path;
}

} // namespace qm::sim

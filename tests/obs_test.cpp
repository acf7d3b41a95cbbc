/**
 * @file
 * Observability layer tests: the always-on flight recorder (rings,
 * counts, qm.flight.v1 dumps, QM_FLIGHT kill switch), the telemetry
 * stream (determinism across host cores), the Prometheus exposition
 * writer, and the qmprof cross-run analytics (diff verdicts and flight
 * post-mortems).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "mp/system.hpp"
#include "obs/analytics.hpp"
#include "obs/flight.hpp"
#include "occam/compiler.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"
#include "support/json_parse.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace qm;

trace::Event
makeEvent(trace::EventKind kind, std::int64_t at, int pe = 0,
          trace::CtxId ctx = trace::kNoCtx)
{
    trace::Event event;
    event.kind = kind;
    event.pe = static_cast<std::int16_t>(pe);
    event.ctx = ctx;
    event.at = at;
    return event;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "obs_test_" + name;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::trunc);
    out << content;
}

// --- FlightRing ----------------------------------------------------------

TEST(FlightRing, KeepsEverythingBelowCapacity)
{
    obs::FlightRing ring("test", 4);
    for (int i = 0; i < 3; ++i)
        ring.push(makeEvent(trace::EventKind::CtxCreate, i));
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.recorded(), 3u);
    std::vector<trace::Event> ordered = ring.ordered();
    ASSERT_EQ(ordered.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(ordered[static_cast<std::size_t>(i)].at, i);
}

TEST(FlightRing, OverwritesOldestPastCapacityAndUnwrapsInOrder)
{
    obs::FlightRing ring("test", 4);
    for (int i = 0; i < 11; ++i)
        ring.push(makeEvent(trace::EventKind::CtxCreate, i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.recorded(), 11u);
    std::vector<trace::Event> ordered = ring.ordered();
    ASSERT_EQ(ordered.size(), 4u);
    // Oldest-to-newest: 7, 8, 9, 10.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(ordered[static_cast<std::size_t>(i)].at, 7 + i);
}

// --- FlightRecorder ------------------------------------------------------

TEST(FlightRecorder, RoutesKindsToComponentRingsAndCountsExactly)
{
    obs::FlightRecorder recorder;
    ASSERT_TRUE(recorder.enabled());
    recorder.record(makeEvent(trace::EventKind::CtxDispatch, 1, 0, 7));
    recorder.record(makeEvent(trace::EventKind::CtxPark, 2, 0, 7));
    recorder.record(makeEvent(trace::EventKind::BusTransfer, 3, 1));
    recorder.record(makeEvent(trace::EventKind::Rendezvous, 4));
    recorder.record(makeEvent(trace::EventKind::TrapEnter, 5, 2));
    recorder.record(makeEvent(trace::EventKind::FaultInject, 6, 0));

    EXPECT_EQ(recorder.countOf(trace::EventKind::CtxDispatch), 1u);
    EXPECT_EQ(recorder.countOf(trace::EventKind::CtxPark), 1u);
    EXPECT_EQ(recorder.countOf(trace::EventKind::BusTransfer), 1u);
    EXPECT_EQ(recorder.countOf(trace::EventKind::CtxFinish), 0u);

    // sched, bus, kernel, fault, checkpoint — in that order.
    const std::vector<obs::FlightRing> &rings = recorder.rings();
    ASSERT_EQ(rings.size(), 5u);
    EXPECT_STREQ(rings[0].name(), "sched");
    EXPECT_EQ(rings[0].recorded(), 2u);  // dispatch + park
    EXPECT_STREQ(rings[1].name(), "bus");
    EXPECT_EQ(rings[1].recorded(), 2u);  // transfer + rendezvous
    EXPECT_STREQ(rings[2].name(), "kernel");
    EXPECT_EQ(rings[2].recorded(), 1u);
    EXPECT_STREQ(rings[3].name(), "fault");
    EXPECT_EQ(rings[3].recorded(), 1u);
    EXPECT_EQ(rings[4].recorded(), 0u);
}

TEST(FlightRecorder, CheckpointAndRestoreLandInTheCheckpointRing)
{
    obs::FlightRecorder recorder;
    recorder.checkpoint(100, 5);
    recorder.checkpoint(200, 3);
    recorder.noteRestore(100);
    EXPECT_EQ(recorder.checkpoints(), 2u);
    EXPECT_EQ(recorder.restores(), 1u);
    EXPECT_EQ(recorder.rings()[4].recorded(), 3u);
    std::vector<trace::Event> ordered = recorder.rings()[4].ordered();
    ASSERT_EQ(ordered.size(), 3u);
    EXPECT_EQ(ordered[0].kind, obs::kCheckpointKind);
    EXPECT_EQ(ordered[0].a, 5u);  // live contexts at the boundary
    EXPECT_EQ(ordered[2].kind, obs::kRestoreKind);
}

TEST(FlightRecorder, DumpIsSchemaValidJson)
{
    obs::FlightRecorder recorder;
    recorder.record(makeEvent(trace::EventKind::CtxDispatch, 42, 1, 9));
    recorder.checkpoint(50, 2);

    obs::FlightHeader header;
    header.reason = "watchdog: test";
    header.cycle = 99;
    header.pes = 4;
    header.liveContexts = 2;
    JsonValue doc = parseJson(recorder.dump(header));
    EXPECT_EQ(doc.str("schema"), "qm.flight.v1");
    EXPECT_EQ(doc.str("reason"), "watchdog: test");
    EXPECT_EQ(doc.intval("cycle"), 99);
    EXPECT_EQ(doc.intval("pes"), 4);
    EXPECT_EQ(doc.intval("live_contexts"), 2);
    EXPECT_EQ(doc.get("counts").intval("ctx-dispatch"), 1);
    EXPECT_EQ(doc.get("counts").intval("checkpoint"), 1);
    // Zero counts are omitted, not written as 0.
    EXPECT_TRUE(doc.get("counts").get("ctx-finish").isNull());
    ASSERT_EQ(doc.get("rings").items.size(), 5u);
    const JsonValue &sched = doc.get("rings").items[0];
    EXPECT_EQ(sched.str("name"), "sched");
    EXPECT_EQ(sched.intval("recorded"), 1);
    ASSERT_EQ(sched.get("events").items.size(), 1u);
    const JsonValue &event = sched.get("events").items[0];
    EXPECT_EQ(event.str("kind"), "ctx-dispatch");
    EXPECT_EQ(event.intval("at"), 42);
    EXPECT_EQ(event.intval("ctx"), 9);
    EXPECT_EQ(event.intval("pe"), 1);
}

TEST(FlightRecorder, KillSwitchDisablesRecordingAndDumping)
{
    ::setenv("QM_FLIGHT", "0", 1);
    obs::FlightRecorder recorder;
    ::unsetenv("QM_FLIGHT");
    EXPECT_FALSE(recorder.enabled());
    recorder.record(makeEvent(trace::EventKind::CtxDispatch, 1));
    recorder.checkpoint(10, 1);
    EXPECT_EQ(recorder.countOf(trace::EventKind::CtxDispatch), 0u);
    EXPECT_EQ(recorder.checkpoints(), 0u);
}

TEST(FlightRecorder, MarkerFileIsAParseableDump)
{
    std::string path = tempPath("marker.flight.json");
    ASSERT_TRUE(obs::writeFlightMarker(path, "run-start").ok());
    JsonValue doc = parseJsonFile(path);
    EXPECT_EQ(doc.str("schema"), "qm.flight.v1");
    EXPECT_EQ(doc.str("reason"), "run-start");
    std::remove(path.c_str());
}

TEST(FlightKindName, CoversSyntheticKinds)
{
    EXPECT_STREQ(obs::flightKindName(obs::kCheckpointKind),
                 "checkpoint");
    EXPECT_STREQ(obs::flightKindName(obs::kRestoreKind), "restore");
    EXPECT_STREQ(obs::flightKindName(trace::EventKind::CtxPark),
                 "ctx-park");
}

// --- System integration --------------------------------------------------

/** Three contexts, two channels: exercises sched + bus rings. */
const char *kPipelineSource = R"(var results[2]:
chan a:
chan b:
var total, count:
seq
  total := 0
  count := 0
  par
    seq i = [1 for 16]
      a ! i
    seq j = [1 for 16]
      var x:
      seq
        a ? x
        b ! x * x
    seq k = [1 for 16]
      var y:
      seq
        b ? y
        total := total + y
        count := count + 1
  results[0] := total
  results[1] := count
)";

const occam::CompiledProgram &
pipelineProgram()
{
    static occam::CompiledProgram program =
        occam::compileOccam(kPipelineSource);
    return program;
}

TEST(FlightSystem, RecorderSeesEventsWithTracingOff)
{
    const occam::CompiledProgram &program = pipelineProgram();
    mp::SystemConfig config;
    config.numPes = 2;
    ASSERT_FALSE(config.traceConfig.enabled);
    mp::System system(program.object, config);
    mp::RunResult result = system.run(program.mainLabel);
    ASSERT_TRUE(result.completed);
    // The Tracer is off (no events buffered) yet the sink saw the run.
    EXPECT_TRUE(system.tracer().events().empty());
    EXPECT_GT(system.flight().countOf(trace::EventKind::CtxDispatch),
              0u);
    EXPECT_GT(system.flight().countOf(trace::EventKind::Rendezvous),
              0u);
    obs::FlightHeader header;
    header.reason = "test";
    JsonValue doc = parseJson(system.flight().dump(header));
    EXPECT_EQ(doc.str("schema"), "qm.flight.v1");
}

TEST(FlightSystem, WriteFlightDumpProducesParseableFile)
{
    const occam::CompiledProgram &program = pipelineProgram();
    mp::SystemConfig config;
    config.numPes = 2;
    mp::System system(program.object, config);
    mp::RunResult result = system.run(program.mainLabel);
    ASSERT_TRUE(result.completed);
    std::string path = tempPath("system.flight.json");
    ASSERT_TRUE(system.writeFlightDump(path, "test-dump").ok());
    JsonValue doc = parseJsonFile(path);
    EXPECT_EQ(doc.str("reason"), "test-dump");
    EXPECT_EQ(doc.intval("pes"), 2);
    EXPECT_GT(doc.get("counts").intval("ctx-dispatch"), 0);
    std::remove(path.c_str());
}

TEST(FlightSystem, ThrownFailureReasonNamesItsClassOnce)
{
    // fatal() starts its message with "fatal: "; the report row and
    // the black box carry that message as thrown.
    occam::CompiledProgram program =
        occam::compileOccam("chan a:\nvar x:\nseq\n  a ? x\n");
    mp::SystemConfig config;
    config.flightPath = tempPath("deadlock.flight.json");
    sim::RunReport report = sim::runOnce(program, "", {}, 1, config);
    EXPECT_FALSE(report.completed);
    EXPECT_EQ(report.failureReason.rfind("fatal: deadlock: ", 0), 0u)
        << report.failureReason;
    EXPECT_EQ(report.failureReason.find("fatal: ", 1), std::string::npos)
        << report.failureReason;
    EXPECT_EQ(parseJsonFile(config.flightPath).str("reason"),
              report.failureReason);
    std::remove(config.flightPath.c_str());
}

// --- Telemetry -----------------------------------------------------------

std::vector<std::string>
telemetryLines()
{
    const occam::CompiledProgram &program = pipelineProgram();
    mp::SystemConfig config;
    config.numPes = 2;
    config.telemetryEvery = 50;
    mp::System system(program.object, config);
    std::vector<std::string> lines;
    system.setTelemetrySink([&lines](mp::System &sys, mp::Cycle cycle) {
        lines.push_back(sim::telemetryLine("t", 2, cycle,
                                           sys.statsSnapshot()));
    });
    mp::RunResult result = system.run(program.mainLabel);
    EXPECT_TRUE(result.completed);
    return lines;
}

TEST(Telemetry, StreamIsByteIdenticalAcrossCores)
{
    // The stream a run emits must not depend on the host core it runs
    // on or on a run beside it: two copies at once on parallelFor
    // workers (as a --jobs sweep runs them) match the serial run.
    std::vector<std::string> serial = telemetryLines();
    ASSERT_FALSE(serial.empty());
    std::vector<std::vector<std::string>> concurrent(2);
    parallelFor(concurrent.size(), 2, [&concurrent](std::size_t i) {
        concurrent[i] = telemetryLines();
    });
    for (const std::vector<std::string> &lines : concurrent)
        EXPECT_EQ(serial, lines);
}

TEST(Telemetry, LinesAreCycleStampedSchemaTaggedAndMonotone)
{
    std::vector<std::string> lines = telemetryLines();
    ASSERT_GE(lines.size(), 2u);
    std::int64_t last_cycle = 0;
    long long last_instructions = 0;
    for (const std::string &line : lines) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.back(), '\n');
        JsonValue doc = parseJson(line);
        EXPECT_EQ(doc.str("schema"), "qm.telemetry.v1");
        EXPECT_EQ(doc.str("label"), "t");
        EXPECT_EQ(doc.intval("pes"), 2);
        std::int64_t cycle = doc.intval("cycle");
        EXPECT_GT(cycle, last_cycle);
        last_cycle = cycle;
        long long instructions =
            doc.get("counters").intval("pe.instructions");
        EXPECT_GE(instructions, last_instructions);
        last_instructions = instructions;
        EXPECT_FALSE(doc.get("histograms").members.empty());
    }
}

// --- Prometheus exposition -----------------------------------------------

TEST(Prometheus, RendersAllFourMetricFamilies)
{
    StatSet stats;
    stats.inc("pe.instructions", 42);
    stats.set("pe0.clock", 128.0);
    Histogram latency;
    for (std::uint64_t v : {0, 3, 3})
        latency.sample(v);
    stats.merge("bus.latency", latency);
    std::string text = renderPrometheus(stats);

    EXPECT_NE(text.find("# TYPE qm_pe_instructions counter\n"
                        "qm_pe_instructions 42\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE qm_pe0_clock gauge\n"
                        "qm_pe0_clock 128.000000\n"),
              std::string::npos);
    // log2 histogram: the zeros bucket (le="0") holds the single 0;
    // [2,4) holds both 3s; cumulative counts, mandatory +Inf bucket.
    EXPECT_NE(text.find("qm_bus_latency_bucket{le=\"0\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("qm_bus_latency_bucket{le=\"3\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("qm_bus_latency_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("qm_bus_latency_sum 6\n"), std::string::npos);
    EXPECT_NE(text.find("qm_bus_latency_count 3\n"),
              std::string::npos);
}

TEST(Prometheus, SanitizesNamesToExpositionCharset)
{
    StatSet stats;
    stats.inc("pe0.ready-wait/max", 1);
    std::string text = renderPrometheus(stats, "qm");
    EXPECT_NE(text.find("qm_pe0_ready_wait_max 1\n"),
              std::string::npos);
}

// --- qmprof diff ---------------------------------------------------------

/** Minimal BENCH document with one series and @p cycles at 4 PEs. */
std::string
benchDoc(long cycles, bool verified = true)
{
    std::ostringstream os;
    os << "{\"bench\":\"t\",\"series\":[{\"name\":\"s\",\"runs\":"
          "[{\"pes\":4,\"completed\":true,\"verified\":"
       << (verified ? "true" : "false") << ",\"cycles\":" << cycles
       << "}]}]}";
    return os.str();
}

int
diffDocs(const std::string &baseline, const std::string &current,
         std::string *out_text = nullptr,
         const obs::DiffOptions &options = {})
{
    // ctest runs each case as its own process, so each case writes
    // its own pair of files.
    std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::string base_path = tempPath(test + "_diff_base.json");
    std::string cur_path = tempPath(test + "_diff_cur.json");
    writeFile(base_path, baseline);
    writeFile(cur_path, current);
    std::ostringstream out, err;
    int rc = obs::diffReports(base_path, cur_path, options, out, err);
    if (out_text != nullptr)
        *out_text = out.str() + err.str();
    std::remove(base_path.c_str());
    std::remove(cur_path.c_str());
    return rc;
}

TEST(QmprofDiff, IdenticalReportsPass)
{
    std::string text;
    EXPECT_EQ(diffDocs(benchDoc(1000), benchDoc(1000), &text), 0);
    EXPECT_NE(text.find("unchanged"), std::string::npos);
    EXPECT_NE(text.find("all 1 baseline cells within tolerance"),
              std::string::npos);
}

TEST(QmprofDiff, SmallDriftWithinTolerancePasses)
{
    // +5% < the default 10% cycle tolerance; reported as a note.
    std::string text;
    EXPECT_EQ(diffDocs(benchDoc(1000), benchDoc(1050), &text), 0);
    EXPECT_NE(text.find("slower"), std::string::npos);
}

TEST(QmprofDiff, RegressionPastToleranceFails)
{
    std::string text;
    EXPECT_EQ(diffDocs(benchDoc(1000), benchDoc(1200), &text), 1);
    EXPECT_NE(text.find("FAIL"), std::string::npos);
    EXPECT_NE(text.find("refresh the baseline"), std::string::npos);
}

TEST(QmprofDiff, TightenedToleranceCatchesSmallDrift)
{
    obs::DiffOptions options;
    options.tolerance = 0.01;
    EXPECT_EQ(diffDocs(benchDoc(1000), benchDoc(1050), nullptr,
                       options),
              1);
}

TEST(QmprofDiff, UnverifiedCurrentCellFails)
{
    std::string text;
    EXPECT_EQ(diffDocs(benchDoc(1000), benchDoc(1000, false), &text),
              1);
    EXPECT_NE(text.find("no longer verifies"), std::string::npos);
}

TEST(QmprofDiff, MissingCurrentCellFails)
{
    std::string current =
        "{\"bench\":\"t\",\"series\":[{\"name\":\"s\",\"runs\":[]}]}";
    std::string text;
    EXPECT_EQ(diffDocs(benchDoc(1000), current, &text), 1);
    EXPECT_NE(text.find("missing from current report"),
              std::string::npos);
}

TEST(QmprofDiff, NewCellWithoutBaselineIsANoteNotAFailure)
{
    std::string current =
        "{\"bench\":\"t\",\"series\":[{\"name\":\"s\",\"runs\":"
        "[{\"pes\":4,\"completed\":true,\"verified\":true,"
        "\"cycles\":1000},{\"pes\":8,\"completed\":true,"
        "\"verified\":true,\"cycles\":600}]}]}";
    std::string text;
    EXPECT_EQ(diffDocs(benchDoc(1000), current, &text), 0);
    EXPECT_NE(text.find("new cell, no baseline"), std::string::npos);
}

TEST(QmprofDiff, UnreadableInputExitsTwo)
{
    std::string good_path = tempPath("diff_good.json");
    writeFile(good_path, benchDoc(1000));
    std::ostringstream out, err;
    EXPECT_EQ(obs::diffReports(tempPath("diff_nope.json"), good_path,
                               {}, out, err),
              2);
    std::remove(good_path.c_str());
}

TEST(QmprofDiff, MismatchedBenchNamesFail)
{
    std::string other =
        "{\"bench\":\"other\",\"series\":[{\"name\":\"s\",\"runs\":"
        "[{\"pes\":4,\"completed\":true,\"verified\":true,"
        "\"cycles\":1000}]}]}";
    std::string text;
    EXPECT_EQ(diffDocs(benchDoc(1000), other, &text), 1);
    EXPECT_NE(text.find("comparing different benches"),
              std::string::npos);
}

// --- qmprof flight -------------------------------------------------------

TEST(QmprofFlight, RendersPostMortemFromARealDump)
{
    obs::FlightRecorder recorder;
    // Context 7 dispatches then parks on a channel; context 8 finishes
    // and must not be blamed.
    trace::Event park =
        makeEvent(trace::EventKind::CtxPark, 120, 1, 7);
    park.a = 0;  // ParkReason::Channel
    recorder.record(makeEvent(trace::EventKind::CtxDispatch, 100, 1, 7));
    recorder.record(park);
    recorder.record(makeEvent(trace::EventKind::CtxDispatch, 90, 0, 8));
    recorder.record(makeEvent(trace::EventKind::CtxFinish, 110, 0, 8));
    recorder.record(makeEvent(trace::EventKind::TrapEnter, 95, 0));

    obs::FlightHeader header;
    header.reason = "deadlock: 1 live contexts, none runnable";
    header.cycle = 130;
    header.pes = 2;
    header.liveContexts = 1;
    std::string path = tempPath("postmortem.flight.json");
    ASSERT_TRUE(recorder.dumpToFile(path, header).ok());

    std::ostringstream out, err;
    EXPECT_EQ(obs::analyzeFlight(path, {}, out, err), 0);
    std::string text = out.str();
    EXPECT_NE(text.find("deadlock: 1 live contexts"),
              std::string::npos);
    EXPECT_NE(text.find("ctx 7: parked (channel)"),
              std::string::npos);
    EXPECT_EQ(text.find("ctx 8: parked"), std::string::npos);
    EXPECT_NE(text.find("probable cause"), std::string::npos);
    EXPECT_NE(text.find("parked and never redispatched"),
              std::string::npos);
    EXPECT_NE(text.find("ring sched: 4 recorded"), std::string::npos);
    std::remove(path.c_str());
}

TEST(QmprofFlight, RejectsNonFlightJson)
{
    std::string path = tempPath("notflight.json");
    writeFile(path, "{\"schema\":\"qm.metrics.v1\"}");
    std::ostringstream out, err;
    EXPECT_EQ(obs::analyzeFlight(path, {}, out, err), 2);
    std::remove(path.c_str());
}

} // namespace

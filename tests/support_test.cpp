/**
 * @file
 * Unit tests for the support library (diagnostics, stats, tables, RNG,
 * JSON writer, CLI parsing).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "support/cli.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"
#include "support/metric_catalog.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace qm;

TEST(Diagnostics, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
    try {
        panic("value=", 7);
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: value=7");
    }
}

TEST(Diagnostics, FatalThrowsRuntimeError)
{
    EXPECT_THROW(fatal("bad input"), FatalError);
}

TEST(Diagnostics, ConditionalVariantsFireOnlyWhenTrue)
{
    EXPECT_NO_THROW(panicIf(false, "no"));
    EXPECT_NO_THROW(fatalIf(false, "no"));
    EXPECT_THROW(panicIf(true, "yes"), PanicError);
    EXPECT_THROW(fatalIf(true, "yes"), FatalError);
}

TEST(Format, CatJoinsHeterogeneousValues)
{
    EXPECT_EQ(cat("a", 1, 'b', 2.5), "a1b2.5");
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
}

TEST(Stats, CountersAccumulate)
{
    StatSet stats;
    stats.inc("instructions");
    stats.inc("instructions", 9);
    EXPECT_EQ(stats.counter("instructions"), 10u);
    EXPECT_EQ(stats.counter("missing"), 0u);
    EXPECT_TRUE(stats.hasCounter("instructions"));
    EXPECT_FALSE(stats.hasCounter("missing"));
}

TEST(Stats, ScalarsOverwrite)
{
    StatSet stats;
    stats.set("speedup", 1.5);
    stats.set("speedup", 2.5);
    EXPECT_DOUBLE_EQ(stats.scalar("speedup"), 2.5);
}

TEST(Stats, MergeAddsCounters)
{
    // Folding a block into a registry adds to the counters it holds.
    StatBlock<metric::Owner::Cache> cache;
    cache.inc(metric::MsgRendezvous, 4);
    cache.inc(metric::MsgSendRequests);
    StatSet a;
    a.inc("msg.rendezvous", 3);
    cache.foldInto(a);
    EXPECT_EQ(a.counter("msg.rendezvous"), 7u);
    EXPECT_EQ(a.counter("msg.send_requests"), 1u);
}

TEST(Stats, RenderListsEverything)
{
    StatSet stats;
    stats.inc("cycles", 100);
    std::string text = stats.render();
    EXPECT_NE(text.find("cycles 100"), std::string::npos);
}

TEST(Histogram, BucketBoundariesArePowersOfTwo)
{
    // Bucket 0 is exact zeros; bucket i covers [2^(i-1), 2^i).
    EXPECT_EQ(Histogram::bucketIndex(0), 0);
    EXPECT_EQ(Histogram::bucketIndex(1), 1);
    EXPECT_EQ(Histogram::bucketIndex(2), 2);
    EXPECT_EQ(Histogram::bucketIndex(3), 2);
    EXPECT_EQ(Histogram::bucketIndex(4), 3);
    EXPECT_EQ(Histogram::bucketIndex(1023), 10);
    EXPECT_EQ(Histogram::bucketIndex(1024), 11);
    EXPECT_EQ(Histogram::bucketLow(2), 2u);
    EXPECT_EQ(Histogram::bucketHigh(2), 4u);
    EXPECT_EQ(Histogram::bucketLow(0), 0u);
    EXPECT_EQ(Histogram::bucketHigh(0), 1u);
    // Every non-overflow boundary is self-consistent: the low bound
    // lands in its own bucket, one less lands in the previous one.
    for (int i = 1; i < Histogram::kNumBuckets - 1; ++i) {
        EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketLow(i)), i);
        EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketHigh(i) - 1),
                  i);
    }
}

TEST(Histogram, OverflowBucketCatchesHugeSamples)
{
    const int last = Histogram::kNumBuckets - 1;
    EXPECT_EQ(Histogram::bucketIndex(std::uint64_t{1} << (last - 1)),
              last);
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}), last);
    Histogram h;
    h.sample(std::uint64_t{1} << 40);
    h.sample(3);
    EXPECT_EQ(h.bucketCount(last), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    // Count/sum/min/max stay exact even through the overflow bucket.
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.sum(), (std::uint64_t{1} << 40) + 3);
    EXPECT_EQ(h.min(), 3u);
    EXPECT_EQ(h.max(), std::uint64_t{1} << 40);
}

TEST(Histogram, ExactMomentsAndEmptyBehaviour)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    h.sample(0);
    h.sample(10);
    h.sample(20);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 30u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 20u);
    EXPECT_DOUBLE_EQ(h.mean(), 10.0);
    EXPECT_EQ(h.bucketCount(0), 1u);  // the zero sample
}

TEST(Histogram, PercentilesInterpolateWithinEnvelope)
{
    Histogram uniform;
    for (int i = 0; i < 100; ++i)
        uniform.sample(7);  // one bucket, one value
    EXPECT_DOUBLE_EQ(uniform.percentile(0), 7.0);
    EXPECT_DOUBLE_EQ(uniform.percentile(50), 7.0);
    EXPECT_DOUBLE_EQ(uniform.percentile(100), 7.0);

    Histogram spread;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        spread.sample(v);
    // Estimates are within a power of two and clamped to [min, max];
    // they must also be monotone in p.
    double p50 = spread.percentile(50);
    double p90 = spread.percentile(90);
    double p99 = spread.percentile(99);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p99, 1000.0);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_GT(p50, 256.0);   // true p50 is 500; bucket [512,1024)
    EXPECT_GT(p99, 512.0);   // true p99 is 990
}

TEST(Histogram, MergeIsExactBucketwiseAddition)
{
    Histogram a, b, reference;
    for (std::uint64_t v : {0u, 1u, 5u, 9u}) {
        a.sample(v);
        reference.sample(v);
    }
    for (std::uint64_t v : {2u, 5u, 1000u}) {
        b.sample(v);
        reference.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), reference.count());
    EXPECT_EQ(a.sum(), reference.sum());
    EXPECT_EQ(a.min(), reference.min());
    EXPECT_EQ(a.max(), reference.max());
    for (int i = 0; i < Histogram::kNumBuckets; ++i)
        EXPECT_EQ(a.bucketCount(i), reference.bucketCount(i));
    // Merging an empty histogram changes nothing.
    Histogram empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), reference.count());
    EXPECT_EQ(a.min(), reference.min());
}

TEST(Histogram, SingleSamplePercentilesAreExact)
{
    Histogram h;
    h.sample(42);
    for (double p : {0.0, 1.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), 42.0);
}

TEST(Histogram, OutOfRangePercentilesClampToTheValidRange)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.percentile(-10), h.percentile(0));
    EXPECT_DOUBLE_EQ(h.percentile(250), h.percentile(100));
}

TEST(Histogram, PercentileAtUint64MaxDoesNotWrap)
{
    // Regression: the bucket's upper cap used to be computed as
    // min(bucketHigh, max + 1), which wraps to 0 when max is
    // UINT64_MAX and collapses the overflow bucket to [lo, lo+1) -
    // p100 then reported ~min instead of ~max.
    Histogram h;
    h.sample(std::uint64_t{1} << 35);
    h.sample(~std::uint64_t{0});
    double p100 = h.percentile(100);
    EXPECT_GE(p100, 9.0e18);
    EXPECT_LE(h.percentile(50), p100);
}

TEST(Histogram, MergeSaturatesInsteadOfWrapping)
{
    std::array<std::uint64_t, Histogram::kNumBuckets> buckets{};
    std::uint64_t near_max = ~std::uint64_t{0} - 1;
    buckets[1] = near_max;  // all samples were 1
    std::optional<Histogram> raw =
        Histogram::fromRaw(near_max, near_max, 1, 1, buckets);
    ASSERT_TRUE(raw);
    Histogram big = *raw;
    Histogram small;
    small.sample(1);
    small.sample(1);
    small.sample(1);
    big.merge(small);
    // count/sum/bucket would each wrap to 1; they must pin instead.
    EXPECT_EQ(big.count(), ~std::uint64_t{0});
    EXPECT_EQ(big.sum(), ~std::uint64_t{0});
    EXPECT_EQ(big.bucketCount(1), ~std::uint64_t{0});
    EXPECT_EQ(big.min(), 1u);
    EXPECT_EQ(big.max(), 1u);
}

TEST(Stats, HistogramsRegisterAndRender)
{
    StatSet stats;
    Histogram latency;
    latency.sample(4);
    latency.sample(12);
    stats.merge("msg.latency", latency);
    EXPECT_TRUE(stats.hasHistogram("msg.latency"));
    EXPECT_FALSE(stats.hasHistogram("missing"));
    EXPECT_EQ(stats.histogram("msg.latency").count(), 2u);
    EXPECT_EQ(stats.histogramMap().size(), 1u);
    std::string text = stats.render();
    EXPECT_NE(text.find("msg.latency"), std::string::npos);
}

TEST(StatBlock, FoldPrefixesEveryKind)
{
    // A per-PE view folds each touched entry under "pe<N>.".
    StatBlock<metric::Owner::PeView> view;
    view.set(metric::ViewClock, 99.0);
    view.record(metric::ViewReadyWait, 7);
    StatSet stats;
    view.foldInto(stats, metric::pePrefix(3));
    EXPECT_DOUBLE_EQ(stats.scalar("pe3.clock"), 99.0);
    EXPECT_EQ(stats.histogram("pe3.ready_wait").count(), 1u);
    EXPECT_FALSE(stats.hasHistogram("pe3.residency"));
    EXPECT_EQ(stats.scalarMap().size(), 1u);
}

TEST(StatBlock, FoldCreatesOnlyTouchedEntries)
{
    StatBlock<metric::Owner::Pe> pe;
    pe.inc(metric::PeInstructions, 5);
    pe.inc(metric::FaultPeStallCycles, 0);  // touched, so it shows
    pe.record(metric::PeTrapService, 30);
    StatSet total;
    total.inc("pe.instructions", 1);
    pe.foldInto(total);
    pe.foldInto(total, "pe1.");
    EXPECT_EQ(total.counter("pe.instructions"), 6u);
    EXPECT_EQ(total.counter("pe1.pe.instructions"), 5u);
    EXPECT_TRUE(total.hasCounter("pe1.fault.pe_stall_cycles"));
    EXPECT_FALSE(total.hasCounter("pe.traps"));
    EXPECT_EQ(total.counterMap().size(), 4u);
    EXPECT_EQ(total.histogram("pe1.pe.trap_service").sum(), 30u);
    EXPECT_EQ(total.histogram("pe.trap_service").count(), 1u);
}

TEST(StatBlock, RecordingAnotherBlocksEntryPanics)
{
    StatBlock<metric::Owner::Bus> bus;
    EXPECT_THROW(bus.inc(metric::PeInstructions), PanicError);
    EXPECT_THROW(bus.record(metric::BusHopCount, 1), PanicError);
    EXPECT_EQ(bus.counter(metric::BusHopCount), 0u);
    EXPECT_TRUE(bus.folded().counterMap().empty());  // nothing touched
}

TEST(Stats, MergeFoldsHistogramsExactly)
{
    StatSet a;
    Histogram one;
    one.sample(1);
    a.merge("bus.hops", one);
    Histogram b;
    b.sample(3);
    b.sample(3);
    a.merge("bus.hops", b);
    EXPECT_EQ(a.histogram("bus.hops").count(), 3u);
    EXPECT_EQ(a.histogram("bus.hops").sum(), 7u);
}

TEST(JsonParse, ReadsNestedDocument)
{
    JsonValue doc = parseJson(
        "{\"n\": 42, \"x\": -1.5, \"s\": \"a\\nb\", \"flag\": true,"
        " \"list\": [1, 2, 3], \"obj\": {\"inner\": \"yes\"}}");
    EXPECT_TRUE(doc.isObject());
    EXPECT_EQ(doc.intval("n"), 42);
    EXPECT_DOUBLE_EQ(doc.num("x"), -1.5);
    EXPECT_EQ(doc.str("s"), "a\nb");
    EXPECT_TRUE(doc.get("flag").boolean);
    EXPECT_EQ(doc.get("list").items.size(), 3u);
    EXPECT_DOUBLE_EQ(doc.get("list").items[1].number, 2.0);
    EXPECT_EQ(doc.get("obj").str("inner"), "yes");
    // Absent members come back as fallbacks / null sentinels.
    EXPECT_EQ(doc.intval("missing", -7), -7);
    EXPECT_EQ(doc.str("missing", "dflt"), "dflt");
    EXPECT_TRUE(doc.get("missing").isNull());
}

TEST(JsonParse, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{\"unterminated\": "), FatalError);
    EXPECT_THROW(parseJson("[1, 2,"), FatalError);
    EXPECT_THROW(parseJson("nope"), FatalError);
    EXPECT_THROW(parseJson(""), FatalError);
}

TEST(Table, AlignsColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"x", "10"});
    table.addRow({"longer", "2"});
    std::string text = table.render();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("longer"), std::string::npos);
    // Each line has the same structure; the separator row exists.
    EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, RejectsRaggedRows)
{
    TextTable table({"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), PanicError);
}

TEST(Json, WritesNestedStructure)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject()
        .key("name").value("bench")
        .key("ok").value(true)
        .key("runs").beginArray()
        .value(1).value(2)
        .endArray()
        .endObject();
    EXPECT_EQ(os.str(), "{\"name\":\"bench\",\"ok\":true,"
                        "\"runs\":[1,2]}");
}

TEST(Json, FiniteDoublesKeepFixedPrecision)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.value(2.5);
    EXPECT_EQ(os.str(), "2.500000");
}

TEST(Json, NonFiniteDoublesBecomeNull)
{
    // Regression: nan/inf used to stream as bare `nan`/`inf` tokens,
    // which no JSON parser accepts - one timed-out ratio invalidated
    // the whole BENCH_*.json document.
    std::ostringstream os;
    JsonWriter json(os);
    json.beginArray()
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(std::numeric_limits<double>::infinity())
        .value(-std::numeric_limits<double>::infinity())
        .value(1.0)
        .endArray();
    EXPECT_EQ(os.str(), "[null,null,null,1.000000]");
}

TEST(Cli, ParsesIntegersInRange)
{
    EXPECT_EQ(parseIntArg("42", "--n", 1, 100), 42);
    EXPECT_EQ(parseIntArg("-3", "--n", -10, 10), -3);
    EXPECT_EQ(parsePositiveIntArg("8", "--jobs"), 8);
}

TEST(Cli, RejectsMalformedOrOutOfRangeArguments)
{
    EXPECT_THROW(parseIntArg("foo", "--n", 1, 100), FatalError);
    EXPECT_THROW(parseIntArg("", "--n", 1, 100), FatalError);
    EXPECT_THROW(parseIntArg("12x", "--n", 1, 100), FatalError);
    EXPECT_THROW(parseIntArg("101", "--n", 1, 100), FatalError);
    EXPECT_THROW(parsePositiveIntArg("0", "--pes"), FatalError);
    EXPECT_THROW(parsePositiveIntArg("-4", "--pes"), FatalError);
    EXPECT_THROW(parsePositiveIntArg("99999999999999999999", "--pes"),
                 FatalError);
}

TEST(Rng, DeterministicAcrossInstances)
{
    SplitMix64 a(12345), b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeStaysInBounds)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i) {
        std::int64_t v = rng.range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

} // namespace

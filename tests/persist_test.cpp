/**
 * @file
 * Durability suite: durable checkpoint save/load/resume byte-identity
 * across topologies and fault injection; a corrupt-checkpoint
 * fuzzer (bit flips and truncations must be detected and refused with
 * a structured error, never a crash or a silently-wrong resume); the
 * sweep completion journal (replay identity, torn tails, fingerprint
 * mismatch); in-memory snapshot/restore identity under flat and
 * hierarchical topologies; page snapshots checked against a flat
 * byte-vector oracle; and the checkpoint bytes themselves (reload
 * identity, hostile MEMS, KERN and CACH payloads behind valid CRCs,
 * and CRC32 pins of every checkpoint section and of a journal row
 * across commits).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "mp/system.hpp"
#include "occam/compiler.hpp"
#include "pe/memory.hpp"
#include "persist/io.hpp"
#include "persist/state_codec.hpp"
#include "programs/benchmarks.hpp"
#include "run_result_expect.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "sim/metrics.hpp"
#include "support/diagnostics.hpp"
#include "support/shutdown.hpp"
#include "trace/export.hpp"

namespace {

using namespace qm;

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

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "persist_test_" + name;
}

/** Every surface a resumed run must reproduce byte-for-byte. */
struct Surfaces
{
    mp::RunResult result;
    std::string stats;
    std::string trace;
    std::vector<std::uint8_t> memory;
};

Surfaces
capture(mp::System &system, const mp::RunResult &result)
{
    Surfaces s;
    s.result = result;
    s.stats = system.stats().render();
    s.trace = trace::chromeTraceJson(system.tracer());
    const pe::Memory &memory = system.memory();
    s.memory.assign(memory.data(), memory.data() + memory.size());
    return s;
}

void
expectIdentical(const Surfaces &a, const Surfaces &b)
{
    testutil::expectSameRunResult(a.result, b.result);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.memory, b.memory);
}

/**
 * Drive one full run that persists its @p target_snapshot-th snapshot
 * to @p path (the last one if the run snapshots fewer times), and
 * return the uninterrupted run's surfaces.
 */
Surfaces
runSaving(const mp::SystemConfig &config, const std::string &path,
          int target_snapshot)
{
    const occam::CompiledProgram &program = pipelineProgram();
    mp::System system(program.object, config);
    int seen = 0;
    system.setCheckpointSink([&](mp::System &s) {
        ++seen;
        // Persist the target snapshot, then keep overwriting until a
        // later one passes it (covers "last one wins" too).
        if (seen <= target_snapshot) {
            persist::Status st = s.saveCheckpoint(path);
            ASSERT_TRUE(st.ok()) << st.toString();
        }
    });
    mp::RunResult result = system.run(program.mainLabel);
    EXPECT_TRUE(result.completed) << result.failureReason;
    EXPECT_GE(seen, 1);
    return capture(system, result);
}

/** Warm-start from @p path under @p config and return the surfaces. */
Surfaces
resumeFrom(const mp::SystemConfig &config, const std::string &path)
{
    const occam::CompiledProgram &program = pipelineProgram();
    mp::System system(program.object, config);
    persist::Status st = system.loadCheckpoint(path);
    EXPECT_TRUE(st.ok()) << st.toString();
    mp::RunResult result = system.resume();
    EXPECT_TRUE(result.completed) << result.failureReason;
    return capture(system, result);
}

mp::SystemConfig
baseConfig(int pes)
{
    mp::SystemConfig config;
    config.numPes = pes;
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 150;
    config.traceConfig.enabled = true;
    return config;
}

// ---------------------------------------------------------------------------
// Durable checkpoint: resume byte-identity.
// ---------------------------------------------------------------------------

struct ResumeCase
{
    const char *name;
    const char *topology;  ///< nullptr = default flat ring.
    int pes;
    /** Snapshot interval; rows differ, so resumes start at other points. */
    mp::Cycle checkpointEvery;
};

// Without PrintTo gtest prints a parameter as its raw bytes, pointers
// included, and gtest_discover_tests puts them into the ctest names.
void
PrintTo(const ResumeCase &c, std::ostream *os)
{
    *os << c.name;
}

class DurableResumeTest : public ::testing::TestWithParam<ResumeCase>
{
};

TEST_P(DurableResumeTest, ResumeMatchesUninterruptedRun)
{
    const ResumeCase &c = GetParam();
    std::string path = tempPath(std::string("resume_") + c.name + ".qmc");
    mp::SystemConfig config = baseConfig(c.pes);
    config.recovery.checkpointEvery = c.checkpointEvery;
    if (c.topology)
        config.setTopology(mp::parseTopology(c.topology));
    // Resume every prefix: the 1st, 2nd, ... snapshot must each warm-
    // start into the same completed run the uninterrupted one saw.
    for (int target = 1; target <= 3; ++target) {
        Surfaces full = runSaving(config, path, target);
        Surfaces resumed = resumeFrom(config, path);
        expectIdentical(full, resumed);
    }
    std::remove(path.c_str());
}

// The row names keep the "_event" suffix from when rows also chose the
// simulation core.
INSTANTIATE_TEST_SUITE_P(
    Topologies, DurableResumeTest,
    ::testing::Values(ResumeCase{"flat_event", nullptr, 4, 150},
                      ResumeCase{"ring4_event", "ring:4", 8, 100},
                      ResumeCase{"rings2x2_event", "rings:2x2", 8, 250}),
    [](const ::testing::TestParamInfo<ResumeCase> &info) {
        return info.param.name;
    });

TEST(DurableResumeTest, FaultInjectedResumeMatchesUninterrupted)
{
    // The injector's SplitMix64 stream state is persisted, so the
    // resumed run draws the same fault schedule the uninterrupted one
    // drew past the snapshot point.
    std::string path = tempPath("resume_faults.qmc");
    mp::SystemConfig config = baseConfig(4);
    config.faultPlan =
        fault::parseFaultPlan("seed=42,rate=0.01,kinds=drop+delay");
    Surfaces full = runSaving(config, path, 2);
    Surfaces resumed = resumeFrom(config, path);
    expectIdentical(full, resumed);
    std::remove(path.c_str());
}

TEST(DurableResumeTest, MismatchedConfigRefused)
{
    std::string path = tempPath("resume_mismatch.qmc");
    mp::SystemConfig config = baseConfig(4);
    runSaving(config, path, 1);

    const occam::CompiledProgram &program = pipelineProgram();
    mp::SystemConfig other = baseConfig(8);  // different machine shape
    mp::System system(program.object, other);
    persist::Status st = system.loadCheckpoint(path);
    EXPECT_EQ(st.code, persist::ErrCode::Mismatch);
    EXPECT_NE(st.message.find("pes=4"), std::string::npos)
        << st.toString();
    // The refused system is still cold and runnable.
    mp::RunResult result = system.run(program.mainLabel);
    EXPECT_TRUE(result.completed) << result.failureReason;
    std::remove(path.c_str());
}

TEST(DurableResumeTest, LoadAfterBootRefused)
{
    std::string path = tempPath("resume_booted.qmc");
    mp::SystemConfig config = baseConfig(4);
    runSaving(config, path, 1);

    const occam::CompiledProgram &program = pipelineProgram();
    mp::System system(program.object, config);
    mp::RunResult result = system.run(program.mainLabel);
    ASSERT_TRUE(result.completed);
    persist::Status st = system.loadCheckpoint(path);
    EXPECT_EQ(st.code, persist::ErrCode::Mismatch);
    std::remove(path.c_str());
}

TEST(DurableResumeTest, SaveWithoutRecoveryRefused)
{
    const occam::CompiledProgram &program = pipelineProgram();
    mp::SystemConfig config;
    config.numPes = 2;
    mp::System system(program.object, config);
    persist::Status st = system.saveCheckpoint(tempPath("never.qmc"));
    EXPECT_EQ(st.code, persist::ErrCode::Mismatch);
}

// ---------------------------------------------------------------------------
// Corrupt-checkpoint fuzzer: detected, refused, cold start survives.
// ---------------------------------------------------------------------------

TEST(CorruptCheckpointTest, BitFlipsDetectedAndRefused)
{
    std::string path = tempPath("fuzz_flip.qmc");
    mp::SystemConfig config = baseConfig(4);
    runSaving(config, path, 2);
    std::vector<std::uint8_t> image;
    ASSERT_TRUE(persist::readFile(path, image).ok());
    ASSERT_GT(image.size(), 64u);

    const occam::CompiledProgram &program = pipelineProgram();
    // Deterministic sweep: flip one bit every 97 bytes (hits header,
    // tags, lengths, CRCs, and payload bytes across every section).
    int checked = 0;
    for (std::size_t pos = 0; pos < image.size(); pos += 97) {
        std::vector<std::uint8_t> bad = image;
        bad[pos] ^= 1u << (pos % 8);
        ASSERT_TRUE(persist::writeFileAtomic(path, bad).ok());
        mp::System system(program.object, config);
        persist::Status st = system.loadCheckpoint(path);
        EXPECT_FALSE(st.ok()) << "undetected bit flip at byte " << pos;
        EXPECT_FALSE(st.message.empty());
        // A refused load leaves the system cold: it must boot and run.
        // Actually running every case would dominate the suite, so
        // spot-check a sample (detection itself is checked for all).
        if (checked++ % 16 == 0) {
            mp::RunResult result = system.run(program.mainLabel);
            EXPECT_TRUE(result.completed) << result.failureReason;
        }
    }
    std::remove(path.c_str());
}

TEST(CorruptCheckpointTest, TruncationsDetectedAndRefused)
{
    std::string path = tempPath("fuzz_trunc.qmc");
    mp::SystemConfig config = baseConfig(4);
    runSaving(config, path, 2);
    std::vector<std::uint8_t> image;
    ASSERT_TRUE(persist::readFile(path, image).ok());

    const occam::CompiledProgram &program = pipelineProgram();
    // Every prefix length along a stride, plus the boundary cases.
    std::vector<std::size_t> cuts = {0, 1, 7, 8, 23, 24};
    for (std::size_t cut = 31; cut < image.size(); cut += 211)
        cuts.push_back(cut);
    int checked = 0;
    for (std::size_t cut : cuts) {
        std::vector<std::uint8_t> bad(image.begin(),
                                      image.begin() +
                                          static_cast<long>(cut));
        ASSERT_TRUE(persist::writeFileAtomic(path, bad).ok());
        mp::System system(program.object, config);
        persist::Status st = system.loadCheckpoint(path);
        EXPECT_FALSE(st.ok()) << "undetected truncation at " << cut;
        if (checked++ % 16 == 0) {
            mp::RunResult result = system.run(program.mainLabel);
            EXPECT_TRUE(result.completed) << result.failureReason;
        }
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Checkpoint bytes: reload identity, and structurally hostile sections
// behind valid CRCs.
// ---------------------------------------------------------------------------

/** The container every checkpoint file is (see System::saveCheckpoint). */
constexpr const char *kCheckpointMagic = "QMCKPT01";
constexpr std::uint32_t kCheckpointVersion = 1;

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(persist::readFile(path, bytes).ok()) << path;
    return bytes;
}

std::vector<persist::Section>
readSections(const std::string &path)
{
    std::vector<persist::Section> sections;
    persist::Status st = persist::parseContainer(
        readBytes(path), kCheckpointMagic, kCheckpointVersion, sections);
    EXPECT_TRUE(st.ok()) << st.toString();
    return sections;
}

std::vector<std::uint8_t> &
payloadOf(std::vector<persist::Section> &sections, const std::string &tag)
{
    for (persist::Section &s : sections)
        if (s.tag == tag)
            return s.payload;
    ADD_FAILURE() << "no section " << tag;
    static std::vector<std::uint8_t> none;
    return none;
}

/** Rebuild @p sections into a checkpoint at @p path and load it. */
persist::Status
loadSections(const mp::SystemConfig &config, const std::string &path,
             const std::vector<persist::Section> &sections)
{
    EXPECT_TRUE(persist::writeFileAtomic(
                    path, persist::buildContainer(kCheckpointMagic,
                                                  kCheckpointVersion,
                                                  sections))
                    .ok());
    mp::System system(pipelineProgram().object, config);
    return system.loadCheckpoint(path);
}

TEST(PersistCheckpointBytesTest, ReloadedCheckpointSavesIdentically)
{
    // save -> load into a fresh System -> save is the identity on the
    // file, so the MEMS codec (and every other section's) loses
    // nothing and invents nothing.
    std::string path = tempPath("reload_a.qmc");
    std::string again = tempPath("reload_b.qmc");
    mp::SystemConfig faulty = baseConfig(4);
    faulty.faultPlan =
        fault::parseFaultPlan("seed=42,rate=0.01,kinds=drop+delay");
    mp::SystemConfig rings = baseConfig(8);
    rings.setTopology(mp::parseTopology("rings:2x2"));
    for (const mp::SystemConfig &config : {baseConfig(4), faulty, rings}) {
        for (int target = 1; target <= 3; ++target) {
            runSaving(config, path, target);
            mp::System system(pipelineProgram().object, config);
            persist::Status st = system.loadCheckpoint(path);
            ASSERT_TRUE(st.ok()) << st.toString();
            st = system.saveCheckpoint(again);
            ASSERT_TRUE(st.ok()) << st.toString();
            EXPECT_EQ(readBytes(path), readBytes(again))
                << "snapshot " << target;
        }
    }
    std::remove(path.c_str());
    std::remove(again.c_str());
}

TEST(PersistCheckpointBytesTest, HostileMemoryImagesRefused)
{
    std::string path = tempPath("hostile_mems.qmc");
    mp::SystemConfig config = baseConfig(4);
    runSaving(config, path, 2);
    std::vector<persist::Section> sections = readSections(path);
    const std::uint64_t size = mp::kMemoryBytes;

    struct Record
    {
        std::uint64_t offset;
        std::size_t length;
    };
    auto mems = [&](std::uint64_t count, std::vector<Record> records) {
        persist::Encoder enc;
        enc.u64(size);
        enc.u64(count);
        std::vector<std::uint8_t> bytes(2 * pe::kPageBytes, 0x5A);
        for (const Record &r : records) {
            enc.u64(r.offset);
            enc.blob(bytes.data(), r.length);
        }
        return enc.take();
    };
    const std::uint64_t last = size - pe::kPageBytes;
    struct Case
    {
        const char *name;
        std::vector<std::uint8_t> payload;
    };
    const Case cases[] = {
        {"unaligned offset", mems(1, {{100, pe::kPageBytes}})},
        {"offset past the end", mems(1, {{size, pe::kPageBytes}})},
        {"empty record", mems(1, {{0, 0}})},
        {"record longer than a page", mems(1, {{0, 2 * pe::kPageBytes}})},
        {"short page before the end", mems(1, {{0, 100}})},
        {"short last page of a whole-page memory", mems(1, {{last, 100}})},
        {"descending offsets",
         mems(2, {{8192, pe::kPageBytes}, {0, pe::kPageBytes}})},
        {"duplicate offsets",
         mems(2, {{4096, pe::kPageBytes}, {4096, pe::kPageBytes}})},
        {"page count far beyond the payload",
         mems(std::uint64_t{1} << 60, {{0, pe::kPageBytes}})},
        {"fewer records than the page count",
         mems(3, {{0, pe::kPageBytes}, {4096, pe::kPageBytes}})},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        std::vector<persist::Section> bad = sections;
        payloadOf(bad, "MEMS") = c.payload;
        persist::Status st = loadSections(config, path, bad);
        EXPECT_EQ(st.code, persist::ErrCode::BadFormat) << st.toString();
        EXPECT_NE(st.message.find("section MEMS"), std::string::npos)
            << st.toString();
    }
    // The well-formed edges load: no pages at all, and the last page.
    for (const auto &payload :
         {mems(0, {}), mems(2, {{0, pe::kPageBytes},
                                {last, pe::kPageBytes}})}) {
        std::vector<persist::Section> good = sections;
        payloadOf(good, "MEMS") = payload;
        persist::Status st = loadSections(config, path, good);
        EXPECT_TRUE(st.ok()) << st.toString();
    }
    std::remove(path.c_str());
}

TEST(PersistCheckpointBytesTest, FreePageListAliasingRefused)
{
    // A free queue page must be a page of the pool, listed once, and
    // not the operand-queue page of a live context: the next fork
    // would otherwise share that context's queue, and the resumed run
    // would die blaming the program. Patch the last free page of a
    // real checkpoint's KERN section; the container re-seals the CRC.
    std::string path = tempPath("alias_kern.qmc");
    mp::SystemConfig config = baseConfig(4);
    config.recovery.checkpointEvery = 1200;
    runSaving(config, path, 2);
    std::vector<persist::Section> sections = readSections(path);
    const std::vector<std::uint8_t> &kern = payloadOf(sections, "KERN");

    persist::Decoder dec(kern);
    std::size_t nctx = dec.length(dec.remaining());
    std::vector<isa::Addr> live;
    for (std::size_t i = 0; i < nctx; ++i) {
        mp::Context ctx;
        persist::fields(dec, ctx);
        if (ctx.status != mp::CtxStatus::Done)
            live.push_back(ctx.queuePage);
    }
    std::size_t list_at = kern.size() - dec.remaining();
    std::size_t nfree = dec.length(dec.remaining());
    std::vector<isa::Addr> free;
    for (std::size_t i = 0; i < nfree; ++i)
        free.push_back(dec.u32());
    ASSERT_TRUE(dec.ok()) << dec.error();
    ASSERT_FALSE(live.empty());
    ASSERT_GE(free.size(), 2u);
    std::size_t last_at = list_at + 8 + 4 * (free.size() - 1);

    const isa::Addr page_bytes = static_cast<isa::Addr>(config.pageWords) * 4;
    struct Case
    {
        const char *name;
        isa::Addr page;
        const char *needle;
    };
    const Case cases[] = {
        {"a live context's page", live.front(), "live context"},
        {"a page listed twice", free[free.size() - 2], "listed twice"},
        {"an unaligned page", free.back() + 4, "queue pool"},
        {"a page below the pool", mp::kQueuePagePool - page_bytes,
         "queue pool"},
        {"a page past the pool",
         mp::kQueuePagePool +
             static_cast<isa::Addr>(mp::kMaxLiveContexts) * page_bytes,
         "queue pool"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        std::vector<persist::Section> bad = sections;
        std::vector<std::uint8_t> &patched = payloadOf(bad, "KERN");
        for (int b = 0; b < 4; ++b)
            patched[last_at + static_cast<std::size_t>(b)] =
                static_cast<std::uint8_t>(c.page >> (8 * b));
        persist::Status st = loadSections(config, path, bad);
        EXPECT_EQ(st.code, persist::ErrCode::BadFormat) << st.toString();
        EXPECT_NE(st.message.find("section KERN: free queue page"),
                  std::string::npos)
            << st.toString();
        EXPECT_NE(st.message.find(c.needle), std::string::npos)
            << st.toString();
    }
    // The unpatched sections still load.
    EXPECT_TRUE(loadSections(config, path, sections).ok());
    std::remove(path.c_str());
}

/** Byte offsets of the KERN fields that follow its two leading lists. */
struct KernLayout
{
    std::size_t rrNext = 0;        ///< i64.
    std::size_t shardRr = 0;       ///< u64 count, then one i64 each.
    std::size_t shardRrCount = 0;
    std::size_t shardLive = 0;     ///< u64 count, then one u64 each.
};

KernLayout
kernLayout(const std::vector<std::uint8_t> &kern)
{
    persist::Decoder dec(kern);
    auto at = [&] { return kern.size() - dec.remaining(); };
    std::size_t nctx = dec.length(dec.remaining());
    for (std::size_t i = 0; i < nctx; ++i) {
        mp::Context ctx;
        persist::fields(dec, ctx);
    }
    std::size_t nfree = dec.length(dec.remaining());
    for (std::size_t i = 0; i < nfree; ++i)
        dec.u32();
    dec.u32();  // nextChannel
    dec.u32();  // heapNext
    KernLayout layout;
    layout.rrNext = at();
    dec.i64();
    layout.shardRr = at();
    layout.shardRrCount = dec.length(dec.remaining());
    for (std::size_t i = 0; i < layout.shardRrCount; ++i)
        dec.i64();
    layout.shardLive = at();
    EXPECT_TRUE(dec.ok()) << dec.error();
    return layout;
}

void
patchWord64(std::vector<std::uint8_t> &bytes, std::size_t at,
            std::int64_t value)
{
    for (int b = 0; b < 8; ++b)
        bytes[at + static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(value) >> (8 * b));
}

TEST(PersistCheckpointBytesTest, HostileKernelCursorsRefused)
{
    // The placement cursors index the PE slots unchecked on the next
    // fork, and the per-shard live counts must agree with the context
    // records: each hostile value is refused at load instead of
    // crashing (or silently skewing) the resumed run.
    std::string path = tempPath("hostile_cursor.qmc");
    mp::SystemConfig flat = baseConfig(4);
    mp::SystemConfig rings = baseConfig(8);
    rings.setTopology(mp::parseTopology("rings:2x2"));

    using Patch = std::function<void(std::vector<std::uint8_t> &,
                                     const KernLayout &)>;
    struct Case
    {
        const char *name;
        const mp::SystemConfig *config;
        Patch patch;
        const char *needle;
    };
    const Case cases[] = {
        {"rrNext below zero", &flat,
         [](auto &kern, const KernLayout &l) {
             patchWord64(kern, l.rrNext, -1);
         },
         "rrNext"},
        {"rrNext past the last PE", &flat,
         [](auto &kern, const KernLayout &l) {
             patchWord64(kern, l.rrNext, 4);
         },
         "rrNext"},
        {"shard cursors on a flat machine", &flat,
         [](auto &kern, const KernLayout &l) {
             patchWord64(kern, l.shardRr, 1);
             kern.insert(kern.begin() +
                             static_cast<std::ptrdiff_t>(l.shardRr + 8),
                         8, 0);
         },
         "shardRr"},
        {"shard cursors emptied on rings:2x2", &rings,
         [](auto &kern, const KernLayout &l) {
             patchWord64(kern, l.shardRr, 0);
             auto begin = kern.begin() +
                          static_cast<std::ptrdiff_t>(l.shardRr + 8);
             kern.erase(begin, begin + static_cast<std::ptrdiff_t>(
                                           8 * l.shardRrCount));
         },
         "shardRr"},
        {"shard cursor past its ring", &rings,
         [](auto &kern, const KernLayout &l) {
             patchWord64(kern, l.shardRr + 16, 4);
         },
         "shardRr"},
        {"shard cursor below zero", &rings,
         [](auto &kern, const KernLayout &l) {
             patchWord64(kern, l.shardRr + 8, -1);
         },
         "shardRr"},
        {"shard live count off by one", &rings,
         [](auto &kern, const KernLayout &l) {
             patchWord64(kern, l.shardLive + 8,
                         static_cast<std::int64_t>(kern[l.shardLive + 8]) +
                             1);
         },
         "live"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        runSaving(*c.config, path, 2);
        std::vector<persist::Section> sections = readSections(path);
        std::vector<std::uint8_t> &kern = payloadOf(sections, "KERN");
        KernLayout layout = kernLayout(kern);
        ASSERT_EQ(layout.shardRrCount,
                  c.config == &rings ? std::size_t{2} : std::size_t{0});
        ASSERT_TRUE(loadSections(*c.config, path, sections).ok());
        c.patch(kern, layout);
        persist::Status st = loadSections(*c.config, path, sections);
        EXPECT_EQ(st.code, persist::ErrCode::BadFormat) << st.toString();
        EXPECT_NE(st.message.find("section KERN: "), std::string::npos)
            << st.toString();
        EXPECT_NE(st.message.find(c.needle), std::string::npos)
            << st.toString();
    }
    std::remove(path.c_str());
}

TEST(PersistCheckpointBytesTest, HostileChannelWaitersRefused)
{
    // A parked sender or receiver is woken through contexts[id]: a
    // waiter naming a context the file does not have is refused.
    std::string path = tempPath("hostile_waiter.qmc");
    mp::SystemConfig config = baseConfig(4);
    runSaving(config, path, 2);
    std::vector<persist::Section> sections = readSections(path);
    for (bool send : {false, true}) {
        SCOPED_TRACE(send ? "send waiter" : "recv waiter");
        std::vector<persist::Section> bad = sections;
        std::vector<std::uint8_t> &cach = payloadOf(bad, "CACH");
        persist::Decoder dec(cach);
        msg::MessageCache::Snapshot snap;
        persist::fields(dec, snap);
        ASSERT_TRUE(dec.atEnd()) << dec.error();
        msg::ChannelEntry &entry = snap.entries[2];
        (send ? entry.sendWaiters : entry.recvWaiters).push_back(9999);
        persist::Encoder enc;
        persist::fields(enc, snap);
        cach = enc.take();
        persist::Status st = loadSections(config, path, bad);
        EXPECT_EQ(st.code, persist::ErrCode::BadFormat) << st.toString();
        EXPECT_NE(st.message.find("section CACH: "), std::string::npos)
            << st.toString();
        EXPECT_NE(st.message.find("9999"), std::string::npos)
            << st.toString();
    }
    EXPECT_TRUE(loadSections(config, path, sections).ok());
    std::remove(path.c_str());
}

TEST(PersistCheckpointBytesTest, OverfullChannelEntryRefused)
{
    // A channel entry holds at most kChannelDepth tokens, so a CACH
    // entry listing one more is refused, naming its channel, and the
    // machine stays cold and runs from the start.
    std::string path = tempPath("overfull_channel.qmc");
    mp::SystemConfig config = baseConfig(4);
    Surfaces original = runSaving(config, path, 2);
    std::vector<persist::Section> sections = readSections(path);
    std::vector<std::uint8_t> &cach = payloadOf(sections, "CACH");
    // The first (lowest) channel's entry: map count u64, channel u32,
    // nextSeq u64, token count u64, then 25 bytes per token.
    constexpr std::size_t kTokenBytes = 4 + 1 + 8 + 4 + 8;
    persist::Decoder dec(cach);
    ASSERT_GE(dec.u64(), 1u);
    isa::Word channel = dec.u32();
    dec.u64();
    std::size_t listed = dec.length(msg::TokenRing::max_size());
    ASSERT_TRUE(dec.ok()) << dec.error();
    std::size_t over = msg::TokenRing::max_size() + 1;
    patchWord64(cach, 20, static_cast<std::int64_t>(over));
    cach.insert(cach.begin() +
                    static_cast<std::ptrdiff_t>(28 + kTokenBytes * listed),
                kTokenBytes * (over - listed), std::uint8_t{0});
    ASSERT_TRUE(persist::writeFileAtomic(
                    path, persist::buildContainer(kCheckpointMagic,
                                                  kCheckpointVersion,
                                                  sections))
                    .ok());

    mp::System system(pipelineProgram().object, config);
    persist::Status st = system.loadCheckpoint(path);
    EXPECT_EQ(st.code, persist::ErrCode::BadFormat) << st.toString();
    EXPECT_NE(st.message.find(cat("section CACH: channel ", channel,
                                  " tokens ", over, " out of range")),
              std::string::npos)
        << st.toString();
    testutil::expectSameRunResult(
        original.result, system.run(pipelineProgram().mainLabel));
    std::remove(path.c_str());
}

TEST(PersistCheckpointBytesTest, WrappedTokenRingRoundTrips)
{
    // A ring that has wrapped lists its tokens oldest first: encode,
    // decode and encode again give the same bytes, and the decoded
    // entry hands the tokens out in the order the original would.
    msg::MessageCache cache;
    isa::Word next = 1;
    for (int i = 0; i < msg::kChannelDepth; ++i)
        cache.send(7, 1, next++);
    for (int i = 0; i < 5; ++i)
        cache.recv(7, 2);
    for (int i = 0; i < 5; ++i)
        cache.send(7, 1, next++);
    cache.send(7, 3, 99);  // parks: the ring is full
    cache.recv(300, 4);    // parks: nothing sent yet
    cache.send(2, 1, 42);
    const msg::MessageCache::Snapshot snap = cache.snapshot();
    persist::Encoder enc;
    persist::fields(enc, snap);

    persist::Decoder dec(enc.bytes());
    msg::MessageCache::Snapshot back;
    persist::fields(dec, back);
    ASSERT_TRUE(dec.atEnd()) << dec.error();
    persist::Encoder again;
    persist::fields(again, back);
    EXPECT_EQ(enc.bytes(), again.bytes());

    msg::MessageCache restored;
    restored.restore(back);
    for (isa::Word v = 6; v <= 13; ++v) {
        msg::ChannelOp mine = cache.recv(7, 2);
        msg::ChannelOp theirs = restored.recv(7, 2);
        EXPECT_EQ(*theirs.value, v);
        EXPECT_EQ(*mine.value, v);
        EXPECT_EQ(theirs.wake, mine.wake);
    }
    EXPECT_EQ(restored.send(300, 1, 5).wake, 4u);
    EXPECT_EQ(*restored.recv(2, 4).value, 42u);
}

/** A StatSet as its wire fields, so a test can write what none holds. */
struct RawStats
{
    struct Hist
    {
        std::string name;
        std::uint64_t count = 0, sum = 0, min = 0, max = 0;
        std::array<std::uint64_t, Histogram::kNumBuckets> buckets{};
    };
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> scalars;
    std::uint64_t distributions = 0;  ///< Written as that many records.
    std::vector<Hist> histograms;

    Hist &
    histogram(const std::string &name)
    {
        for (Hist &h : histograms)
            if (h.name == name)
                return h;
        ADD_FAILURE() << "no histogram " << name;
        return histograms.front();
    }

    /** Add a counter where an ordered registry would list it. */
    void
    addCounter(const std::string &name, std::uint64_t value)
    {
        counters.emplace_back(name, value);
        std::sort(counters.begin(), counters.end());
    }
};

RawStats
readRawStats(persist::Decoder &dec)
{
    RawStats raw;
    for (std::uint64_t n = dec.u64(); n > 0 && dec.ok(); --n) {
        std::string name = dec.str();
        raw.counters.emplace_back(name, dec.u64());
    }
    for (std::uint64_t n = dec.u64(); n > 0 && dec.ok(); --n) {
        std::string name = dec.str();
        raw.scalars.emplace_back(name, dec.f64());
    }
    raw.distributions = dec.u64();
    EXPECT_EQ(raw.distributions, 0u);
    for (std::uint64_t n = dec.u64(); n > 0 && dec.ok(); --n) {
        RawStats::Hist h;
        h.name = dec.str();
        h.count = dec.u64();
        h.sum = dec.u64();
        h.min = dec.u64();
        h.max = dec.u64();
        for (auto &bucket : h.buckets)
            bucket = dec.u64();
        raw.histograms.push_back(h);
    }
    EXPECT_TRUE(dec.ok()) << dec.error();
    return raw;
}

void
writeRawStats(persist::Encoder &enc, const RawStats &raw)
{
    enc.u64(raw.counters.size());
    for (const auto &[name, value] : raw.counters) {
        enc.str(name);
        enc.u64(value);
    }
    enc.u64(raw.scalars.size());
    for (const auto &[name, value] : raw.scalars) {
        enc.str(name);
        enc.f64(value);
    }
    enc.u64(raw.distributions);
    for (std::uint64_t i = 0; i < raw.distributions; ++i) {
        enc.str("queue_len");
        enc.u64(1);
        for (int moment = 0; moment < 3; ++moment)
            enc.f64(4.0);
    }
    enc.u64(raw.histograms.size());
    for (const RawStats::Hist &h : raw.histograms) {
        enc.str(h.name);
        for (std::uint64_t v : {h.count, h.sum, h.min, h.max})
            enc.u64(v);
        for (std::uint64_t bucket : h.buckets)
            enc.u64(bucket);
    }
}

/**
 * Offset of the StatSet in a STAT, SLOT (the first PE's), CACH or BUSS
 * payload: the bytes the other fields of that section take first.
 */
std::size_t
statsOffset(const std::string &tag, const std::vector<std::uint8_t> &payload)
{
    persist::Decoder dec(payload);
    auto skip = [&](std::uint64_t bytes) {
        for (; bytes > 0; --bytes)
            dec.u8();
    };
    if (tag == "SLOT") {
        dec.u64();                   // PE count
        skip(4 * 8 + 1);             // cycle fields, dead flag
        skip(dec.u64() * (8 + 4));   // ready queue
    } else if (tag == "CACH") {
        for (std::uint64_t n = dec.u64(); n > 0; --n) {
            skip(4 + 8);                            // channel, nextSeq
            skip(dec.u64() * (4 + 1 + 8 + 4 + 8));  // tokens
            skip(dec.u64() * 4);                    // send waiters
            skip(dec.u64() * 4);                    // recv waiters
        }
    } else if (tag == "BUSS") {
        for (int pool = 0; pool < 3; ++pool)
            skip(dec.u64() * 8);
    }
    EXPECT_TRUE(dec.ok()) << dec.error();
    return payload.size() - dec.remaining();
}

TEST(PersistCheckpointBytesTest, HostileStatisticsRefused)
{
    // Every section's statistics are decoded from a StatSet, then
    // placed by catalog name. Bytes no registry could have written -
    // a histogram whose min lies above its max would abort
    // Histogram::percentile in the resumed run's report - and names
    // the catalog does not give that section are refused at load.
    // Each case patches one real checkpoint section; the container
    // re-seals the CRC.
    std::string path = tempPath("hostile_stats.qmc");
    mp::SystemConfig config = baseConfig(4);
    runSaving(config, path, 2);
    std::vector<persist::Section> sections = readSections(path);
    using Patch = std::function<void(RawStats &)>;
    struct Case
    {
        const char *name;
        const char *tag;
        Patch patch;
        const char *needle;
    };
    const Case cases[] = {
        {"histogram min above its max", "STAT",
         [](RawStats &s) {
             RawStats::Hist &h = s.histogram("pe1.ready_wait");
             h.min = h.max + 1000;
         },
         "histogram pe1.ready_wait (count"},
        {"histogram count off its buckets", "STAT",
         [](RawStats &s) { ++s.histogram("sys.ready_wait").count; },
         "histogram sys.ready_wait (count"},
        {"empty histogram with a sum", "STAT",
         [](RawStats &s) {
             RawStats::Hist &h = s.histogram("sys.residency");
             h.count = 0;
             h.buckets.fill(0);
         },
         "histogram sys.residency (count 0"},
        {"histogram min below its first bucket", "STAT",
         [](RawStats &s) {
             RawStats::Hist &h = s.histogram("sys.residency");
             ASSERT_GE(h.min, 2u);
             h.min = 1;
         },
         "histogram sys.residency (count"},
        {"histogram max past its last bucket", "STAT",
         [](RawStats &s) {
             RawStats::Hist &h = s.histogram("sys.residency");
             h.max = 4 * h.max + 4;
         },
         "histogram sys.residency (count"},
        {"counter listed twice", "STAT",
         [](RawStats &s) { s.counters.push_back(s.counters.back()); },
         "does not ascend"},
        {"counters out of order", "STAT",
         [](RawStats &s) { std::swap(s.counters[0], s.counters[1]); },
         "does not ascend"},
        {"a distribution", "STAT",
         [](RawStats &s) { s.distributions = 1; }, "distribution"},
        {"a name outside the catalog", "STAT",
         [](RawStats &s) { s.addCounter("sys.bogus", 1); },
         "counter sys.bogus is not one of this section's"},
        {"a histogram's name on a counter", "STAT",
         [](RawStats &s) { s.addCounter("sys.ready_wait", 1); },
         "counter sys.ready_wait is not one of this section's"},
        {"a PE's counter in the kernel's section", "STAT",
         [](RawStats &s) { s.addCounter("pe.instructions", 1); },
         "counter pe.instructions is not one of this section's"},
        {"a per-PE view of a PE the machine lacks", "STAT",
         [](RawStats &s) {
             RawStats::Hist h = s.histogram("pe1.ready_wait");
             h.name = "pe4.ready_wait";
             s.histograms.push_back(h);
             std::sort(s.histograms.begin(), s.histograms.end(),
                       [](const auto &a, const auto &b) {
                           return a.name < b.name;
                       });
         },
         "histogram pe4.ready_wait is not one of this section's"},
        {"a kernel counter in a PE's statistics", "SLOT",
         [](RawStats &s) { s.addCounter("sys.evictions", 1); },
         "counter sys.evictions is not one of this section's"},
        {"a bus counter in the cache's statistics", "CACH",
         [](RawStats &s) { s.addCounter("bus.hop_count", 1); },
         "counter bus.hop_count is not one of this section's"},
        {"bus histogram min above its max", "BUSS",
         [](RawStats &s) {
             RawStats::Hist &h = s.histogram("bus.latency");
             h.min = h.max + 1;
         },
         "histogram bus.latency (count"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        std::vector<persist::Section> bad = sections;
        std::vector<std::uint8_t> &payload = payloadOf(bad, c.tag);
        std::size_t at = statsOffset(c.tag, payload);
        persist::Decoder dec(payload.data() + at, payload.size() - at);
        RawStats raw = readRawStats(dec);
        std::size_t end = payload.size() - dec.remaining();
        c.patch(raw);
        persist::Encoder enc;
        writeRawStats(enc, raw);
        std::vector<std::uint8_t> patched(payload.begin(),
                                          payload.begin() +
                                              static_cast<std::ptrdiff_t>(at));
        patched.insert(patched.end(), enc.bytes().begin(), enc.bytes().end());
        patched.insert(patched.end(),
                       payload.begin() + static_cast<std::ptrdiff_t>(end),
                       payload.end());
        payload = patched;
        persist::Status st = loadSections(config, path, bad);
        EXPECT_EQ(st.code, persist::ErrCode::BadFormat) << st.toString();
        EXPECT_NE(st.message.find(cat("section ", c.tag, ": ")),
                  std::string::npos)
            << st.toString();
        EXPECT_NE(st.message.find(c.needle), std::string::npos)
            << st.toString();
    }
    EXPECT_TRUE(loadSections(config, path, sections).ok());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Format pins: the checkpoint and journal bytes across commits.
// ---------------------------------------------------------------------------

std::string
hex32(std::uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", v);
    return buf;
}

TEST(PersistFormatPinTest, CheckpointSectionsKeepTheirBytes)
{
    // ReloadedCheckpointSavesIdentically compares one build with
    // itself, so it still passes when a field moves on both the save
    // and the load side. These CRC32s pin the QMCKPT01 version 1
    // bytes of the pipeline program's second snapshot across commits.
    struct Pin
    {
        const char *tag;
        std::uint32_t crc;
    };
    struct Case
    {
        const char *name;
        mp::SystemConfig config;
        std::vector<Pin> pins;
    };
    mp::SystemConfig faulty = baseConfig(4);
    faulty.faultPlan =
        fault::parseFaultPlan("seed=42,rate=0.01,kinds=drop+delay");
    mp::SystemConfig rings = baseConfig(8);
    rings.setTopology(mp::parseTopology("rings:2x2"));
    const Case cases[] = {
        {"flat 4-PE faulty", faulty,
         {{"META", 0xde1f53db}, {"KERN", 0x3d54d247}, {"MEMS", 0xf47c0ec1},
          {"STAT", 0xa6d43fce}, {"CACH", 0x7a855ba3}, {"BUSS", 0x97fc16ca},
          {"SLOT", 0xfc28dfc7}, {"TRAC", 0x08e14073}, {"FALT", 0x49301c9a}}},
        {"rings:2x2", rings,
         {{"META", 0xf21ee460}, {"KERN", 0x2b4c8221}, {"MEMS", 0x86dfa309},
          {"STAT", 0x05ce8dd4}, {"CACH", 0xb6b50047}, {"BUSS", 0xe6afa524},
          {"SLOT", 0xff2a8715}, {"TRAC", 0xfc7c40c3}, {"FALT", 0xd202ef8d}}},
    };
    std::string path = tempPath("format_pin.qmc");
    for (const Case &c : cases) {
        runSaving(c.config, path, 2);
        std::vector<persist::Section> sections = readSections(path);
        ASSERT_EQ(sections.size(), c.pins.size()) << c.name;
        for (std::size_t i = 0; i < sections.size(); ++i) {
            const persist::Section &s = sections[i];
            std::uint32_t crc =
                persist::crc32(s.payload.data(), s.payload.size());
            EXPECT_EQ(s.tag, c.pins[i].tag) << c.name;
            EXPECT_EQ(hex32(crc), hex32(c.pins[i].crc))
                << "section " << s.tag << " of the " << c.name
                << " checkpoint changed its bytes; a deliberate format "
                   "change bumps kCheckpointVersion and re-pins this CRC "
                   "in CHANGES.md";
        }
    }
    std::remove(path.c_str());
}

/** A report whose every journaled field holds a distinct non-default value. */
sim::RunReport
distinctReport()
{
    sim::RunReport r;
    r.pes = 3;
    r.completed = true;
    r.verified = true;
    r.cycles = 101;
    r.instructions = 102;
    r.contexts = 103;
    r.rendezvous = 104;
    r.contextSwitches = 105;
    r.utilization = 0.375;
    r.computeCycles = 106;
    r.kernelCycles = 107;
    r.blockedCycles = 108;
    r.busCycles = 109;
    r.watchdogTripped = true;
    r.failureReason = "watchdog: pinned";
    r.faultsInjected = 110;
    r.faultRecoveries = 111;
    r.recovered = true;
    r.replays = 4;
    for (std::uint64_t k = 0; k < r.faultKinds.size(); ++k)
        r.faultKinds[k] = {200 + 3 * k, 201 + 3 * k, 202 + 3 * k};
    r.traceDropped = 112;
    r.hostAborted = true;
    r.stats.inc("sys.checkpoints", 6);
    r.stats.set("sys.share", 0.5);
    Histogram depth;
    depth.sample(9);
    r.stats.merge("queue.depth", depth);
    r.hostWallMs = 12.5;
    r.simCyclesPerSec = 8.25;
    r.telemetry = "{\"cycle\":1}\n";
    r.flightDumpPath = "run.flight.json";
    return r;
}

TEST(PersistFormatPinTest, JournalRowKeepsItsBytes)
{
    // The QMSWJNL2 row encoding, pinned across commits like the
    // checkpoint sections above.
    persist::Encoder enc;
    sim::encodeRunReport(enc, distinctReport());
    EXPECT_EQ(hex32(persist::crc32(enc.bytes().data(), enc.bytes().size())),
              hex32(0x301c24ba))
        << "the journal row encoding changed its bytes; a deliberate "
           "format change bumps the QMSWJNL magic and re-pins this CRC "
           "in CHANGES.md";
}

/**
 * The four rendered forms of a run's statistics registry, pinned across
 * commits: no other test sees a change in what the registry holds.
 */
TEST(StatsSurfacePinTest, RegistrySurfacesKeepTheirBytes)
{
    static const occam::CompiledProgram matmul =
        occam::compileOccam(programs::thesisBenchmarks()[0].source);
    mp::SystemConfig faulty;
    faulty.recovery.enabled = true;
    faulty.recovery.checkpointEvery = 200;
    faulty.faultPlan = fault::parseFaultPlan(
        "seed=7,rate=0.02,kinds=drop+dup+corrupt+stall+pekill,killat=400");
    mp::SystemConfig rings;
    rings.setTopology(mp::parseTopology("rings:2x2"));
    struct Case
    {
        const char *name;
        const occam::CompiledProgram *program;
        const char *resultArray;
        int pes;
        mp::SystemConfig config;
        std::array<std::uint32_t, 4> crcs;
    };
    const Case cases[] = {
        {"pipeline flat 4-PE faulty", &pipelineProgram(), "results", 4,
         faulty, {0xcf45944c, 0x524a86fd, 0xf41757f0, 0x18022f4d}},
        {"pipeline rings:2x2", &pipelineProgram(), "results", 8, rings,
         {0xe4513956, 0xd747b892, 0xd51e3f59, 0x8f418e4b}},
        {"matmul 8-PE", &matmul, "c", 8, {},
         {0x6a69d12a, 0x027e3433, 0x62c2a8f4, 0xd428a56c}},
    };
    std::string path = tempPath("stats_pin.json");
    for (const Case &c : cases) {
        mp::SystemConfig config = c.config;
        config.telemetryEvery = 100;
        config.telemetryLabel = c.name;
        sim::RunReport report =
            sim::runOnce(*c.program, c.resultArray, {}, c.pes, config);
        ASSERT_TRUE(report.completed) << c.name << ": "
                                      << report.failureReason;
        if (c.config.faultPlan.enabled()) {
            // Drop, dup, corrupt, stall and the planned pekill all fired.
            for (std::size_t kind : {0, 1, 3, 4, 5})
                EXPECT_GT(report.faultKinds[kind].injected, 0u) << kind;
        }
        sim::writeMetricsJson("pin", {{c.name, {report}}}, path);
        std::ifstream in(path);
        std::string metrics((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        const std::pair<const char *, std::string> surfaces[] = {
            {"stats().render()", report.stats.render()},
            {"qm.metrics.v1 document", metrics},
            {"telemetry stream", report.telemetry},
            {"renderPrometheus(stats())", renderPrometheus(report.stats)},
        };
        for (std::size_t i = 0; i < c.crcs.size(); ++i) {
            const std::string &bytes = surfaces[i].second;
            EXPECT_EQ(hex32(persist::crc32(bytes.data(), bytes.size())),
                      hex32(c.crcs[i]))
                << "the " << surfaces[i].first << " of the " << c.name
                << " run changed its bytes";
        }
    }
    std::remove(path.c_str());
}

TEST(CorruptCheckpointTest, MissingFileIsIoError)
{
    const occam::CompiledProgram &program = pipelineProgram();
    mp::SystemConfig config = baseConfig(2);
    mp::System system(program.object, config);
    persist::Status st =
        system.loadCheckpoint(tempPath("does_not_exist.qmc"));
    EXPECT_EQ(st.code, persist::ErrCode::Io);
}

// ---------------------------------------------------------------------------
// Sweep journal.
// ---------------------------------------------------------------------------

std::vector<sim::RunSpec>
journalSpecs(int n)
{
    std::vector<sim::RunSpec> specs;
    for (int i = 0; i < n; ++i) {
        sim::RunSpec spec;
        spec.program = &pipelineProgram();
        spec.resultArray = "results";
        spec.expected = {1496, 16};
        spec.pes = i + 1;
        specs.push_back(std::move(spec));
    }
    return specs;
}

TEST(SweepJournalTest, RunReportCodecRoundTrips)
{
    sim::RunReport report = distinctReport();
    persist::Encoder enc;
    sim::encodeRunReport(enc, report);
    persist::Decoder dec(enc.bytes());
    sim::RunReport back = sim::decodeRunReport(dec);
    ASSERT_TRUE(dec.ok()) << dec.error();
    EXPECT_TRUE(dec.atEnd());
    testutil::expectSameRunResult(back, report);
    EXPECT_EQ(back.pes, report.pes);
    EXPECT_EQ(back.verified, report.verified);
    EXPECT_EQ(back.stats.render(), report.stats.render());
    EXPECT_EQ(back.hostWallMs, report.hostWallMs);
    EXPECT_EQ(back.simCyclesPerSec, report.simCyclesPerSec);
    EXPECT_EQ(back.telemetry, report.telemetry);
    EXPECT_EQ(back.flightDumpPath, report.flightDumpPath);
}

TEST(SweepJournalTest, RetiredSlotsRefuseAnyOtherValue)
{
    // The attempts and quarantine slots of a row are retired: always
    // written as 1 and 0, and a row holding anything else is refused.
    persist::Encoder enc;
    sim::encodeRunReport(enc, distinctReport());
    const std::vector<std::uint8_t> &row = enc.bytes();
    // traceDropped (112), the two slots, then hostAborted (1).
    persist::Encoder around;
    around.u64(112);
    around.i64(1);
    around.u8(0);
    around.u8(1);
    auto at = std::search(row.begin(), row.end(), around.bytes().begin(),
                          around.bytes().end());
    ASSERT_NE(at, row.end());
    auto attempts = static_cast<std::size_t>(at - row.begin()) + 8;
    for (std::size_t offset : {attempts, attempts + 8}) {
        std::vector<std::uint8_t> bad = row;
        bad[offset] = 2;
        persist::Decoder dec(bad);
        sim::decodeRunReport(dec);
        EXPECT_FALSE(dec.ok()) << "byte " << offset;
        EXPECT_NE(dec.error().find("retired"), std::string::npos)
            << dec.error();
    }
}

TEST(SweepJournalTest, HostileHistogramRowIsRerun)
{
    // Rows decode through the checkpoint StatSet decoder: a histogram
    // whose min lies above its max, which would abort
    // Histogram::percentile when --metrics renders the row, makes the
    // row unreadable, so its run is simulated again.
    std::string path = tempPath("journal_hostile.journal");
    std::remove(path.c_str());
    std::vector<sim::RunSpec> specs = journalSpecs(2);
    sim::RunReport report;
    report.pes = 1;
    report.completed = true;
    Histogram h;
    h.sample(5);
    report.stats.merge("h", h);
    {
        sim::SweepJournal journal;
        ASSERT_TRUE(journal.open(path, "hostile", specs).ok());
        ASSERT_TRUE(journal.record(0, report).ok());
        ASSERT_TRUE(journal.record(1, report).ok());
    }
    const char *magic = "QMSWJNL2";
    std::string fingerprint = sim::sweepFingerprint("hostile", specs);
    std::vector<std::vector<std::uint8_t>> rows;
    ASSERT_TRUE(persist::readJournal(path, magic, fingerprint, rows).ok());
    ASSERT_EQ(rows.size(), 2u);
    // Row 1's histogram reads count 1, sum 5, min 5, max 5: raise min.
    persist::Encoder fields;
    for (std::uint64_t v : {1, 5, 5, 5})
        fields.u64(v);
    std::vector<std::uint8_t> &row = rows[1];
    auto at = std::search(row.begin(), row.end(), fields.bytes().begin(),
                          fields.bytes().end());
    ASSERT_NE(at, row.end());
    at[16] = 9;
    {
        persist::JournalWriter writer;
        ASSERT_TRUE(writer.open(path, magic, fingerprint, true).ok());
        for (const auto &r : rows) {
            ASSERT_TRUE(writer.append(r).ok());
        }
    }
    sim::SweepJournal journal;
    ASSERT_TRUE(journal.open(path, "hostile", specs).ok());
    EXPECT_TRUE(journal.has(0));
    EXPECT_FALSE(journal.has(1));
    std::remove(path.c_str());
}

TEST(SweepJournalTest, RecordsSurviveReopen)
{
    std::string path = tempPath("journal_reopen.journal");
    std::remove(path.c_str());
    std::vector<sim::RunSpec> specs = journalSpecs(3);

    sim::SweepJournal journal;
    ASSERT_TRUE(journal.open(path, "unit", specs).ok());
    EXPECT_EQ(journal.completedCount(), 0u);
    sim::RunReport r0;
    r0.pes = 1;
    r0.completed = true;
    ASSERT_TRUE(journal.record(0, r0).ok());
    sim::RunReport r2;
    r2.pes = 3;
    r2.failureReason = "watchdog: stuck";
    ASSERT_TRUE(journal.record(2, r2).ok());

    sim::SweepJournal again;
    ASSERT_TRUE(again.open(path, "unit", specs).ok());
    EXPECT_EQ(again.completedCount(), 2u);
    EXPECT_TRUE(again.has(0));
    EXPECT_FALSE(again.has(1));
    ASSERT_TRUE(again.has(2));
    EXPECT_TRUE(again.get(0).journalReplayed);
    EXPECT_EQ(again.get(2).failureReason, "watchdog: stuck");
    std::remove(path.c_str());
}

TEST(SweepJournalTest, TornTailIsCleanEnd)
{
    std::string path = tempPath("journal_torn.journal");
    std::remove(path.c_str());
    std::vector<sim::RunSpec> specs = journalSpecs(2);
    {
        sim::SweepJournal journal;
        ASSERT_TRUE(journal.open(path, "torn", specs).ok());
        sim::RunReport r;
        r.pes = 1;
        r.completed = true;
        ASSERT_TRUE(journal.record(0, r).ok());
    }
    // Simulate kill -9 mid-append: half a record marker at the tail.
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        std::fputc(0x52, f);
        std::fputc(0x45, f);
        std::fclose(f);
    }
    sim::SweepJournal journal;
    ASSERT_TRUE(journal.open(path, "torn", specs).ok());
    EXPECT_FALSE(journal.recreated());
    EXPECT_EQ(journal.completedCount(), 1u);
    EXPECT_TRUE(journal.has(0));
    // And the journal still accepts appends after the torn tail.
    sim::RunReport r;
    r.pes = 2;
    EXPECT_TRUE(journal.record(1, r).ok());
    std::remove(path.c_str());
}

TEST(SweepJournalTest, DifferentSweepRefused)
{
    std::string path = tempPath("journal_mismatch.journal");
    std::remove(path.c_str());
    std::vector<sim::RunSpec> specs = journalSpecs(2);
    {
        sim::SweepJournal journal;
        ASSERT_TRUE(journal.open(path, "sweep-a", specs).ok());
    }
    sim::SweepJournal journal;
    persist::Status st = journal.open(path, "sweep-b", specs);
    EXPECT_EQ(st.code, persist::ErrCode::Mismatch);
    std::remove(path.c_str());
}

TEST(SweepJournalTest, CorruptHeaderRecreated)
{
    std::string path = tempPath("journal_corrupt.journal");
    std::remove(path.c_str());
    std::vector<sim::RunSpec> specs = journalSpecs(2);
    {
        sim::SweepJournal journal;
        ASSERT_TRUE(journal.open(path, "corrupt", specs).ok());
        sim::RunReport r;
        r.pes = 1;
        ASSERT_TRUE(journal.record(0, r).ok());
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fputc('X', f);  // clobber the magic
        std::fclose(f);
    }
    sim::SweepJournal journal;
    ASSERT_TRUE(journal.open(path, "corrupt", specs).ok());
    EXPECT_TRUE(journal.recreated());
    EXPECT_EQ(journal.completedCount(), 0u);
    std::remove(path.c_str());
}

TEST(SweepJournalTest, RunAllReplaysJournaledRows)
{
    std::string dir = ::testing::TempDir();
    std::vector<sim::RunSpec> specs = journalSpecs(3);
    sim::RunPolicy policy{dir + "persist_test_runall", "runall"};
    std::filesystem::remove_all(policy.dir);
    std::filesystem::create_directory(policy.dir);

    // Three workers append to the journal at once, so a TSan build
    // checks concurrent appends.
    std::vector<sim::RunReport> first = sim::runAll(specs, 3, policy);
    ASSERT_EQ(first.size(), 3u);
    for (const sim::RunReport &r : first) {
        EXPECT_TRUE(r.verified);
        EXPECT_FALSE(r.journalReplayed);
    }
    std::vector<sim::RunReport> second = sim::runAll(specs, 2, policy);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(second[i].journalReplayed);
        EXPECT_EQ(second[i].cycles, first[i].cycles);
        EXPECT_EQ(second[i].stats.render(), first[i].stats.render());
    }
    std::filesystem::remove_all(policy.dir);
}

TEST(SweepJournalTest, ShutdownMarksRemainingSpecsInterrupted)
{
    support::requestShutdown();
    std::vector<sim::RunReport> reports =
        sim::runAll(journalSpecs(2), 1);
    support::clearShutdown();
    ASSERT_EQ(reports.size(), 2u);
    for (const sim::RunReport &r : reports) {
        EXPECT_TRUE(r.hostAborted);
        EXPECT_FALSE(r.completed);
        EXPECT_NE(r.failureReason.find("interrupted:"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// In-memory snapshot/restore identity (flat + hierarchical).
// ---------------------------------------------------------------------------

struct RestoreCase
{
    const char *name;
    const char *topology;  ///< nullptr = default flat ring.
    int pes;
};

void
PrintTo(const RestoreCase &c, std::ostream *os)
{
    *os << c.name;
}

class RestoreIdentityTest : public ::testing::TestWithParam<RestoreCase>
{
};

TEST_P(RestoreIdentityTest, ReplayFromCheckpointMatchesOriginal)
{
    const RestoreCase &c = GetParam();
    mp::SystemConfig config = baseConfig(c.pes);
    if (c.topology)
        config.setTopology(mp::parseTopology(c.topology));

    const occam::CompiledProgram &program = pipelineProgram();
    mp::System system(program.object, config);
    mp::RunResult result = system.run(program.mainLabel);
    ASSERT_TRUE(result.completed) << result.failureReason;
    Surfaces original = capture(system, result);

    // Roll back to the last periodic checkpoint and re-drive the tail:
    // a fault-free replay must land on the identical end state.
    ASSERT_TRUE(system.canRestore());
    system.restore();
    mp::RunResult replayed = system.resume();
    ASSERT_TRUE(replayed.completed) << replayed.failureReason;
    expectIdentical(original, capture(system, replayed));
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, RestoreIdentityTest,
    ::testing::Values(RestoreCase{"flat", nullptr, 4},
                      RestoreCase{"ring4", "ring:4", 8},
                      RestoreCase{"rings2x2", "rings:2x2", 8},
                      RestoreCase{"rings4x2", "rings:4x2", 8}),
    [](const ::testing::TestParamInfo<RestoreCase> &info) {
        return info.param.name;
    });

// ---------------------------------------------------------------------------
// Checkpoint replay: with recovery on, System::run rolls a failed run
// back to its last snapshot and re-runs it. A periodic checkpoint can
// already postdate the lost message, so both pinned plans take the
// boot snapshot alone. occamc prints the same two cases for
// examples/pipeline.occ on 4 PEs.
// ---------------------------------------------------------------------------

/** 4 PEs, recovery on, bus drops at @p seed_rate with no link retry. */
mp::SystemConfig
lossyConfig(const std::string &seed_rate)
{
    mp::SystemConfig config;
    config.numPes = 4;
    config.recovery.enabled = true;
    config.faultPlan =
        fault::parseFaultPlan(seed_rate + ",kinds=drop,retries=0");
    return config;
}

TEST(CheckpointReplayTest, OneBootReplayRescuesTheRun)
{
    sim::RunReport report =
        sim::runOnce(pipelineProgram(), "results", {1496, 16}, 4,
                     lossyConfig("seed=8,rate=0.7"));
    EXPECT_TRUE(report.completed) << report.failureReason;
    EXPECT_TRUE(report.verified);
    EXPECT_EQ(report.replays, 1);
    EXPECT_TRUE(report.recovered);
    EXPECT_EQ(report.cycles, 22828);
}

TEST(CheckpointReplayTest, ReplaysRunOutAndTheRunStillFails)
{
    sim::RunReport report = sim::runOnce(
        pipelineProgram(), "results", {}, 4, lossyConfig("seed=2,rate=0.75"));
    EXPECT_FALSE(report.completed);
    EXPECT_EQ(report.replays, fault::RecoveryPlan{}.maxReplays);
    EXPECT_FALSE(report.recovered);
    EXPECT_NE(report.failureReason.find("deadlock:"), std::string::npos)
        << report.failureReason;
}

TEST(CheckpointReplayTest, SystemRunReportsItsReplays)
{
    const occam::CompiledProgram &program = pipelineProgram();
    mp::SystemConfig config = lossyConfig("seed=8,rate=0.7");
    mp::System system(program.object, config);
    mp::RunResult result = system.run(program.mainLabel);
    EXPECT_TRUE(result.completed) << result.failureReason;
    EXPECT_EQ(result.replays, 1);
    EXPECT_TRUE(result.recovered);

    // With no replays allowed the same plan ends in the failure the
    // replay rescued.
    config.recovery.maxReplays = 0;
    mp::System bare(program.object, config);
    mp::RunResult failed = bare.run(program.mainLabel);
    EXPECT_FALSE(failed.completed);
    EXPECT_TRUE(failed.watchdogTripped);
    EXPECT_EQ(failed.replays, 0);
    EXPECT_FALSE(failed.recovered);
}

TEST(CheckpointReplayTest, PlannedKillFiresOncePerRun)
{
    // A recovered pekill rolls the machine back to its last snapshot
    // without the PE, and every later restore() re-applies the death,
    // so the kill fires once however many checkpoint replays the run
    // takes. Restores that re-armed the kill fired it again on each:
    // 2 kills with 1 replay and 3 with 2 under the two lossy plans.
    const std::vector<std::int32_t> expected = {1496, 16};
    constexpr std::size_t kPeKillIdx = 5;  // fault::kPeKill = 1u << 5
    for (const char *plan :
         {"kinds=pekill,killat=400",
          "seed=8,rate=0.7,kinds=drop,retries=0,killat=900",
          "seed=2,rate=0.75,kinds=drop,retries=0,killat=500"}) {
        SCOPED_TRACE(plan);
        mp::SystemConfig config;
        config.recovery.enabled = true;
        config.faultPlan = fault::parseFaultPlan(plan);
        sim::RunReport report =
            sim::runOnce(pipelineProgram(), "results", expected, 4, config);
        const auto &kill = report.faultKinds[kPeKillIdx];
        EXPECT_EQ(kill.injected, 1u);
        EXPECT_EQ(kill.detected, 1u);
        EXPECT_EQ(kill.recovered, 1u);
        if (report.completed) {
            EXPECT_TRUE(report.verified);
        } else {
            EXPECT_NE(report.failureReason.find("deadlock:"),
                      std::string::npos)
                << report.failureReason;
        }
    }
}

TEST(CheckpointReplayTest, ResumedKillRollsBackLikeTheUninterruptedRun)
{
    // A checkpoint taken before the kill carries it armed, so a process
    // resumed from it fires the kill at the same cycle and rolls back
    // to the same snapshot; one taken after carries the PE dead.
    mp::SystemConfig config = baseConfig(4);
    config.faultPlan = fault::parseFaultPlan("kinds=pekill,killat=400");
    std::string path = tempPath("resume_kill.qmc");
    for (int target = 1; target <= 5; ++target) {
        SCOPED_TRACE(target);
        Surfaces full = runSaving(config, path, target);
        Surfaces resumed = resumeFrom(config, path);
        expectIdentical(full, resumed);
    }
    std::remove(path.c_str());
}

TEST(CheckpointReplayTest, RestoreToALoadedCheckpointKeepsTelemetryGoing)
{
    // The file carries no telemetry schedule: loading aligns it to the
    // first boundary after the checkpoint, and a later restore() to
    // that checkpoint, here the kill's rollback, must align it again
    // rather than stop the stream.
    mp::SystemConfig config = baseConfig(4);
    config.recovery.checkpointEvery = 1000;
    config.telemetryEvery = 100;
    config.faultPlan = fault::parseFaultPlan("kinds=pekill,killat=1500");
    std::string path = tempPath("resume_telemetry.qmc");
    runSaving(config, path, 2);
    mp::System system(pipelineProgram().object, config);
    std::vector<mp::Cycle> stamps;
    system.setTelemetrySink(
        [&](mp::System &, mp::Cycle at) { stamps.push_back(at); });
    ASSERT_TRUE(system.loadCheckpoint(path).ok());
    mp::RunResult result = system.resume();
    ASSERT_TRUE(result.completed) << result.failureReason;
    ASSERT_FALSE(stamps.empty());
    EXPECT_GT(stamps.back(), config.faultPlan.killAt);
    std::remove(path.c_str());
}

TEST(CheckpointReplayTest, KillWithNoSurvivorIsNotRolledBack)
{
    // On 1 PE nothing survives the kill to re-run on: the run fails
    // where the kill struck, with the cycles it reached, and offers no
    // checkpoint replay, which would only kill the PE again.
    constexpr std::size_t kPeKillIdx = 5;  // fault::kPeKill = 1u << 5
    mp::SystemConfig config;
    config.recovery.enabled = true;
    config.faultPlan = fault::parseFaultPlan("kinds=pekill,killat=400");
    sim::RunReport report =
        sim::runOnce(pipelineProgram(), "results", {}, 1, config);
    EXPECT_FALSE(report.completed);
    EXPECT_EQ(report.failureReason,
              "pekill: PE 0 fail-stopped and no PE survives");
    EXPECT_GE(report.cycles, 400);
    EXPECT_EQ(report.replays, 0);
    EXPECT_EQ(report.faultKinds[kPeKillIdx].injected, 1u);
    EXPECT_EQ(report.faultKinds[kPeKillIdx].detected, 1u);
    EXPECT_EQ(report.faultKinds[kPeKillIdx].recovered, 0u);
}

// ---------------------------------------------------------------------------
// Page snapshots against a flat oracle: every step is checked against
// a plain byte vector, the whole-store copy checkpoints used to hold.
// ---------------------------------------------------------------------------

void
expectStoreEquals(const pe::Memory &memory,
                  const std::vector<std::uint8_t> &flat, int step)
{
    ASSERT_EQ(memory.size(), flat.size());
    if (std::memcmp(memory.data(), flat.data(), flat.size()) == 0)
        return;
    std::size_t at = 0;
    while (memory.data()[at] == flat[at])
        ++at;
    ADD_FAILURE() << "step " << step << ": byte " << at << " is "
                  << int(memory.data()[at]) << ", oracle has "
                  << int(flat[at]);
}

/** Decode(encode(@p image)): what a checkpoint file carries. */
pe::PageImage
throughMems(const pe::PageImage &image)
{
    persist::Encoder enc;
    persist::encodeMemoryImage(enc, image);
    persist::Decoder dec(enc.bytes());
    pe::PageImage back = persist::decodeMemoryImage(dec, image.size);
    EXPECT_TRUE(dec.ok()) << dec.error();
    EXPECT_TRUE(dec.atEnd());
    return back;
}

/**
 * Seeded random word and byte writes, snapshots, and restores to the
 * latest and to older images, on a @p size byte memory. Writes cluster on a few pages (so restores
 * overlap what is written) and are sometimes zero (so written pages
 * can be all zero again).
 */
void
driveAgainstOracle(std::size_t size, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    auto below = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    pe::Memory memory(size);
    std::vector<std::uint8_t> flat(size, 0);
    std::vector<std::size_t> hot;
    for (int i = 0; i < 6; ++i)
        hot.push_back(below((size + pe::kPageBytes - 1) / pe::kPageBytes));
    auto address = [&](std::size_t align) {
        std::size_t a = below(4) == 0
                            ? below(size)
                            : hot[below(hot.size())] * pe::kPageBytes +
                                  below(pe::kPageBytes);
        a = std::min(a, size - align) / align * align;
        return static_cast<isa::Addr>(a);
    };
    auto value = [&]() -> isa::Word {
        return below(3) == 0 ? 0 : static_cast<isa::Word>(rng());
    };
    auto write = [&]() {
        if (below(3) == 0) {
            isa::Addr a = address(1);
            auto v = static_cast<std::uint8_t>(value());
            memory.writeByte(a, v);
            flat[a] = v;
        } else {
            isa::Addr a = address(4);
            isa::Word v = value();
            memory.writeWord(a, v);
            for (int b = 0; b < 4; ++b)
                flat[a + static_cast<std::size_t>(b)] =
                    static_cast<std::uint8_t>(v >> (8 * b));
        }
    };

    struct Saved
    {
        pe::PageImage image;
        std::vector<std::uint8_t> flat;
    };
    std::vector<Saved> history;
    for (int step = 0; step < 400; ++step) {
        switch (below(8)) {
        case 0: {  // snapshot; a fresh Memory restored from its MEMS
                   // round trip, and that Memory's own snapshot, match
            history.push_back({memory.snapshot(), flat});
            pe::Memory fresh(size);
            fresh.restore(throughMems(history.back().image));
            expectStoreEquals(fresh, flat, step);
            pe::Memory again(size);
            again.restore(fresh.snapshot());
            expectStoreEquals(again, flat, step);
            break;
        }
        case 1:  // restore to the latest or to an older image
            if (!history.empty()) {
                const Saved &s = below(2) == 0
                                     ? history.back()
                                     : history[below(history.size())];
                memory.restore(s.image);
                flat = s.flat;
            }
            break;
        default:
            write();
            break;
        }
        expectStoreEquals(memory, flat, step);
        if (::testing::Test::HasFailure())
            return;
    }
    // Every image restores into a fresh Memory as well.
    for (const Saved &s : history) {
        pe::Memory fresh(size);
        fresh.restore(s.image);
        expectStoreEquals(fresh, s.flat, -1);
    }
}

TEST(PersistPageImageTest, MatchesFlatOracleOnWholePages)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        driveAgainstOracle(16 * pe::kPageBytes, seed);
    }
}

TEST(PersistPageImageTest, MatchesFlatOracleWithShortLastPage)
{
    // A size that is not a multiple of the page: the last page is
    // short in the memory, zero-padded in the image, and short in MEMS.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        driveAgainstOracle(5 * pe::kPageBytes + 1000, seed);
        driveAgainstOracle(2 * pe::kPageBytes + 4, seed + 100);
    }
}

TEST(PersistPageImageTest, ImageOfAnotherSizeIsAPanic)
{
    pe::Memory small(2 * pe::kPageBytes);
    small.writeWord(8, 7);
    pe::Memory big(4 * pe::kPageBytes);
    EXPECT_THROW(big.restore(small.snapshot()), PanicError);
}

// ---------------------------------------------------------------------------
// persist primitives.
// ---------------------------------------------------------------------------

TEST(PersistIoTest, ContainerRoundTripsAndLocalizesCorruption)
{
    std::vector<persist::Section> sections;
    sections.push_back({"AAAA", {1, 2, 3}});
    sections.push_back({"BBBB", {}});
    sections.push_back({"CCCC", std::vector<std::uint8_t>(1000, 0xAB)});
    std::vector<std::uint8_t> image =
        persist::buildContainer("TESTMAG1", 3, sections);

    std::vector<persist::Section> back;
    ASSERT_TRUE(persist::parseContainer(image, "TESTMAG1", 3, back).ok());
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[0].tag, "AAAA");
    EXPECT_EQ(back[2].payload, sections[2].payload);

    persist::Status st = persist::parseContainer(image, "OTHERMAG", 3,
                                                 back);
    EXPECT_EQ(st.code, persist::ErrCode::BadMagic);
    st = persist::parseContainer(image, "TESTMAG1", 4, back);
    EXPECT_EQ(st.code, persist::ErrCode::BadVersion);

    std::vector<std::uint8_t> flipped = image;
    flipped[flipped.size() - 4] ^= 0x10;  // inside CCCC's payload
    st = persist::parseContainer(flipped, "TESTMAG1", 3, back);
    EXPECT_EQ(st.code, persist::ErrCode::BadChecksum);
    EXPECT_NE(st.message.find("CCCC"), std::string::npos)
        << st.toString();
}

TEST(PersistIoTest, AtomicWriteReplacesWholeFile)
{
    std::string path = tempPath("atomic.bin");
    ASSERT_TRUE(persist::writeFileAtomic(path, {1, 2, 3, 4}).ok());
    ASSERT_TRUE(persist::writeFileAtomic(path, {9}).ok());
    std::vector<std::uint8_t> back;
    ASSERT_TRUE(persist::readFile(path, back).ok());
    EXPECT_EQ(back, std::vector<std::uint8_t>{9});
    std::remove(path.c_str());
}

TEST(PersistIoTest, DecoderIsStickyAndBounded)
{
    persist::Encoder enc;
    enc.u32(7);
    persist::Decoder dec(enc.bytes());
    EXPECT_EQ(dec.u32(), 7u);
    EXPECT_TRUE(dec.atEnd());
    EXPECT_EQ(dec.u64(), 0u);  // past the end: fails, returns zero
    EXPECT_FALSE(dec.ok());
    EXPECT_EQ(dec.u32(), 0u);  // sticky
    EXPECT_FALSE(dec.error().empty());
}

} // namespace

/**
 * @file
 * Code-generation stress tests: dup-chain fan-out, large contexts,
 * queue-offset validation, assembly well-formedness, the DOT dumper
 * (thesis sections 4.7/5.3), and the compiler-output pin.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdio>

#include "fuzz_corpus.hpp"
#include "mp/system.hpp"
#include "occam/codegen.hpp"
#include "occam/compiler.hpp"
#include "occam/graph_builder.hpp"
#include "occam/ift.hpp"
#include "occam/parser.hpp"
#include "persist/io.hpp"
#include "programs/benchmarks.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace qm;
using namespace qm::occam;

isa::Word
runAndReadWord(const std::string &source, const std::string &array,
               int index = 0, int pes = 1)
{
    CompiledProgram program = compileOccam(source);
    mp::SystemConfig config;
    config.numPes = pes;
    mp::System system(program.object, config);
    mp::RunResult result = system.run(program.mainLabel);
    EXPECT_TRUE(result.completed);
    return system.memory().readWord(
        program.arrayAddress(array) +
        static_cast<isa::Addr>(index) * 4);
}

TEST(Codegen, WideFanOutUsesDupChains)
{
    // One value consumed 20 times: the fan-out exceeds both dst fields
    // and the 16-register window, forcing dup1/dup2 chains and
    // memory-resident queue traffic.
    // x is fetched from memory so constant folding cannot erase it.
    std::string source =
        "var r[1], seed[1]:\n"
        "var x, acc:\n"
        "seq\n"
        "  seed[0] := 3\n"
        "  x := seed[0]\n"
        "  acc := 0\n";
    source += "  acc := acc";
    for (int i = 0; i < 20; ++i)
        source += " + (x * " + std::to_string(i + 1) + ")";
    source += "\n  r[0] := acc\n";
    // 3 * (1+2+...+20) = 3 * 210 = 630.
    EXPECT_EQ(runAndReadWord(source, "r"), 630u);

    // The generated assembly must actually contain dup instructions.
    CompiledProgram program = compileOccam(source);
    EXPECT_NE(program.assembly.find("dup"), std::string::npos);
}

TEST(Codegen, DeepExpressionStressesQueueOffsets)
{
    // A long dependent chain keeps the queue span narrow; a wide sum
    // keeps many live values. Both must fit the 256-word page.
    std::string source =
        "var r[1]:\n"
        "var a, b, c, d:\n"
        "seq\n"
        "  a := 1\n"
        "  b := 2\n"
        "  c := 3\n"
        "  d := 4\n"
        "  r[0] := ((a + b) * (c + d)) + ((a * c) - (b * d)) + "
        "((a + d) * (b + c)) + ((d - a) * (c - b))\n";
    // (3*7) + (3-8) + (5*5) + (3*1) = 21 - 5 + 25 + 3 = 44.
    EXPECT_EQ(static_cast<isa::SWord>(runAndReadWord(source, "r")), 44);
}

TEST(Codegen, OversizedContextIsRejectedCleanly)
{
    // A single expression with hundreds of simultaneously-live values
    // overflows the operand-queue page; the compiler must refuse with
    // a diagnostic, not emit broken code.
    std::string source =
        "var r[1], seed[1]:\n"
        "var x:\n"
        "seq\n"
        "  seed[0] := 1\n"
        "  x := seed[0]\n"
        "  r[0] := x";
    for (int i = 0; i < 300; ++i)
        source += " + (x * " + std::to_string(i) + ")";
    source += "\n";
    EXPECT_THROW(compileOccam(source), FatalError);
}

TEST(Codegen, WideParIsRefusedBeforeItsChildrenAreBuilt)
{
    // A par feeds every child before it joins any, holding one channel
    // per child in the parent's 256-word page. Past 256 children the
    // builder refuses it up front; this replicated par used to take
    // hours to reach the codegen diagnostic.
    try {
        compileOccam("var a[1]:\n"
                     "par i = [0 for 100000]\n"
                     "  a[0] := i\n");
        FAIL() << "a 100000-instance par compiled";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2: par forks 100000 "
                                             "children before its first "
                                             "join"),
                  std::string::npos)
            << e.what();
    }
    std::string written = "par\n";
    for (int k = 0; k < 257; ++k)
        written += "  skip\n";
    try {
        compileOccam(written);
        FAIL() << "a 257-component par compiled";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 1: par forks 257 "),
                  std::string::npos)
            << e.what();
    }
}

TEST(Codegen, ParOf256ChildrenFitsOnePage)
{
    EXPECT_EQ(runAndReadWord("var r[1]:\n"
                             "seq\n"
                             "  par i = [0 for 256]\n"
                             "    skip\n"
                             "  r[0] := 7\n",
                             "r"),
              7u);
}

/**
 * @p n procedures, each calling the one before it: the graph builder
 * builds each body inside its caller's, one level deeper per procedure.
 */
std::string
callChainSource(int n)
{
    std::string source = "var r[1]:\nvar v:\n"
                         "proc p0 (var x) =\n  x := x + 1\n:\n";
    for (int i = 1; i < n; ++i)
        source += "proc p" + std::to_string(i) + " (var x) =\n  p" +
                  std::to_string(i - 1) + " (x)\n:\n";
    return source + "seq\n  v := 0\n  p" + std::to_string(n - 1) +
           " (v)\n  r[0] := v\n";
}

TEST(Codegen, CallChainAtTheBoundCompilesAndRuns)
{
    EXPECT_EQ(runAndReadWord(callChainSource(256), "r"), 1u);
}

TEST(Codegen, CallChainPastTheBoundIsALineDiagnostic)
{
    // p0's body would be the 257th built inside another; a 10,000-long
    // chain used to overflow the host stack.
    for (int n : {257, 10000}) {
        try {
            compileOccam(callChainSource(n));
            FAIL() << "a " << n << "-procedure call chain compiled";
        } catch (const FatalError &e) {
            std::string line = std::to_string(3 * (n - 256) + 4);
            EXPECT_NE(std::string(e.what()).find(
                          "line " + line + ": call of 'p" +
                          std::to_string(n - 257) +
                          "' nests procedure bodies deeper than 256 levels"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Codegen, FifoSchedulingStillCorrect)
{
    const std::string source =
        "var r[1]:\n"
        "var i, sum:\n"
        "seq\n"
        "  i := 0\n"
        "  sum := 0\n"
        "  while i < 5\n"
        "    seq\n"
        "      sum := sum + i\n"
        "      i := i + 1\n"
        "  r[0] := sum\n";
    CompileOptions options;
    options.priorityScheduling = false;
    CompiledProgram program = compileOccam(source, options);
    mp::System system(program.object, mp::SystemConfig{});
    ASSERT_TRUE(system.run(program.mainLabel).completed);
    EXPECT_EQ(system.memory().readWord(program.arrayAddress("r")),
              10u);
}

TEST(Codegen, AssemblyReassemblesAndDisassembles)
{
    CompiledProgram program = compileOccam(
        "var r[1]:\n"
        "var x:\n"
        "seq\n"
        "  x := 5\n"
        "  if\n"
        "    x > 3\n"
        "      r[0] := 1\n"
        "    x <= 3\n"
        "      r[0] := 2\n");
    // Round trip: the emitted text reassembles to identical words.
    isa::ObjectCode again = isa::assemble(program.assembly);
    EXPECT_EQ(again.words, program.object.words);
    // And the whole object disassembles without tripping the decoder.
    auto lines = isa::disassemble(program.object);
    EXPECT_GT(lines.size(), program.object.words.size() / 2);
}

TEST(Codegen, DotDumpCoversEveryContext)
{
    CompileOptions options;
    options.emitDot = true;
    CompiledProgram program = compileOccam(
        "var r[1]:\n"
        "var i:\n"
        "seq\n"
        "  i := 0\n"
        "  while i < 3\n"
        "    i := i + 1\n"
        "  r[0] := i\n",
        options);
    EXPECT_EQ(static_cast<int>(program.dot.size()),
              program.contextCount);
    for (const auto &[label, dot] : program.dot) {
        EXPECT_NE(dot.find("digraph"), std::string::npos);
        // Control-token arcs render dashed.
        if (label.find("while") != std::string::npos)
            EXPECT_NE(dot.find("->"), std::string::npos);
    }
}

TEST(Codegen, ContextCountMatchesPartitioning)
{
    // main + head/body/term per while + branch/branch/skip per if.
    CompiledProgram program = compileOccam(
        "var r[1]:\n"
        "var i:\n"
        "seq\n"
        "  i := 0\n"
        "  while i < 2\n"
        "    i := i + 1\n"
        "  if\n"
        "    i = 2\n"
        "      r[0] := 1\n"
        "    i <> 2\n"
        "      r[0] := 2\n");
    // 1 main + 3 loop graphs + 3 if graphs (2 branches + skip).
    EXPECT_EQ(program.contextCount, 7);
}

TEST(Codegen, EveryContextEndsWithExitTrap)
{
    CompiledProgram program = compileOccam(
        "var r[1]:\n"
        "par i = [0 for 3]\n"
        "  r[0] := i\n");
    // Count exit traps in the assembly: one per context.
    std::size_t count = 0;
    std::size_t pos = 0;
    while ((pos = program.assembly.find("trap #0,#0", pos)) !=
           std::string::npos) {
        ++count;
        ++pos;
    }
    EXPECT_EQ(static_cast<int>(count), program.contextCount);
}

// ---------------------------------------------------------------------------
// Compiler output pin: the assembly, DOT and object bytes across commits.
// ---------------------------------------------------------------------------

std::string
hex32(std::uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", v);
    return buf;
}

/** The CRC32s one compile is pinned by. */
struct OutputCrcs
{
    std::uint32_t assembly = 0;
    std::uint32_t dot = 0;     ///< Every context's DOT, in label order.
    std::uint32_t words = 0;   ///< The object words.
    std::uint32_t labels = 0;  ///< Each label's name then its address.
};

OutputCrcs
outputCrcs(const std::string &source, const CompileOptions &options)
{
    CompiledProgram program = compileOccam(source, options);
    OutputCrcs crcs;
    crcs.assembly =
        persist::crc32(program.assembly.data(), program.assembly.size());
    for (const auto &[label, text] : program.dot) {
        crcs.dot = persist::crc32Update(crcs.dot, label.data(), label.size());
        crcs.dot = persist::crc32Update(crcs.dot, text.data(), text.size());
    }
    const std::vector<isa::Word> &words = program.object.words;
    crcs.words =
        persist::crc32(words.data(), words.size() * sizeof(isa::Word));
    for (const auto &[label, addr] : program.object.labels) {
        crcs.labels =
            persist::crc32Update(crcs.labels, label.data(), label.size());
        crcs.labels = persist::crc32Update(crcs.labels, &addr, sizeof addr);
    }
    return crcs;
}

void
expectPinned(const OutputCrcs &got, const OutputCrcs &pinned,
             const std::string &what)
{
    EXPECT_EQ(hex32(got.assembly), hex32(pinned.assembly))
        << "the assembly of " << what << " changed its bytes";
    EXPECT_EQ(hex32(got.dot), hex32(pinned.dot))
        << "a DOT dump of " << what << " changed its bytes";
    EXPECT_EQ(hex32(got.words), hex32(pinned.words))
        << "the object words of " << what << " changed";
    EXPECT_EQ(hex32(got.labels), hex32(pinned.labels))
        << "the label map of " << what << " changed";
}

/** examples/pipeline.occ without its comment header: user channels. */
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

TEST(CompilerOutputPin, ThesisProgramsUnderEveryCompilerSwitch)
{
    // No other test checks compiler output byte for byte. Together the
    // programs splice through while (fft, cholesky), calls (cholesky,
    // the recursive fan-out), written-out par (the fan-out, the
    // pipeline), replicated par and if. Node ids break scheduling ties
    // and order the DOT text, so a change in node creation order shows
    // here even when the assembly holds. A deliberate change of
    // compiler output re-pins these CRCs and says so in CHANGES.md.
    // Index bit 0 clears liveAnalysis, bit 1 inputSequencing, bit 2
    // priorityScheduling.
    struct Case
    {
        const char *name;
        std::string source;
        std::array<std::uint32_t, 8> assembly, dot, words, labels;
    };
    const Case cases[] = {
        {"matmul", programs::matmulSource(),
         {0xf8e81f60, 0xd0d002a6, 0xf8e81f60, 0xd0d002a6,
          0x43148737, 0xd7e15cf4, 0x43148737, 0xd7e15cf4},
         {0x62b928b5, 0x550577cc, 0x62b928b5, 0x550577cc,
          0x62b928b5, 0x550577cc, 0x62b928b5, 0x550577cc},
         {0xf3f96e5e, 0xf034be84, 0xf3f96e5e, 0xf034be84,
          0xccb4bc86, 0x20df3ac4, 0xccb4bc86, 0x20df3ac4},
         {0xafc8acb5, 0x20476ac8, 0xafc8acb5, 0x20476ac8,
          0x6612699f, 0x9abd84fb, 0x6612699f, 0x9abd84fb}},
        {"fft", programs::fftSource(),
         {0x9fcfbc64, 0xca916e88, 0x136f6c3f, 0x3902c680,
          0x76258b49, 0x9b3f2772, 0xa2fb0abf, 0xc53549c2},
         {0x532a3a25, 0xacb27d5e, 0xe148cc29, 0xf36fcdbd,
          0x532a3a25, 0xacb27d5e, 0xe148cc29, 0xf36fcdbd},
         {0x329061ba, 0x164cfdbc, 0xd6378602, 0xf2eb1a04,
          0x1c927ef1, 0x00e5ad2d, 0xc434a631, 0x53069807},
         {0x1ee98e9f, 0x1ee98e9f, 0x9ad8976e, 0x9ad8976e,
          0x9831e25d, 0x9831e25d, 0xc1696f75, 0xc1696f75}},
        {"cholesky", programs::choleskySource(),
         {0x607e9946, 0xaeef96fc, 0x281323e9, 0x239e0c06,
          0x445da38c, 0xcc87cf2a, 0xace5f5d5, 0x39b4d73e},
         {0x5a9a3634, 0x5c50f1bf, 0xc865bcee, 0x50fde27f,
          0x5a9a3634, 0x5c50f1bf, 0xc865bcee, 0x50fde27f},
         {0x0737017d, 0x5fa79cbe, 0x504f4b5a, 0x6f882373,
          0x30fad2ef, 0xcaa39bd3, 0xd7565c4e, 0xa3646609},
         {0x4f670e99, 0xe90d79b0, 0x72ba4518, 0x966a2f40,
          0x1e100d4a, 0x13f71cb7, 0x18d2b955, 0xb886e5af}},
        {"congruence", programs::congruenceSource(),
         {0x9a0f1883, 0x92ee0e8b, 0x9a0f1883, 0x92ee0e8b,
          0x17ec8052, 0x4e097f9d, 0x17ec8052, 0x4e097f9d},
         {0x1468946a, 0x6186ce82, 0x1468946a, 0x6186ce82,
          0x1468946a, 0x6186ce82, 0x1468946a, 0x6186ce82},
         {0xc6ac98da, 0xed61870e, 0xc6ac98da, 0xed61870e,
          0x234700cd, 0xf1d3bca6, 0x234700cd, 0xf1d3bca6},
         {0x1ffa2ad8, 0x921180c1, 0x1ffa2ad8, 0x921180c1,
          0xbc9b3688, 0xf68d5e9c, 0xbc9b3688, 0xf68d5e9c}},
        {"recursive fan-out", programs::binaryFanRecursiveSource(),
         {0x9b430649, 0x9b430649, 0x6bb8640e, 0x6bb8640e,
          0xcf1aa39e, 0xcf1aa39e, 0xa0a4a33e, 0xa0a4a33e},
         {0xf09e36da, 0xf09e36da, 0x16217c36, 0x16217c36,
          0xf09e36da, 0xf09e36da, 0x16217c36, 0x16217c36},
         {0x31fadbd5, 0x31fadbd5, 0x7f0cec31, 0x7f0cec31,
          0xdc9e04c9, 0xdc9e04c9, 0x3e282ec1, 0x3e282ec1},
         {0x0058539b, 0x0058539b, 0x0058539b, 0x0058539b,
          0x8c9184ce, 0x8c9184ce, 0xb1abaaa7, 0xb1abaaa7}},
        {"iterative fan-out", programs::binaryFanIterativeSource(),
         {0x222d3bef, 0x222d3bef, 0x2905d7b4, 0x2905d7b4,
          0xdd587a9f, 0xdd587a9f, 0xf55cc17c, 0xf55cc17c},
         {0x0448b0bc, 0x0448b0bc, 0xffe7b501, 0xffe7b501,
          0x0448b0bc, 0x0448b0bc, 0xffe7b501, 0xffe7b501},
         {0x3ab19d8f, 0x3ab19d8f, 0xd228d5b2, 0xd228d5b2,
          0x5ccc6ce0, 0x5ccc6ce0, 0x5a702d62, 0x5a702d62},
         {0x9fd0f147, 0x9fd0f147, 0x9fd0f147, 0x9fd0f147,
          0x9fd0f147, 0x9fd0f147, 0x9fd0f147, 0x9fd0f147}},
        {"pipeline", kPipelineSource,
         {0x877f94f6, 0x89f4fa1f, 0x877f94f6, 0x89f4fa1f,
          0x5bf95ba7, 0x35fa2ad7, 0x5bf95ba7, 0x35fa2ad7},
         {0xada9f524, 0x1f4085a1, 0xada9f524, 0x1f4085a1,
          0xada9f524, 0x1f4085a1, 0xada9f524, 0x1f4085a1},
         {0x124579af, 0xc9f3ce32, 0x124579af, 0xc9f3ce32,
          0x446bd453, 0xad51fab6, 0x446bd453, 0xad51fab6},
         {0x316809e2, 0x22d62d1e, 0x316809e2, 0x22d62d1e,
          0x316809e2, 0x22d62d1e, 0x316809e2, 0x22d62d1e}},
    };
    for (const Case &c : cases) {
        for (int bits = 0; bits < 8; ++bits) {
            CompileOptions options;
            options.liveAnalysis = (bits & 1) == 0;
            options.inputSequencing = (bits & 2) == 0;
            options.priorityScheduling = (bits & 4) == 0;
            options.emitDot = true;
            expectPinned(outputCrcs(c.source, options),
                         {c.assembly[bits], c.dot[bits], c.words[bits],
                          c.labels[bits]},
                         std::string(c.name) + " at switch index " +
                             std::to_string(bits));
        }
    }
}

TEST(CompilerOutputPin, GeneratedProgramsAtDefaultSwitches)
{
    const std::array<std::uint32_t, 32> assembly = {
        0x5b72fffd, 0xb9472a86, 0x467a95c2, 0xcc36e687,
        0x8dfba543, 0xcef8028a, 0xbe924d25, 0xa145bb0e,
        0xb49ffd18, 0xf2161fe6, 0xaa584b1d, 0x50d5cdc9,
        0x81154f9c, 0x7ba25e2d, 0x603b9a35, 0x12f4691c,
        0xbb0296f1, 0x383afc81, 0x4faceb6a, 0x938e5cb7,
        0x8b385bef, 0x013daeab, 0x0d8ad669, 0x910bd17f,
        0xb9185f6b, 0x563bccbb, 0xfb0b8ab1, 0x8b3cd9fb,
        0x5211292d, 0xd89f14cb, 0xd7432b9e, 0xc8272cec};
    const std::array<std::uint32_t, 32> dot = {
        0xad196b17, 0xad4ca35a, 0x15333613, 0xa4e831ad,
        0x640fd97e, 0x61338084, 0x375852c1, 0xbab83998,
        0x1b79cfeb, 0xa1773f52, 0xc71f852d, 0x0f22d289,
        0x314f0a1d, 0x6cb3c8bf, 0x5ef8fbfe, 0x716916f3,
        0x8521df4a, 0x6c33edf4, 0x3f295cfa, 0x13a8c5d4,
        0xa5474ced, 0x137e3475, 0x3fef118b, 0x4b100890,
        0xd5ca09cb, 0x11f1443e, 0x00b52a6a, 0xdd24cd23,
        0xbbb0f1fe, 0x367d894d, 0x891f7ae7, 0xcd8c0d60};
    const std::array<std::uint32_t, 32> words = {
        0x3ba8d663, 0xbd961c55, 0xfdbb5a6a, 0xf9c4ea78,
        0xdc39a1da, 0xdb540f97, 0x20ea199c, 0x50f6a906,
        0x88ef373e, 0x6c3cb3f3, 0x565c3f60, 0x8291ad05,
        0x24b4629c, 0xb872035c, 0x9378dfcb, 0xd6d2bd09,
        0x7e0729a3, 0xec71728a, 0xcad069a6, 0x570b9782,
        0x5ffa037e, 0xfbfdce27, 0xbd423ee8, 0xb86c5e5d,
        0x73b78897, 0x3d14af9f, 0x3bd86c53, 0xd46e7790,
        0xd4360cc5, 0x78d18dfc, 0x14377645, 0xb1304bd0};
    const std::array<std::uint32_t, 32> labels = {
        0xbde95f47, 0x65326d92, 0x84c7b8a5, 0x0f03f77b,
        0x56066e76, 0x55146e0f, 0x149fe754, 0xbee923ab,
        0xabca8ecf, 0xad8a4baf, 0xdfa0e32e, 0x5ec47290,
        0x105ea1bd, 0x1e79ff89, 0xc11568db, 0x2fd3577b,
        0xbeee43c1, 0x513d43e5, 0x19dbc817, 0x2c530293,
        0x7e982f70, 0x44197ce1, 0xf1353917, 0x4558e2e1,
        0xa7db0869, 0xdd752108, 0xcfbf3d70, 0x7bc605f8,
        0x4a4fc4dc, 0xade5219a, 0xb387accc, 0xc5c4eaab};
    CompileOptions options;
    options.emitDot = true;
    for (std::uint64_t seed = 1; seed <= assembly.size(); ++seed)
        expectPinned(outputCrcs(fuzz::ProgramGen(seed).generate(), options),
                     {assembly[seed - 1], dot[seed - 1], words[seed - 1],
                      labels[seed - 1]},
                     "ProgramGen seed " + std::to_string(seed));
}

} // namespace

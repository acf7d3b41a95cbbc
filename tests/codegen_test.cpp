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
 * @p n procedures, each calling the one before it inside @p depth
 * nested seqs: the graph builder builds each body inside its caller's.
 */
std::string
callChainSource(int n, int depth = 0)
{
    std::string source = "var r[1]:\nvar v:\n"
                         "proc p0 (var x) =\n  x := x + 1\n:\n";
    for (int i = 1; i < n; ++i) {
        source += "proc p" + std::to_string(i) + " (var x) =\n";
        std::string indent = "  ";
        for (int d = 0; d < depth; ++d, indent += "  ")
            source += indent + "seq\n";
        source += indent + "p" + std::to_string(i - 1) + " (x)\n:\n";
    }
    return source + "seq\n  v := 0\n  p" + std::to_string(n - 1) +
           " (v)\n  r[0] := v\n";
}

/** The diagnostic compiling @p source throws, or "" if it compiles. */
std::string
compileDiagnostic(const std::string &source)
{
    try {
        compileOccam(source);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Codegen, CallChainAtTheBoundCompilesAndRuns)
{
    // Six levels of the graph builder's 4,096 a bare call: 682 fit.
    EXPECT_EQ(runAndReadWord(callChainSource(682), "r"), 1u);
}

TEST(Codegen, CallChainPastTheBoundIsALineDiagnostic)
{
    // p0's body would take the build past its budget; a 10,000-long
    // chain used to overflow the host stack.
    for (int n : {683, 10000}) {
        std::string line = std::to_string(3 * (n - 682) + 4);
        EXPECT_NE(compileDiagnostic(callChainSource(n))
                      .find("line " + line + ": call of 'p" +
                            std::to_string(n - 683) +
                            "' nests the graph build deeper than 4096 "
                            "levels"),
                  std::string::npos)
            << "a " << n << "-procedure call chain";
    }
}

TEST(Codegen, DeepBodiesAlongACallChainShareTheBudget)
{
    // The budget counts each body's nesting along the chain, not only
    // the bodies: 256 procedures whose calls sit 40 or 200 seqs deep
    // are refused on the line of the call that crosses it. They used to
    // overflow the ASan and the release stack.
    const struct
    {
        int depth;
        const char *diagnostic;
    } cases[] = {
        {40, "line 7185: call of 'p166' nests the graph build deeper "
             "than 4096 levels"},
        {200, "line 48115: call of 'p236' nests the graph build deeper "
              "than 4096 levels"},
    };
    for (const auto &c : cases)
        EXPECT_NE(compileDiagnostic(callChainSource(256, c.depth))
                      .find(c.diagnostic),
                  std::string::npos)
            << c.depth << " seqs deep";
}

TEST(Codegen, NestingAtTheParserBoundBuilds)
{
    // Every shape the parser takes at its 512 levels builds within the
    // build-depth budget, under ASan too; a par is the costliest level.
    auto stacked = [](const std::string &head, int n,
                      const std::string &leaf) {
        std::string src = "var r[1]:\nvar x:\n", indent;
        for (int i = 0; i < n; ++i, indent += "  ")
            src += indent + head + "\n";
        return src + indent + leaf + "\n";
    };
    auto repeat = [](const std::string &text, int n) {
        std::string out;
        for (int i = 0; i < n; ++i)
            out += text;
        return out;
    };
    const std::pair<const char *, std::string> shapes[] = {
        {"seq", stacked("seq", 512, "skip")},
        {"par", stacked("par", 512, "skip")},
        {"while", stacked("while true", 256, "skip")},
        {"replicated seq", stacked("seq i = [0 for 1]", 128, "skip")},
        {"parentheses",
         "var x:\nx := " + repeat("(", 511) + "1" + repeat(")", 511) +
             "\n"},
        {"subscript", "var r[1]:\nr[0] := " + repeat("r[", 511) + "0" +
                          repeat("]", 511) + "\n"},
        {"+ chain", "var x:\nseq\n  x := 1\n  x := x" +
                        repeat(" + x", 509) + "\n"},
    };
    for (const auto &[name, source] : shapes)
        EXPECT_EQ(compileDiagnostic(source), "") << name;
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

/**
 * The compiler switches of pin index @p bits, DOT on: bit 0 clears
 * liveAnalysis, bit 1 inputSequencing, bit 2 priorityScheduling.
 */
CompileOptions
switchOptions(int bits)
{
    CompileOptions options;
    options.liveAnalysis = (bits & 1) == 0;
    options.inputSequencing = (bits & 2) == 0;
    options.priorityScheduling = (bits & 4) == 0;
    options.emitDot = true;
    return options;
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
            expectPinned(outputCrcs(c.source, switchOptions(bits)),
                         {c.assembly[bits], c.dot[bits], c.words[bits],
                          c.labels[bits]},
                         std::string(c.name) + " at switch index " +
                             std::to_string(bits));
        }
    }
}

TEST(CompilerOutputPin, GeneratedProgramsUnderEveryCompilerSwitch)
{
    // fuzz::ProgramGen seeds 1-32 under the same 8 switch settings, so
    // the all-live IFT path and the builder without pi_I are pinned by
    // more than the seven programs above.
    struct Pins
    {
        std::array<std::uint32_t, 8> assembly, dot, words, labels;
    };
    const std::array<Pins, 32> pins = {{
        // seed 1
        {{0x5b72fffd, 0x48928e30, 0x23bf123d, 0x0e326b88,
          0x947ba149, 0x707599f4, 0xe9822a00, 0x4e7dba07},
         {0xad196b17, 0x3f037d7b, 0x4edf93b7, 0xdccffb06,
          0xad196b17, 0x3f037d7b, 0x4edf93b7, 0xdccffb06},
         {0x3ba8d663, 0x3019947f, 0xfdc40548, 0xa12f6885,
          0x2f8560ec, 0x55887392, 0xc49b7627, 0x46023f90},
         {0xbde95f47, 0x02d56ee9, 0xa967c31f, 0xfacdb2da,
          0xe354a343, 0xe40b49ba, 0x9ca9437d, 0x107d858d}},
        // seed 2
        {{0xb9472a86, 0x763eaf0c, 0x2beae076, 0x89550868,
          0x5641c8fe, 0x8fca81e5, 0x9457ff0d, 0xc205c3cf},
         {0xad4ca35a, 0x504c7475, 0xc74d1d39, 0x0c165cc6,
          0xad4ca35a, 0x504c7475, 0xc74d1d39, 0x0c165cc6},
         {0xbd961c55, 0x77aa0246, 0x3a0e0564, 0x046b3dae,
          0xe3ca854d, 0x461a5576, 0x45706a3a, 0x6a93681e},
         {0x65326d92, 0x111ec942, 0x65326d92, 0x111ec942,
          0x999c7870, 0x79bb495f, 0x999c7870, 0x79bb495f}},
        // seed 3
        {{0x467a95c2, 0xb2a67ff8, 0x0c98697f, 0xf8448345,
          0xff726278, 0x240889b2, 0x043eba58, 0xdf445192},
         {0x15333613, 0x0d7b3459, 0x5f89579e, 0x47c155d4,
          0x15333613, 0x0d7b3459, 0x5f89579e, 0x47c155d4},
         {0xfdbb5a6a, 0x21e82638, 0xd27d5d6b, 0x0e2e2139,
          0x047fbd2e, 0xfa66415e, 0x711e2fc8, 0x8f07d3b8},
         {0x84c7b8a5, 0x84c7b8a5, 0x84c7b8a5, 0x84c7b8a5,
          0x84c7b8a5, 0x84c7b8a5, 0x84c7b8a5, 0x84c7b8a5}},
        // seed 4
        {{0xcc36e687, 0xd757177a, 0x19ee1e79, 0x028fef84,
          0xd5c88f3b, 0x0fcd6ec1, 0x0d21af8b, 0xd7244e71},
         {0xa4e831ad, 0xb9a83269, 0x047e5d7e, 0x193e5eba,
          0xa4e831ad, 0xb9a83269, 0x047e5d7e, 0x193e5eba},
         {0xf9c4ea78, 0x52e21c4e, 0x68f1866c, 0xc3d7705a,
          0xc31bb7a9, 0x5115aa1c, 0xa7c89c48, 0x35c681fd},
         {0x0f03f77b, 0x0f03f77b, 0x0f03f77b, 0x0f03f77b,
          0x0f03f77b, 0x0f03f77b, 0x0f03f77b, 0x0f03f77b}},
        // seed 5
        {{0x8dfba543, 0xcd56d865, 0xe55e9dd6, 0x7ea1f06f,
          0x925732ef, 0x4abbaf9b, 0xa47a1343, 0x477fbfdf},
         {0x640fd97e, 0x5540d2a7, 0x07fe02c2, 0xdc9e24d9,
          0x640fd97e, 0x5540d2a7, 0x07fe02c2, 0xdc9e24d9},
         {0xdc39a1da, 0x6f9cbb64, 0xd3159e7c, 0x09597a9c,
          0xe5d56a9e, 0xa5f2a587, 0xc863a15c, 0x117d480e},
         {0x56066e76, 0x5ac221a1, 0x56066e76, 0x5ac221a1,
          0xa294e65d, 0x431426ce, 0xa294e65d, 0x431426ce}},
        // seed 6
        {{0xcef8028a, 0xb1c5096c, 0x03d0d0d2, 0xf7af7b8e,
          0xd477fc7a, 0xca7864cc, 0xc3948598, 0x059ceac1},
         {0x61338084, 0x73b0eed8, 0xf1f9870c, 0x3fb4d47c,
          0x61338084, 0x73b0eed8, 0xf1f9870c, 0x3fb4d47c},
         {0xdb540f97, 0x8c9a29be, 0xffb9251e, 0xf0ddeadd,
          0xa13fd1e5, 0xe2f57688, 0x3b028514, 0x497b1968},
         {0x55146e0f, 0x8202cfa1, 0x55146e0f, 0x8202cfa1,
          0x2ed9ebed, 0x44158f69, 0x2ed9ebed, 0x44158f69}},
        // seed 7
        {{0xbe924d25, 0xfeb66df7, 0x12a511e1, 0xe7360bc0,
          0x91a94872, 0x73abb1c3, 0x54148b9f, 0xabf26c2d},
         {0x375852c1, 0x5d4314a5, 0x34dec40c, 0x5180eefc,
          0x375852c1, 0x5d4314a5, 0x34dec40c, 0x5180eefc},
         {0x20ea199c, 0x037dd40b, 0x1f38867d, 0xef8002e0,
          0x7839096c, 0x0a793923, 0x9e97d0f3, 0x14c28fc5},
         {0x149fe754, 0x324771cf, 0xe36bebe0, 0x382af33e,
          0x749f2046, 0xd4243ec2, 0x5d25c555, 0x43d0f564}},
        // seed 8
        {{0xa145bb0e, 0x5a831095, 0xd0f54ceb, 0xed84cae0,
          0x2e885b43, 0x9ebfd665, 0xfc41aa46, 0xaf930c71},
         {0xbab83998, 0x076c16ff, 0x744c848e, 0xfa472516,
          0xbab83998, 0x076c16ff, 0x744c848e, 0xfa472516},
         {0x50f6a906, 0xcf826c30, 0x671fce05, 0xf86b0b33,
          0x107cd1df, 0x8f0814e9, 0xc770d868, 0x58041d5e},
         {0xbee923ab, 0xbee923ab, 0xbee923ab, 0xbee923ab,
          0xbee923ab, 0xbee923ab, 0xbee923ab, 0xbee923ab}},
        // seed 9
        {{0xb49ffd18, 0x9b402f89, 0x554f112f, 0x7a90c3be,
          0x02c07c0e, 0xc0a90dea, 0xc873d059, 0x0a1aa1bd},
         {0x1b79cfeb, 0xc1540639, 0x88d15b1c, 0x52fc92ce,
          0x1b79cfeb, 0xc1540639, 0x88d15b1c, 0x52fc92ce},
         {0x88ef373e, 0x760b27cd, 0xbb822384, 0x45663377,
          0x5b563e95, 0x9e9a579b, 0x59af2386, 0x9c634a88},
         {0xabca8ecf, 0xabca8ecf, 0xabca8ecf, 0xabca8ecf,
          0xabca8ecf, 0xabca8ecf, 0xabca8ecf, 0xabca8ecf}},
        // seed 10
        {{0xf2161fe6, 0xd5e20b00, 0x62acbae0, 0xff8d420f,
          0x983c3262, 0xa824b5a6, 0x1cc4ac80, 0xa313aba8},
         {0xa1773f52, 0x3b40e7c8, 0xb65d4dc4, 0x11fa81d7,
          0xa1773f52, 0x3b40e7c8, 0xb65d4dc4, 0x11fa81d7},
         {0x6c3cb3f3, 0xeb92c6f2, 0x50865a9b, 0xdcf96078,
          0x958d7ba5, 0x06724965, 0xaba4dcee, 0x049a0fa1},
         {0xad8a4baf, 0x2ab9f39c, 0xad8a4baf, 0x2ab9f39c,
          0x9eace436, 0x30b7ccb9, 0x9eace436, 0x30b7ccb9}},
        // seed 11
        {{0xaa584b1d, 0xb924140c, 0xaa584b1d, 0xb924140c,
          0x28feea74, 0xcf5ec5e3, 0x28feea74, 0xcf5ec5e3},
         {0xc71f852d, 0x798db523, 0xc71f852d, 0x798db523,
          0xc71f852d, 0x798db523, 0xc71f852d, 0x798db523},
         {0x565c3f60, 0xbc996ada, 0x565c3f60, 0xbc996ada,
          0xdc77dc17, 0x72343ff5, 0xdc77dc17, 0x72343ff5},
         {0xdfa0e32e, 0x3bef425d, 0xdfa0e32e, 0x3bef425d,
          0x54b724f2, 0x63d1b4b6, 0x54b724f2, 0x63d1b4b6}},
        // seed 12
        {{0x50d5cdc9, 0xd1ef16c4, 0x50d5cdc9, 0xd1ef16c4,
          0x982160f3, 0x0bc39397, 0x982160f3, 0x0bc39397},
         {0x0f22d289, 0x0b9f53f4, 0x0f22d289, 0x0b9f53f4,
          0x0f22d289, 0x0b9f53f4, 0x0f22d289, 0x0b9f53f4},
         {0x8291ad05, 0xef37acba, 0x8291ad05, 0xef37acba,
          0x96288cd7, 0xbd42e6e2, 0x96288cd7, 0xbd42e6e2},
         {0x5ec47290, 0x56656fea, 0x5ec47290, 0x56656fea,
          0x5ec47290, 0x56656fea, 0x5ec47290, 0x56656fea}},
        // seed 13
        {{0x81154f9c, 0x9a624855, 0x72ec002f, 0xae72f7e7,
          0x57899c2c, 0x00f248b6, 0x3c5350dd, 0xabb62a2d},
         {0x314f0a1d, 0x04e363fe, 0x3d4298b5, 0x3abc3333,
          0x314f0a1d, 0x04e363fe, 0x3d4298b5, 0x3abc3333},
         {0x24b4629c, 0x25825844, 0xbd734a0e, 0xd141c04e,
          0xb36e7e8c, 0x6e2ae7e1, 0x48265bf4, 0x02a01aed},
         {0x105ea1bd, 0x4e1a5632, 0x105ea1bd, 0x4e1a5632,
          0x105ea1bd, 0x16940054, 0x105ea1bd, 0x16940054}},
        // seed 14
        {{0x7ba25e2d, 0x157ae34b, 0x462e96bd, 0x1f9d3065,
          0x3b611230, 0x9bb7cce8, 0x8b66198f, 0x174e80d8},
         {0x6cb3c8bf, 0xe4c99fc9, 0xdfb1b085, 0xe58f14cc,
          0x6cb3c8bf, 0xe4c99fc9, 0xdfb1b085, 0xe58f14cc},
         {0xb872035c, 0xbedb7ad1, 0x679c9611, 0xfcafc2c3,
          0xd0fbc08e, 0x614af169, 0x5032d914, 0xb9479aa2},
         {0x1e79ff89, 0xce30b128, 0x1e79ff89, 0xce30b128,
          0x8ec89fda, 0x794114c5, 0x8ec89fda, 0x794114c5}},
        // seed 15
        {{0x603b9a35, 0x876f8aeb, 0x55b7f791, 0x58c91b98,
          0x816c2065, 0x660e95b1, 0x2262e8a5, 0x32e9915d},
         {0x5ef8fbfe, 0xd4d75911, 0x0c3be56c, 0x95c8becc,
          0x5ef8fbfe, 0xd4d75911, 0x0c3be56c, 0x95c8becc},
         {0x9378dfcb, 0xcab6dbac, 0xb4359e2e, 0x9fba0c5c,
          0x883cfc16, 0xea385d07, 0x30713145, 0x756eae1a},
         {0xc11568db, 0xc12c785a, 0xc11568db, 0xc12c785a,
          0xc11568db, 0xc12c785a, 0xc11568db, 0xc12c785a}},
        // seed 16
        {{0x12f4691c, 0x64ca4e1b, 0x86328999, 0x74af05a7,
          0x8b713779, 0x1e03c7d4, 0x645474b3, 0xc0c6ceaf},
         {0x716916f3, 0x1f8ce0e2, 0xc8cade47, 0xb8583f26,
          0x716916f3, 0x1f8ce0e2, 0xc8cade47, 0xb8583f26},
         {0xd6d2bd09, 0x038a574a, 0xc9dfc674, 0x1c872c37,
          0x4de2ba74, 0x9f37d6d4, 0x3773633d, 0xe5a60f9d},
         {0x2fd3577b, 0x2fd3577b, 0x2fd3577b, 0x2fd3577b,
          0x24f2f74e, 0x24f2f74e, 0x24f2f74e, 0x24f2f74e}},
        // seed 17
        {{0xbb0296f1, 0x13b0d44c, 0xb359d8a8, 0xce953a3e,
          0x4b3b4a17, 0x1db7ff72, 0x341a0e94, 0xa03263e6},
         {0x8521df4a, 0xb1d3caa6, 0x7975c366, 0x25aaa5b5,
          0x8521df4a, 0xb1d3caa6, 0x7975c366, 0x25aaa5b5},
         {0x7e0729a3, 0x5e17697f, 0x8bfc8284, 0x9b99f9da,
          0x868943ea, 0x4ce5415a, 0xb12998ac, 0x2787b963},
         {0xbeee43c1, 0x0d668102, 0x733fb0a4, 0x8b0a03fa,
          0x8cb9ef7e, 0x12db2069, 0x7d7dad89, 0x65fc07a3}},
        // seed 18
        {{0x383afc81, 0xd85a3f48, 0xdec4354b, 0x2cfbd66c,
          0x55797306, 0x46a1c732, 0xac6c624a, 0x578bfaa4},
         {0x6c33edf4, 0xe1e3166a, 0x183c6260, 0x94c22feb,
          0x6c33edf4, 0xe1e3166a, 0x183c6260, 0x94c22feb},
         {0xec71728a, 0x2f6bf653, 0xe96c8411, 0x879dd7f7,
          0x3c4cb59a, 0x03986903, 0x550cc2e8, 0xa9e3012f},
         {0x513d43e5, 0xcfc6e40f, 0xc137cb00, 0x4150fec9,
          0x196d39ea, 0x36636150, 0xbbb6d0ae, 0xae4fe5ce}},
        // seed 19
        {{0x4faceb6a, 0x6c470440, 0x3d7effd0, 0x883a5a09,
          0x9b18a8aa, 0x4b356500, 0xf018ae76, 0x8e785134},
         {0x3f295cfa, 0xb4b664e5, 0xae468ed6, 0xbef1cf45,
          0x3f295cfa, 0xb4b664e5, 0xae468ed6, 0xbef1cf45},
         {0xcad069a6, 0xf6f0d730, 0x575f8d94, 0xfb5a2f4d,
          0xc6e1f4cb, 0x1585ed25, 0x565c13dd, 0xf954ae6f},
         {0x19dbc817, 0xc91bb938, 0x19dbc817, 0xc91bb938,
          0x19dbc817, 0x4562fe89, 0x19dbc817, 0x4562fe89}},
        // seed 20
        {{0x938e5cb7, 0x2ca98308, 0x73241169, 0x67a69fdc,
          0x3774cefc, 0x398cb1c1, 0xcaf389b4, 0x322a3a37},
         {0x13a8c5d4, 0x6392f2e4, 0x10969129, 0x78c1341b,
          0x13a8c5d4, 0x6392f2e4, 0x10969129, 0x78c1341b},
         {0x570b9782, 0xc6eb2b91, 0x341074ad, 0xfa7f3ccc,
          0x0f8927f5, 0x04086f27, 0x15a65ed5, 0x9bd8e44d},
         {0x2c530293, 0x2c530293, 0xaee2c307, 0xaee2c307,
          0x61aea962, 0x61aea962, 0x646986db, 0x646986db}},
        // seed 21
        {{0x8b385bef, 0x53e27092, 0x8b385bef, 0x53e27092,
          0x365385a2, 0x3da6eaef, 0x365385a2, 0x3da6eaef},
         {0xa5474ced, 0xb4b70feb, 0xa5474ced, 0xb4b70feb,
          0xa5474ced, 0xb4b70feb, 0xa5474ced, 0xb4b70feb},
         {0x5ffa037e, 0xb50cf24a, 0x5ffa037e, 0xb50cf24a,
          0x24eb5b3a, 0xee5f92e1, 0x24eb5b3a, 0xee5f92e1},
         {0x7e982f70, 0xc2f10180, 0x7e982f70, 0xc2f10180,
          0x7e982f70, 0xc2f10180, 0x7e982f70, 0xc2f10180}},
        // seed 22
        {{0x013daeab, 0xac3e6f45, 0x787c83ad, 0x2ddb636b,
          0xc7f4e0b4, 0x7f52951a, 0xad85c3c7, 0x6c8d37c2},
         {0x137e3475, 0x499ad2e3, 0x73869fde, 0xea309bc9,
          0x137e3475, 0x499ad2e3, 0x73869fde, 0xea309bc9},
         {0xfbfdce27, 0x675b6bd1, 0xe8abd543, 0x0ce780c8,
          0xb380ac0c, 0xeff2d204, 0xe372c071, 0xa7329a23},
         {0x44197ce1, 0x4b8a67b0, 0x9233dcb5, 0x6d515cdb,
          0x8abbb89a, 0x3043c408, 0xe241b664, 0x294ba14f}},
        // seed 23
        {{0x0d8ad669, 0xc30c26fe, 0xd00b772a, 0x60011889,
          0x8059b2f5, 0x5da9a9f0, 0x20f16617, 0xbede934c},
         {0x3fef118b, 0x5729d1c8, 0x46a68515, 0xb6a5546b,
          0x3fef118b, 0x5729d1c8, 0x46a68515, 0xb6a5546b},
         {0xbd423ee8, 0xf958c96f, 0x97a94717, 0x5162caa4,
          0x96377fe8, 0xa08ec0b4, 0x6d8289ac, 0xf675c38f},
         {0xf1353917, 0x23bd3bfa, 0x70503b61, 0x0434e4ac,
          0xa2dc9059, 0x0bcd51f9, 0x9e0416d0, 0x62169db2}},
        // seed 24
        {{0x910bd17f, 0xb6f76204, 0x84125766, 0x2a8502d2,
          0x231e1954, 0xb1d9ca44, 0x36ea8dde, 0xdca880bb},
         {0x4b100890, 0x477f5725, 0x24885d25, 0x737de23b,
          0x4b100890, 0x477f5725, 0x24885d25, 0x737de23b},
         {0xb86c5e5d, 0x9260d2ab, 0x3a7ae723, 0x62337e61,
          0x05e4231c, 0xad67ce3c, 0x17408d22, 0xe5c22ef4},
         {0x4558e2e1, 0xfe46b772, 0x4558e2e1, 0xfe46b772,
          0x4558e2e1, 0xfe46b772, 0x4558e2e1, 0xfe46b772}},
        // seed 25
        {{0xb9185f6b, 0x0a1a879a, 0xbba5b9fb, 0x9cbb09a6,
          0xf088a8c6, 0x3a7e2c9d, 0xb47c04cc, 0x70777eb0},
         {0xd5ca09cb, 0x891d9cf5, 0x22f1e5a3, 0x7c45071f,
          0xd5ca09cb, 0x891d9cf5, 0x22f1e5a3, 0x7c45071f},
         {0x73b78897, 0xd2956247, 0x3443e212, 0xb9d8fdb1,
          0xa119b7f2, 0x37735c6a, 0x4d9df912, 0x71b65ce1},
         {0xa7db0869, 0x6aafc514, 0xa7db0869, 0x6aafc514,
          0x24ebb393, 0x36c85dd6, 0x24ebb393, 0x36c85dd6}},
        // seed 26
        {{0x563bccbb, 0xa27abf99, 0xfc9505f3, 0xb4ae34dd,
          0xee7a589a, 0xca4053f2, 0xbc7aa0ae, 0xe588c1ff},
         {0x11f1443e, 0x4f9b7ece, 0xc3b3e37b, 0xe259cd71,
          0x11f1443e, 0x4f9b7ece, 0xc3b3e37b, 0xe259cd71},
         {0x3d14af9f, 0x79b7023a, 0x64777043, 0x8b58f5df,
          0xb875070a, 0xde792308, 0xe371c390, 0xbdfe45a5},
         {0xdd752108, 0xdc43f5c0, 0xa0cd8df3, 0xafcb1145,
          0x142ed40e, 0x9d0d1124, 0xf403f915, 0x7566f494}},
        // seed 27
        {{0xfb0b8ab1, 0x4e9ed652, 0x7babe88a, 0x66547319,
          0x0586b326, 0x8474e129, 0x1fc0fbb9, 0xce8caedd},
         {0x00b52a6a, 0x2c1f884c, 0xd65ec882, 0x491f16f4,
          0x00b52a6a, 0x2c1f884c, 0xd65ec882, 0x491f16f4},
         {0x3bd86c53, 0x4c603b02, 0xd5f231e0, 0x43fe8e82,
          0x535a24fd, 0xf6f7a5f1, 0x2a61cfbf, 0xe4ed574e},
         {0xcfbf3d70, 0xfc0d7b28, 0xcfbf3d70, 0xfc0d7b28,
          0xcfbf3d70, 0xfc0d7b28, 0xcfbf3d70, 0xfc0d7b28}},
        // seed 28
        {{0x8b3cd9fb, 0x102555c8, 0xc3d726d0, 0x1053f871,
          0x2bb833aa, 0x76d6c718, 0x408de81e, 0xab3fe597},
         {0xdd24cd23, 0x0cf012a5, 0x51d35c81, 0xd9388e9a,
          0xdd24cd23, 0x0cf012a5, 0x51d35c81, 0xd9388e9a},
         {0xd46e7790, 0x021a046b, 0x613c117f, 0x6d6fb2ed,
          0x22402aba, 0x11559b9a, 0xefddfc7c, 0xa76d04bb},
         {0x7bc605f8, 0x0829e4cc, 0x7bc605f8, 0x0829e4cc,
          0x0fb00163, 0x0829e4cc, 0x0fb00163, 0x0829e4cc}},
        // seed 29
        {{0x5211292d, 0x36311169, 0x5211292d, 0x36311169,
          0x2564873c, 0xcf9ed9d2, 0x2564873c, 0xcf9ed9d2},
         {0xbbb0f1fe, 0x0c385743, 0xbbb0f1fe, 0x0c385743,
          0xbbb0f1fe, 0x0c385743, 0xbbb0f1fe, 0x0c385743},
         {0xd4360cc5, 0x7995eb49, 0xd4360cc5, 0x7995eb49,
          0xaa1ac258, 0x1195cf0f, 0xaa1ac258, 0x1195cf0f},
         {0x4a4fc4dc, 0x9a12faff, 0x4a4fc4dc, 0x9a12faff,
          0x7c5d4a75, 0x8966e869, 0x7c5d4a75, 0x8966e869}},
        // seed 30
        {{0xd89f14cb, 0xb026cef4, 0xbe3d85ec, 0x9c459927,
          0x95b802e5, 0x1fda0728, 0x83f9052e, 0xb036d685},
         {0x367d894d, 0x037db2f2, 0x872f19f9, 0x9c11eadd,
          0x367d894d, 0x037db2f2, 0x872f19f9, 0x9c11eadd},
         {0x78d18dfc, 0x251ba9e2, 0x36b47d9b, 0xacf37bd4,
          0x069c271e, 0xc2f909d9, 0x0ae0869b, 0x545b5502},
         {0xade5219a, 0xade5219a, 0x3d90290a, 0x3d90290a,
          0x385706b3, 0x385706b3, 0xf71b6cd6, 0xf71b6cd6}},
        // seed 31
        {{0xd7432b9e, 0x3048625d, 0x0874da27, 0xef7f93e4,
          0x4caaa345, 0x6022991a, 0x16bdd27e, 0x3a35e821},
         {0x891f7ae7, 0xae1c3f79, 0x871a56f7, 0xa0191369,
          0x891f7ae7, 0xae1c3f79, 0x871a56f7, 0xa0191369},
         {0x14377645, 0x970cf2af, 0x19088b91, 0x9a330f7b,
          0x3ed394b2, 0x292ebb10, 0xfb99cbac, 0xec64e40e},
         {0xb387accc, 0xb387accc, 0xb387accc, 0xb387accc,
          0xb387accc, 0xb387accc, 0xb387accc, 0xb387accc}},
        // seed 32
        {{0xc8272cec, 0xce0f61db, 0x75bdb71d, 0x2c043f18,
          0xa627ab34, 0x7059d1c4, 0xa4f26652, 0xf4734e5b},
         {0xcd8c0d60, 0x974fa7d8, 0x55fb48ac, 0x9d63a87f,
          0xcd8c0d60, 0x974fa7d8, 0x55fb48ac, 0x9d63a87f},
         {0xb1304bd0, 0xf6f3b533, 0x175a371d, 0x5fca2371,
          0xec3cd952, 0x0894a734, 0x6e4b3bf8, 0x1f0a85fc},
         {0xc5c4eaab, 0xa4c75162, 0xc5c4eaab, 0xa4c75162,
          0xc5c4eaab, 0xa4c75162, 0xc5c4eaab, 0xa4c75162}},
    }};
    for (std::uint64_t seed = 1; seed <= pins.size(); ++seed) {
        const std::string source = fuzz::ProgramGen(seed).generate();
        const Pins &p = pins[seed - 1];
        for (int bits = 0; bits < 8; ++bits)
            expectPinned(outputCrcs(source, switchOptions(bits)),
                         {p.assembly[bits], p.dot[bits], p.words[bits],
                          p.labels[bits]},
                         "ProgramGen seed " + std::to_string(seed) +
                             " at switch index " + std::to_string(bits));
    }
}

} // namespace

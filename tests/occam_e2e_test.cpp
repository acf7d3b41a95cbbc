/**
 * @file
 * End-to-end tests: OCCAM source -> compiler -> object code ->
 * multiprocessor simulation, verified through the data segment.
 * These exercise the full thesis pipeline (Fig 4.21 + Chapter 6).
 */
#include <gtest/gtest.h>

#include "mp/system.hpp"
#include "occam/compiler.hpp"
#include "support/cli.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace qm;
using namespace qm::occam;

/** Compile, run on @p pes PEs, and return the finished system. */
struct Exec
{
    CompiledProgram compiled;
    std::unique_ptr<mp::System> system;
    mp::RunResult result;

    Exec(const std::string &source, int pes = 1,
        const CompileOptions &options = {})
        : compiled(compileOccam(source, options))
    {
        mp::SystemConfig config;
        config.numPes = pes;
        system = std::make_unique<mp::System>(compiled.object, config);
        result = system->run(compiled.mainLabel);
    }

    isa::Word
    word(const std::string &array, int index = 0) const
    {
        return system->memory().readWord(
            compiled.arrayAddress(array) +
            static_cast<isa::Addr>(index) * 4);
    }
};

TEST(E2e, StraightLineArithmetic)
{
    Exec run(
        "var r[4]:\n"
        "var x, y:\n"
        "seq\n"
        "  x := 6\n"
        "  y := 7\n"
        "  r[0] := x * y\n"
        "  r[1] := (x + y) - 3\n"
        "  r[2] := x - (2 * y)\n"
        "  r[3] := (100 / x) + (100 \\ x)\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r", 0), 42u);
    EXPECT_EQ(run.word("r", 1), 10u);
    EXPECT_EQ(static_cast<isa::SWord>(run.word("r", 2)), -8);
    EXPECT_EQ(run.word("r", 3), 20u);  // 16 + 4
}

TEST(E2e, SharedSubexpressionFansOut)
{
    // d <- a/(a+b) + (a+b)*c: the Table 3.4 graph, exercising result
    // fan-out through dst fields.
    Exec run(
        "var r[1]:\n"
        "var a, b, c:\n"
        "seq\n"
        "  a := 40\n"
        "  b := 10\n"
        "  c := 3\n"
        "  r[0] := (a / (a + b)) + ((a + b) * c)\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r"), 150u);
}

TEST(E2e, BooleanAndComparisonOperators)
{
    Exec run(
        "var r[6]:\n"
        "var x:\n"
        "seq\n"
        "  x := 5\n"
        "  if\n"
        "    (x > 3) and (x < 10)\n"
        "      r[0] := 1\n"
        "  if\n"
        "    (x = 5) or (x = 6)\n"
        "      r[1] := 1\n"
        "  if\n"
        "    not (x <> 5)\n"
        "      r[2] := 1\n"
        "  if\n"
        "    x >= 6\n"
        "      r[3] := 1\n"
        "    x <= 4\n"
        "      r[3] := 2\n"
        "    x = 5\n"
        "      r[3] := 3\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r", 0), 1u);
    EXPECT_EQ(run.word("r", 1), 1u);
    EXPECT_EQ(run.word("r", 2), 1u);
    EXPECT_EQ(run.word("r", 3), 3u);
}

TEST(E2e, IfUpdatesScalarAcrossContexts)
{
    // The branch runs in its own context; the new value of y must flow
    // back to the parent through the splice.
    Exec run(
        "var r[1]:\n"
        "var x, y:\n"
        "seq\n"
        "  x := 2\n"
        "  y := 0\n"
        "  if\n"
        "    x > 1\n"
        "      y := 11\n"
        "    x <= 1\n"
        "      y := 22\n"
        "  r[0] := y + 1\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r"), 12u);
}

TEST(E2e, WhileLoopAccumulates)
{
    Exec run(
        "var r[1]:\n"
        "var i, sum:\n"
        "seq\n"
        "  i := 1\n"
        "  sum := 0\n"
        "  while i <= 10\n"
        "    seq\n"
        "      sum := sum + i\n"
        "      i := i + 1\n"
        "  r[0] := sum\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r"), 55u);
}

TEST(E2e, ReplicatedSeqDesugarsAndRuns)
{
    Exec run(
        "var r[1]:\n"
        "var sum:\n"
        "seq\n"
        "  sum := 0\n"
        "  seq k = [1 for 10]\n"
        "    sum := sum + k\n"
        "  r[0] := sum\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r"), 55u);
}

TEST(E2e, NestedLoops)
{
    Exec run(
        "var r[1]:\n"
        "var total:\n"
        "seq\n"
        "  total := 0\n"
        "  seq i = [0 for 4]\n"
        "    seq j = [0 for 3]\n"
        "      total := total + (i * j)\n"
        "  r[0] := total\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r"), 18u);  // (0+1+2+3)*(0+1+2) = 6*3
}

TEST(E2e, ArrayElementReadWrite)
{
    Exec run(
        "var v[8], r[2]:\n"
        "seq\n"
        "  seq i = [0 for 8]\n"
        "    v[i] := i * i\n"
        "  r[0] := v[3]\n"
        "  r[1] := v[7] - v[6]\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r", 0), 9u);
    EXPECT_EQ(run.word("r", 1), 13u);
    EXPECT_EQ(run.word("v", 5), 25u);
}

TEST(E2e, ParComponentsMergeResults)
{
    Exec run(
        "var r[3]:\n"
        "var a, b, x, y:\n"
        "seq\n"
        "  a := 10\n"
        "  b := 20\n"
        "  par\n"
        "    x := a + 1\n"
        "    y := b + 2\n"
        "  r[0] := x\n"
        "  r[1] := y\n"
        "  r[2] := x + y\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r", 0), 11u);
    EXPECT_EQ(run.word("r", 1), 22u);
    EXPECT_EQ(run.word("r", 2), 33u);
    EXPECT_GE(run.result.contexts, 3u);
}

TEST(E2e, ChannelsBetweenParComponents)
{
    // A producer/consumer pair communicating over a declared channel:
    // the core CSP rendezvous the architecture is built around.
    Exec run(
        "var r[1]:\n"
        "chan c:\n"
        "var got:\n"
        "seq\n"
        "  par\n"
        "    c ! 123\n"
        "    c ? got\n"
        "  r[0] := got\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r"), 123u);
}

TEST(E2e, ChannelPipelineInOrder)
{
    Exec run(
        "var r[3]:\n"
        "chan c:\n"
        "var a, b, d:\n"
        "seq\n"
        "  par\n"
        "    seq\n"
        "      c ! 1\n"
        "      c ! 2\n"
        "      c ! 3\n"
        "    seq\n"
        "      c ? a\n"
        "      c ? b\n"
        "      c ? d\n"
        "  r[0] := a\n"
        "  r[1] := b\n"
        "  r[2] := d\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r", 0), 1u);
    EXPECT_EQ(run.word("r", 1), 2u);
    EXPECT_EQ(run.word("r", 2), 3u);
}

TEST(E2e, ReplicatedParFansOut)
{
    Exec run(
        "var v[6]:\n"
        "par i = [0 for 6]\n"
        "  v[i] := i * 10\n");
    ASSERT_TRUE(run.result.completed);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(run.word("v", i), static_cast<isa::Word>(i * 10));
    EXPECT_GE(run.result.contexts, 7u);
}

TEST(E2e, ProcedureCallValueAndVarParams)
{
    Exec run(
        "var r[2]:\n"
        "proc addmul (value a, value b, var s, var p) =\n"
        "  seq\n"
        "    s := a + b\n"
        "    p := a * b\n"
        ":\n"
        "var s, p:\n"
        "seq\n"
        "  addmul (6, 7, s, p)\n"
        "  r[0] := s\n"
        "  r[1] := p\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r", 0), 13u);
    EXPECT_EQ(run.word("r", 1), 42u);
}

TEST(E2e, ProcedureWithArrayParam)
{
    Exec run(
        "var v[5], r[1]:\n"
        "proc fill (var a[], value n) =\n"
        "  seq i = [0 for n]\n"
        "    a[i] := i + 100\n"
        ":\n"
        "seq\n"
        "  fill (v, 5)\n"
        "  r[0] := v[4]\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r"), 104u);
    EXPECT_EQ(run.word("v", 0), 100u);
}

TEST(E2e, RecursiveProcedure)
{
    // Factorial by recursion: contexts splice re-entrantly against one
    // shared instruction sequence (the pseudo-static reentrancy claim).
    Exec run(
        "var r[1]:\n"
        "proc fact (value n, var out) =\n"
        "  if\n"
        "    n <= 1\n"
        "      out := 1\n"
        "    n > 1\n"
        "      var sub:\n"
        "      seq\n"
        "        fact (n - 1, sub)\n"
        "        out := n * sub\n"
        ":\n"
        "var f:\n"
        "seq\n"
        "  fact (6, f)\n"
        "  r[0] := f\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r"), 720u);
}

TEST(E2e, JobsFlagRejectsMalformedValues)
{
    // The sweep benches parse --jobs through parsePositiveIntArg
    // exactly like occamc's --pes: zero, negative, non-numeric,
    // trailing garbage, and absurd values must all fail with a
    // diagnostic, not a crash or a silent fallback.
    EXPECT_THROW(parsePositiveIntArg("0", "--jobs", 1024), FatalError);
    EXPECT_THROW(parsePositiveIntArg("-2", "--jobs", 1024), FatalError);
    EXPECT_THROW(parsePositiveIntArg("four", "--jobs", 1024),
                 FatalError);
    EXPECT_THROW(parsePositiveIntArg("4x", "--jobs", 1024), FatalError);
    EXPECT_THROW(parsePositiveIntArg("", "--jobs", 1024), FatalError);
    EXPECT_THROW(parsePositiveIntArg("4096", "--jobs", 1024),
                 FatalError);
    EXPECT_THROW(parsePositiveIntArg("99999999999999999999", "--jobs",
                                     1024),
                 FatalError);
    EXPECT_EQ(parsePositiveIntArg("8", "--jobs", 1024), 8);
}

TEST(E2e, SameResultOnEveryPeCount)
{
    // The acid test: identical observable results at 1..8 PEs.
    const std::string source =
        "var v[8], r[1]:\n"
        "var total:\n"
        "seq\n"
        "  par i = [0 for 8]\n"
        "    v[i] := (i * i) + 1\n"
        "  total := 0\n"
        "  seq i = [0 for 8]\n"
        "    total := total + v[i]\n"
        "  r[0] := total\n";
    // sum (i^2+1) for 0..7 = 140 + 8 = 148.
    for (int pes : {1, 2, 3, 4, 8}) {
        Exec run(source, pes);
        ASSERT_TRUE(run.result.completed) << "pes=" << pes;
        EXPECT_EQ(run.word("r"), 148u) << "pes=" << pes;
    }
}

TEST(E2e, OptimizationKnobsPreserveSemantics)
{
    const std::string source =
        "var r[1]:\n"
        "var i, sum:\n"
        "seq\n"
        "  i := 0\n"
        "  sum := 0\n"
        "  while i < 6\n"
        "    seq\n"
        "      sum := sum + (i * i)\n"
        "      i := i + 1\n"
        "  r[0] := sum\n";
    for (bool live : {true, false}) {
        for (bool inputseq : {true, false}) {
            for (bool prio : {true, false}) {
                CompileOptions options;
                options.liveAnalysis = live;
                options.inputSequencing = inputseq;
                options.priorityScheduling = prio;
                Exec run(source, 2, options);
                ASSERT_TRUE(run.result.completed);
                EXPECT_EQ(run.word("r"), 55u)
                    << live << inputseq << prio;
            }
        }
    }
}

TEST(E2e, WaitAndSkip)
{
    Exec run(
        "var r[1]:\n"
        "seq\n"
        "  skip\n"
        "  wait 500\n"
        "  r[0] := 9\n");
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r"), 9u);
    EXPECT_GE(run.result.cycles, 500);
}

TEST(E2e, CompilerRejectsDynamicReplicatedPar)
{
    EXPECT_THROW(compileOccam(
        "var v[8]:\n"
        "var n:\n"
        "seq\n"
        "  n := 4\n"
        "  par i = [0 for n]\n"
        "    v[i] := i\n"), FatalError);
}

TEST(E2e, UseBeforeDefinitionIsFatal)
{
    EXPECT_THROW(compileOccam(
        "var r[1]:\n"
        "var x, y:\n"
        "seq\n"
        "  x := y\n"), FatalError);
}

} // namespace

// Appended regression tests --------------------------------------------------
// (kept in the anonymous namespace of this file via re-opening it)

namespace {

using namespace qm;
using namespace qm::occam;

TEST(E2e, LoopSendsPrecedeTerminatorSend)
{
    // Regression: a send after a loop of sends on the same channel must
    // not overtake the loop (the loop splice sits on the control-token
    // chain, thesis section 4.6). The consumer records arrival order.
    Exec run(
        "var r[5]:\n"
        "chan c:\n"
        "seq\n"
        "  par\n"
        "    seq\n"
        "      seq n = [1 for 4]\n"
        "        c ! n\n"
        "      c ! 99\n"
        "    seq k = [0 for 5]\n"
        "      var v:\n"
        "      seq\n"
        "        c ? v\n"
        "        r[k] := v\n",
        2);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r", 0), 1u);
    EXPECT_EQ(run.word("r", 1), 2u);
    EXPECT_EQ(run.word("r", 2), 3u);
    EXPECT_EQ(run.word("r", 3), 4u);
    EXPECT_EQ(run.word("r", 4), 99u);
}

TEST(E2e, ChannelParametersThreadThroughProcs)
{
    // A two-stage pipeline built from one proc with chan parameters:
    // stage(cin, cout) doubles each value.
    Exec run(
        "var r[3]:\n"
        "chan a, b, c:\n"
        "proc stage (chan cin, chan cout) =\n"
        "  seq i = [0 for 3]\n"
        "    var v:\n"
        "    seq\n"
        "      cin ? v\n"
        "      cout ! v * 2\n"
        ":\n"
        "par\n"
        "  seq n = [1 for 3]\n"
        "    a ! n\n"
        "  stage (a, b)\n"
        "  stage (b, c)\n"
        "  seq k = [0 for 3]\n"
        "    var v:\n"
        "    seq\n"
        "      c ? v\n"
        "      r[k] := v\n",
        4);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r", 0), 4u);
    EXPECT_EQ(run.word("r", 1), 8u);
    EXPECT_EQ(run.word("r", 2), 12u);
}

TEST(E2e, IfInsideWhileWithChannels)
{
    // The sieve access pattern in miniature: a loop whose body is an
    // if over channel operations.
    Exec run(
        "var r[1]:\n"
        "chan c:\n"
        "seq\n"
        "  par\n"
        "    seq\n"
        "      c ! 5\n"
        "      c ! 0\n"
        "      c ! 7\n"
        "      c ! 0\n"
        "      c ! 0\n"
        "    var stop, total:\n"
        "    seq\n"
        "      stop := 0\n"
        "      total := 0\n"
        "      while stop < 3\n"
        "        var v:\n"
        "        seq\n"
        "          c ? v\n"
        "          if\n"
        "            v = 0\n"
        "              stop := stop + 1\n"
        "            v <> 0\n"
        "              total := total + v\n"
        "      r[0] := total\n",
        2);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r"), 12u);
}

TEST(E2e, ConsecutiveCallsDoNotReorder)
{
    // Two calls sending on the same channel must run in program order.
    Exec run(
        "var r[2]:\n"
        "chan c:\n"
        "proc put (chan ch, value v) =\n"
        "  ch ! v\n"
        ":\n"
        "par\n"
        "  seq\n"
        "    put (c, 10)\n"
        "    put (c, 20)\n"
        "  seq\n"
        "    var a, b:\n"
        "    seq\n"
        "      c ? a\n"
        "      c ? b\n"
        "      r[0] := a\n"
        "      r[1] := b\n",
        2);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r", 0), 10u);
    EXPECT_EQ(run.word("r", 1), 20u);
}

TEST(E2e, ForkWaitsForEarlierReadsOfArraysItsChildWrites)
{
    // The read of arr[5] precedes the par that overwrites it, so g is
    // 5 * 3 on any machine; a child forked before that read ran would
    // make it 101 * 3.
    Exec run(
        "var r[1], arr[16]:\n"
        "var g:\n"
        "seq\n"
        "  seq i = [0 for 16]\n"
        "    arr[i] := i\n"
        "  g := arr[5] * 3\n"
        "  par p = [0 for 8]\n"
        "    arr[p + 4] := 100 + p\n"
        "  r[0] := g\n",
        8);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.word("r"), 15u);
    EXPECT_EQ(run.word("arr", 5), 101u);
}

} // namespace

/**
 * @file
 * Tests for acyclic data-flow graphs and the indexed queue machine
 * (thesis sections 3.5-3.6).
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "dfg/graph.hpp"
#include "dfg/iqm.hpp"
#include "dfg/scheduler.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"

namespace {

using namespace qm;
using namespace qm::dfg;

/** d <- a/(a+b) + (a+b)*c: the Fig 3.6 / Table 3.4 example. */
struct Table34Graph
{
    Dfg graph;
    int a, b, c, sum, quot, prod, root;

    Table34Graph()
    {
        a = graph.addInput("a");
        b = graph.addInput("b");
        c = graph.addInput("c");
        sum = graph.addNode(Actor::Add, {a, b});
        quot = graph.addNode(Actor::Div, {a, sum});
        prod = graph.addNode(Actor::Mul, {sum, c});
        root = graph.addNode(Actor::Add, {quot, prod});
    }
};

TEST(Dfg, StructureQueries)
{
    Table34Graph t;
    EXPECT_EQ(t.graph.size(), 7);
    EXPECT_EQ(t.graph.inputs(), (std::vector<int>{t.a, t.b, t.c}));
    EXPECT_EQ(t.graph.sinks(), (std::vector<int>{t.root}));
    EXPECT_EQ(t.graph.arity(t.sum), 2);
    EXPECT_EQ(t.graph.arity(t.a), 0);
    // a feeds both + (slot 0) and / (slot 0).
    auto consumers = t.graph.consumers(t.a);
    ASSERT_EQ(consumers.size(), 2u);
    EXPECT_EQ(consumers[0], (Consumer{t.sum, 0}));
    EXPECT_EQ(consumers[1], (Consumer{t.quot, 0}));
}

TEST(Dfg, ReachesImplementsPartialOrder)
{
    Table34Graph t;
    EXPECT_TRUE(t.graph.reaches(t.a, t.root));
    EXPECT_TRUE(t.graph.reaches(t.sum, t.prod));
    EXPECT_FALSE(t.graph.reaches(t.prod, t.sum));
    EXPECT_FALSE(t.graph.reaches(t.b, t.quot) &&
                 t.graph.reaches(t.quot, t.b));
    EXPECT_TRUE(t.graph.reaches(t.b, t.b));  // reflexive
    EXPECT_FALSE(t.graph.reaches(t.c, t.quot));  // incomparable pair
}

TEST(Dfg, IsTopologicalValidation)
{
    Table34Graph t;
    std::vector<int> good = {t.a, t.b, t.c, t.sum, t.quot, t.prod, t.root};
    EXPECT_TRUE(t.graph.isTopological(good));
    std::vector<int> bad = {t.sum, t.a, t.b, t.c, t.quot, t.prod, t.root};
    EXPECT_FALSE(t.graph.isTopological(bad));
    std::vector<int> short_order = {t.a, t.b};
    EXPECT_FALSE(t.graph.isTopological(short_order));
    std::vector<int> dup = {t.a, t.a, t.c, t.sum, t.quot, t.prod, t.root};
    EXPECT_FALSE(t.graph.isTopological(dup));
}

TEST(Dfg, AddNodeRejectsForwardReferences)
{
    Dfg graph;
    EXPECT_THROW(graph.addNode(Actor::Add, {0, 1}), PanicError);
}

TEST(Dfg, DotOutputContainsNodesAndEdges)
{
    Table34Graph t;
    std::string dot = t.graph.toDot("t34");
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Iqm, Table34ProgramEvaluatesCorrectly)
{
    // a=40, b=10, c=3: d = 40/50 + 50*3 = 0 + 150 = 150.
    Table34Graph t;
    std::vector<int> order = {t.a, t.b, t.c, t.sum, t.quot, t.prod,
                              t.root};
    IqmProgram program = buildProgram(t.graph, order);
    NodeValues values =
        evalProgram(t.graph, program, {{"a", 40}, {"b", 10}, {"c", 3}});
    EXPECT_EQ(values[static_cast<size_t>(t.sum)], 50);
    EXPECT_EQ(values[static_cast<size_t>(t.quot)], 0);
    EXPECT_EQ(values[static_cast<size_t>(t.prod)], 150);
    EXPECT_EQ(values[static_cast<size_t>(t.root)], 150);
}

TEST(Iqm, Table34IndicesFollowConstruction)
{
    // With the natural order a,b,c,+,/,*,+ the front indices are
    // o = 0,0,0,0,2,4,6 and the result sets place shared values twice.
    Table34Graph t;
    std::vector<int> order = {t.a, t.b, t.c, t.sum, t.quot, t.prod,
                              t.root};
    IqmProgram program = buildProgram(t.graph, order);
    // a feeds + at slot 0 (o=0) and / at slot 0 (o=2): indices {0, 2}.
    EXPECT_EQ(program.instrs[0].resultIndices, (std::vector<int>{0, 2}));
    // b feeds + slot 1: {1}.
    EXPECT_EQ(program.instrs[1].resultIndices, (std::vector<int>{1}));
    // c feeds * slot 1: {5}.
    EXPECT_EQ(program.instrs[2].resultIndices, (std::vector<int>{5}));
    // + feeds / slot 1 (index 3) and * slot 0 (index 4): {3, 4}.
    EXPECT_EQ(program.instrs[3].resultIndices, (std::vector<int>{3, 4}));
    // / feeds final + slot 0: {6}; * feeds slot 1: {7}.
    EXPECT_EQ(program.instrs[4].resultIndices, (std::vector<int>{6}));
    EXPECT_EQ(program.instrs[5].resultIndices, (std::vector<int>{7}));
    EXPECT_TRUE(program.instrs[6].resultIndices.empty());
    EXPECT_EQ(program.queueDepth(), 8);
}

TEST(Iqm, OffsetsAreRelativeToPostConsumeFront)
{
    Table34Graph t;
    std::vector<int> order = {t.a, t.b, t.c, t.sum, t.quot, t.prod,
                              t.root};
    IqmProgram program = buildProgram(t.graph, order);
    // Instruction 0 (fetch a): front 0, arity 0 -> offsets equal indices.
    EXPECT_EQ(program.instrs[0].resultOffsets, (std::vector<int>{0, 2}));
    // Instruction 3 (+): front 0, consumes 2 -> indices {3,4} = +1,+2.
    EXPECT_EQ(program.instrs[3].resultOffsets, (std::vector<int>{1, 2}));
}

TEST(Iqm, NonTopologicalOrderPanics)
{
    Table34Graph t;
    std::vector<int> bad = {t.sum, t.a, t.b, t.c, t.quot, t.prod, t.root};
    EXPECT_THROW(buildProgram(t.graph, bad), PanicError);
}

TEST(Iqm, EveryTopologicalOrderEvaluatesCorrectly)
{
    // The main Chapter 3 theorem: ANY sequence respecting pi_G is a valid
    // program. Enumerate all permutations of the 7-node example, filter
    // to topological ones, and check each evaluates to the same values.
    Table34Graph t;
    std::vector<int> perm = {0, 1, 2, 3, 4, 5, 6};
    InputValues inputs = {{"a", 40}, {"b", 10}, {"c", 3}};
    int checked = 0;
    do {
        if (!t.graph.isTopological(perm))
            continue;
        IqmProgram program = buildProgram(t.graph, perm);
        NodeValues values = evalProgram(t.graph, program, inputs);
        ASSERT_EQ(values[static_cast<size_t>(t.root)], 150);
        ++checked;
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_GT(checked, 10);  // the example has many linearizations
}

TEST(Iqm, RandomDagsEvaluateConsistently)
{
    // Property sweep: random DAGs evaluated via the indexed queue agree
    // with direct recursive evaluation, for scheduler-chosen orders.
    SplitMix64 rng(0xDF6);
    for (int trial = 0; trial < 200; ++trial) {
        Dfg graph;
        InputValues inputs;
        int n_inputs = static_cast<int>(rng.range(1, 4));
        for (int i = 0; i < n_inputs; ++i) {
            std::string name = "v" + std::to_string(i);
            graph.addInput(name);
            inputs[name] = rng.range(-20, 20);
        }
        int extra = static_cast<int>(rng.range(1, 12));
        for (int i = 0; i < extra; ++i) {
            int which = static_cast<int>(rng.below(4));
            int a = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(graph.size())));
            if (which == 0) {
                graph.addNode(Actor::Neg, {a});
            } else {
                int b = static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(graph.size())));
                static const Actor ops[] = {Actor::Add, Actor::Sub,
                                            Actor::Mul};
                graph.addNode(ops[which - 1], {a, b});
            }
        }

        // Reference values by direct propagation in id order.
        NodeValues expected(static_cast<size_t>(graph.size()));
        for (int id = 0; id < graph.size(); ++id) {
            std::vector<std::int64_t> operands;
            for (int arg : graph.node(id).args)
                operands.push_back(expected[static_cast<size_t>(arg)]);
            expected[static_cast<size_t>(id)] =
                arithActor(graph.node(id), operands, inputs);
        }

        std::vector<int> order = schedule(graph);
        ASSERT_TRUE(graph.isTopological(order));
        IqmProgram program = buildProgram(graph, order);
        NodeValues values = evalProgram(graph, program, inputs);
        ASSERT_EQ(values, expected);
    }
}

TEST(Iqm, RenderProgramMentionsOperatorsAndOffsets)
{
    Table34Graph t;
    IqmProgram program = buildProgram(
        t.graph, std::vector<int>{t.a, t.b, t.c, t.sum, t.quot, t.prod,
                                  t.root});
    auto lines = renderProgram(t.graph, program);
    ASSERT_EQ(lines.size(), 7u);
    EXPECT_EQ(lines[0], "fetch a  -> +0,+2");
    EXPECT_EQ(lines[3], "+  -> +1,+2");
    EXPECT_EQ(lines[6], "+");
}

} // namespace

/**
 * @file
 * Tests for the input-sequencing heuristic and the priority scheduler
 * (thesis section 4.5/4.7, Figures 4.13-4.16, 4.20, Tables 4.4/4.5).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dfg/graph.hpp"
#include "dfg/scheduler.hpp"
#include "dfg/sequencing.hpp"
#include "support/rng.hpp"

namespace {

using namespace qm;
using namespace qm::dfg;

/** e <- ((a+b) * (-c)) / d: the Fig 4.14 example. */
struct Fig414Graph
{
    Dfg graph;
    int a, b, c, d, sum, neg, prod, quot, e;

    Fig414Graph()
    {
        a = graph.addInput("a");
        b = graph.addInput("b");
        c = graph.addInput("c");
        d = graph.addInput("d");
        sum = graph.addNode(Actor::Add, {a, b});
        neg = graph.addNode(Actor::Neg, {c});
        prod = graph.addNode(Actor::Mul, {sum, neg});
        quot = graph.addNode(Actor::Div, {prod, d});
        e = graph.addNode(Actor::Store, {quot});
    }
};

TEST(Sequencing, DepthFirstListProperty)
{
    // Fig 4.13 property: all successors of a node precede it in the
    // list; all predecessors follow it.
    Fig414Graph t;
    std::vector<int> list = depthFirstList(t.graph);
    ASSERT_EQ(static_cast<int>(list.size()), t.graph.size());
    std::vector<int> pos(static_cast<size_t>(t.graph.size()));
    for (std::size_t i = 0; i < list.size(); ++i)
        pos[static_cast<size_t>(list[i])] = static_cast<int>(i);
    for (int v = 0; v < t.graph.size(); ++v)
        for (int s : t.graph.successors(v))
            EXPECT_LT(pos[static_cast<size_t>(s)],
                      pos[static_cast<size_t>(v)]);
}

TEST(Sequencing, Table44CostsMatchThesis)
{
    Fig414Graph t;
    CostAnalysis costs = analyzeCosts(t.graph);
    // C(v) per Table 4.4.
    EXPECT_EQ(costs.cost[static_cast<size_t>(t.a)], 1);
    EXPECT_EQ(costs.cost[static_cast<size_t>(t.b)], 1);
    EXPECT_EQ(costs.cost[static_cast<size_t>(t.c)], 1);
    EXPECT_EQ(costs.cost[static_cast<size_t>(t.d)], 1);
    EXPECT_EQ(costs.cost[static_cast<size_t>(t.sum)], 3);
    EXPECT_EQ(costs.cost[static_cast<size_t>(t.neg)], 2);
    EXPECT_EQ(costs.cost[static_cast<size_t>(t.prod)], 6);
    EXPECT_EQ(costs.cost[static_cast<size_t>(t.quot)], 8);
    EXPECT_EQ(costs.cost[static_cast<size_t>(t.e)], 9);
}

TEST(Sequencing, Table44RequiredInputSets)
{
    Fig414Graph t;
    CostAnalysis costs = analyzeCosts(t.graph);
    auto istar = [&](int v) {
        return costs.requiredInputs[static_cast<size_t>(v)];
    };
    EXPECT_EQ(istar(t.sum), (std::vector<int>{t.a, t.b}));
    EXPECT_EQ(istar(t.neg), (std::vector<int>{t.c}));
    EXPECT_EQ(istar(t.prod), (std::vector<int>{t.a, t.b, t.c}));
    EXPECT_EQ(istar(t.quot), (std::vector<int>{t.a, t.b, t.c, t.d}));
    EXPECT_EQ(istar(t.e), (std::vector<int>{t.a, t.b, t.c, t.d}));
}

TEST(Sequencing, Table45WeightsMatchThesis)
{
    Fig414Graph t;
    CostAnalysis costs = analyzeCosts(t.graph);
    std::vector<long> w = inputWeights(t.graph, costs);
    EXPECT_EQ(w[static_cast<size_t>(t.a)], 27);
    EXPECT_EQ(w[static_cast<size_t>(t.b)], 27);
    EXPECT_EQ(w[static_cast<size_t>(t.c)], 26);
    EXPECT_EQ(w[static_cast<size_t>(t.d)], 18);
}

TEST(Sequencing, InputOrderIsWeightDescending)
{
    // The thesis finds {a,b,c,d} and {b,a,c,d} acceptable; stable sort
    // keeps insertion order on the a/b tie.
    Fig414Graph t;
    EXPECT_EQ(orderInputs(t.graph),
              (std::vector<int>{t.a, t.b, t.c, t.d}));
}

TEST(Sequencing, PredecessorSetsIncludeSelf)
{
    Fig414Graph t;
    CostAnalysis costs = analyzeCosts(t.graph);
    for (int v = 0; v < t.graph.size(); ++v) {
        const auto &pstar =
            costs.predecessorSet[static_cast<size_t>(v)];
        EXPECT_TRUE(std::binary_search(pstar.begin(), pstar.end(), v));
    }
}

TEST(Sequencing, PredecessorWeightsMatchTheCostAnalysis)
{
    // The graph builder weighs a context's receives with
    // PredecessorWeights instead of analyzeCosts. On random graphs,
    // wider than one 64-bit word and, every 40th, than the 1,024 ids it
    // counts C(u) over at a time, its W of any vertex is the sum of
    // C(u) over the P*(u) holding it, and inputWeights' W on inputs.
    SplitMix64 rng(0x1F7);
    PredecessorWeights weigher;  // Reused across graphs, as in the builder.
    for (int trial = 0; trial < 200; ++trial) {
        Dfg graph;
        int n = static_cast<int>(trial % 40 == 0 ? rng.range(1025, 2600)
                                                 : rng.range(1, 150));
        graph.addInput("i0");
        for (int i = 1; i < n; ++i) {
            auto pick = [&] {
                return static_cast<int>(
                    rng.below(static_cast<std::uint64_t>(graph.size())));
            };
            switch (rng.below(4)) {
              case 0:
                graph.addInput("i" + std::to_string(i));
                break;
              case 1:
                graph.addNode(Actor::Neg, {pick()});
                break;
              default:
                graph.addNode(Actor::Add, {pick(), pick()});
                break;
            }
        }
        CostAnalysis costs = analyzeCosts(graph);
        std::vector<long> reference = inputWeights(graph, costs);
        // Weigh a shuffled subset: the weights follow the given order.
        std::vector<int> nodes;
        for (int v = 0; v < graph.size(); ++v)
            if (rng.below(2) == 0)
                nodes.push_back(v);
        for (std::size_t i = nodes.size(); i > 1; --i)
            std::swap(nodes[i - 1], nodes[rng.below(i)]);
        const std::vector<long> &w = weigher.weigh(graph, nodes);
        ASSERT_EQ(w.size(), nodes.size());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            int v = nodes[i];
            long expected = 0;
            for (int u = 0; u < graph.size(); ++u) {
                const auto &pstar =
                    costs.predecessorSet[static_cast<size_t>(u)];
                if (std::binary_search(pstar.begin(), pstar.end(), v))
                    expected += costs.cost[static_cast<size_t>(u)];
            }
            ASSERT_EQ(w[i], expected) << "trial " << trial << " node " << v;
            if (graph.isInput(v)) {
                ASSERT_EQ(w[i], reference[static_cast<size_t>(v)]);
            }
        }
    }
}

TEST(Scheduler, ProducesTopologicalOrders)
{
    Fig414Graph t;
    std::vector<int> order = schedule(t.graph);
    EXPECT_TRUE(t.graph.isTopological(order));
    order = schedule(t.graph, fifoPriority);
    EXPECT_TRUE(t.graph.isTopological(order));
}

TEST(Scheduler, PriorityClassesMatchThesisList)
{
    EXPECT_EQ(actorPriority(Actor::Rfork), 1);
    EXPECT_EQ(actorPriority(Actor::Ifork), 1);
    EXPECT_EQ(actorPriority(Actor::Send), 2);
    EXPECT_EQ(actorPriority(Actor::Store), 3);
    EXPECT_EQ(actorPriority(Actor::Add), 4);
    EXPECT_EQ(actorPriority(Actor::Const), 4);
    EXPECT_EQ(actorPriority(Actor::Fetch), 5);
    EXPECT_EQ(actorPriority(Actor::In), 5);
    EXPECT_EQ(actorPriority(Actor::Recv), 6);
    EXPECT_EQ(actorPriority(Actor::Wait), 7);
}

TEST(Scheduler, ForkRunsBeforeIndependentArithmetic)
{
    // A ready fork must be emitted before ready arithmetic so parallel
    // contexts start as early as possible.
    Dfg graph;
    int x = graph.addInput("x");
    int y = graph.addInput("y");
    int add = graph.addNode(Actor::Add, {x, y});
    (void)add;
    int code = graph.addConst(100);
    int fork = graph.addNode(Actor::Rfork, {code});
    std::vector<int> order = schedule(graph);
    auto pos = [&](int id) {
        return std::find(order.begin(), order.end(), id) - order.begin();
    };
    // Once its const operand is placed, the fork outranks + and inputs.
    EXPECT_LT(pos(fork), pos(add));
}

TEST(Scheduler, RandomGraphsScheduleCompletely)
{
    SplitMix64 rng(0x5EED);
    for (int trial = 0; trial < 100; ++trial) {
        Dfg graph;
        int n = static_cast<int>(rng.range(1, 30));
        graph.addInput("i0");
        for (int i = 1; i < n; ++i) {
            if (rng.below(3) == 0) {
                graph.addInput("i" + std::to_string(i));
            } else {
                int a = static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(graph.size())));
                int b = static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(graph.size())));
                graph.addNode(Actor::Add, {a, b});
            }
        }
        std::vector<int> order = schedule(graph);
        ASSERT_TRUE(graph.isTopological(order));
    }
}

} // namespace

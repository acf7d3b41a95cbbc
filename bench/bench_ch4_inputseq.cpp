/**
 * @file
 * Thesis Fig 4.14 and Tables 4.4/4.5: the input-sequencing analysis for
 * e <- ((a+b) * (-c)) / d - depth-first list, predecessor sets P*,
 * required input sets I*, computation costs C, and input weights W.
 */
#include <iostream>

#include "dfg/graph.hpp"
#include "dfg/sequencing.hpp"
#include "support/table.hpp"

using namespace qm;
using namespace qm::dfg;

int
main()
{
    Dfg graph;
    int a = graph.addInput("a");
    int b = graph.addInput("b");
    int c = graph.addInput("c");
    int d = graph.addInput("d");
    int sum = graph.addNode(Actor::Add, {a, b});
    int neg = graph.addNode(Actor::Neg, {c});
    int prod = graph.addNode(Actor::Mul, {sum, neg});
    int quot = graph.addNode(Actor::Div, {prod, d});
    graph.addNode(Actor::Store, {quot});

    auto name = [&](int v) {
        const DfgNode &n = graph.node(v);
        if (n.op == Actor::In)
            return n.name;
        if (n.op == Actor::Store)
            return std::string("e");
        return std::string(spelling(n.op));
    };

    std::cout << "e <- ((a+b) * (-c)) / d   (thesis Fig 4.14)\n\n";
    std::cout << "Depth-first list (Fig 4.13): ";
    for (int v : depthFirstList(graph))
        std::cout << name(v) << " ";
    std::cout << "\n\nTable 4.4: P*, I*, C per node\n";

    CostAnalysis costs = analyzeCosts(graph);
    TextTable t44({"node", "P*(v)", "I*(v)", "C(v)"});
    for (int v = 0; v < graph.size(); ++v) {
        std::string pstar, istar;
        for (int u : costs.predecessorSet[static_cast<size_t>(v)])
            pstar += name(u) + " ";
        for (int u : costs.requiredInputs[static_cast<size_t>(v)])
            istar += name(u) + " ";
        t44.addRow({name(v), pstar, istar,
                    std::to_string(
                        costs.cost[static_cast<size_t>(v)])});
    }
    std::cout << t44.render() << "\n";

    std::cout << "Table 4.5: input weights W(v)\n";
    std::vector<long> weights = inputWeights(graph, costs);
    TextTable t45({"input", "W(v)"});
    for (int v : graph.inputs())
        t45.addRow({name(v),
                    std::to_string(weights[static_cast<size_t>(v)])});
    std::cout << t45.render() << "\n";

    std::cout << "Preferred input order (pi_I): ";
    for (int v : orderInputs(graph))
        std::cout << name(v) << " ";
    std::cout << "\n(thesis: {a,b,c,d} and {b,a,c,d} are both "
                 "acceptable)\n";
    return 0;
}

/**
 * @file
 * Thesis Table 3.4 / Fig 3.6: the indexed-queue-machine instruction
 * sequence for d <- a/(a+b) + (a+b)c, where the common subexpression
 * (a+b) fans out through result indices.
 */
#include <iostream>

#include "dfg/graph.hpp"
#include "dfg/iqm.hpp"
#include "dfg/scheduler.hpp"
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
    int sum = graph.addNode(Actor::Add, {a, b});
    int quot = graph.addNode(Actor::Div, {a, sum});
    int prod = graph.addNode(Actor::Mul, {sum, c});
    graph.addNode(Actor::Add, {quot, prod});

    std::cout << "d <- a/(a+b) + (a+b)c   (thesis Table 3.4 / Fig "
                 "3.6)\n"
              << "Parse tree: 11 nodes; shared-subexpression DAG: "
              << graph.size() << " nodes\n\n";

    std::vector<int> order = schedule(graph);
    IqmProgram program = buildProgram(graph, order);

    TextTable table({"instruction", "result indices (absolute)",
                     "front"});
    auto lines = renderProgram(graph, program);
    for (std::size_t i = 0; i < program.instrs.size(); ++i) {
        std::string indices;
        for (int index : program.instrs[i].resultIndices)
            indices += (indices.empty() ? "" : ",") +
                       std::to_string(index);
        table.addRow({lines[i], indices,
                      std::to_string(program.instrs[i].frontIndex)});
    }
    std::cout << table.render() << "\n";

    NodeValues values =
        evalProgram(graph, program, {{"a", 40}, {"b", 10}, {"c", 3}});
    std::cout << "evaluation with a=40 b=10 c=3: d = "
              << values[static_cast<size_t>(graph.size() - 1)]
              << " (expected 150)\n";
    std::cout << "queue page requirement: " << program.queueDepth()
              << " words\n";
    return 0;
}

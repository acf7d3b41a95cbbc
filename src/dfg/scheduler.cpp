#include "dfg/scheduler.hpp"

#include <queue>

#include "support/diagnostics.hpp"

namespace qm::dfg {

int
thesisPriority(const Dfg &graph, int node)
{
    return actorPriority(graph.node(node).op);
}

int
fifoPriority(const Dfg &, int)
{
    return 4;
}

std::vector<int>
schedule(const Dfg &graph, const PriorityFn &priority)
{
    struct Entry
    {
        int prio;
        int seq;   // Readiness order for deterministic tie-breaking.
        int node;

        bool
        operator>(const Entry &other) const
        {
            if (prio != other.prio)
                return prio > other.prio;
            return seq > other.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
    std::vector<int> unmarked(static_cast<size_t>(graph.size()), 0);
    int seq = 0;
    for (int node = 0; node < graph.size(); ++node) {
        unmarked[static_cast<size_t>(node)] =
            graph.arity(node) +
            static_cast<int>(graph.orderPreds(node).size());
        if (unmarked[static_cast<size_t>(node)] == 0)
            ready.push(Entry{priority(graph, node), seq++, node});
    }

    auto release = [&](int node) {
        int &pending = unmarked[static_cast<size_t>(node)];
        if (--pending == 0)
            ready.push(Entry{priority(graph, node), seq++, node});
    };

    std::vector<int> order;
    order.reserve(static_cast<size_t>(graph.size()));
    while (!ready.empty()) {
        Entry entry = ready.top();
        ready.pop();
        order.push_back(entry.node);
        for (const Consumer &consumer : graph.consumers(entry.node))
            release(consumer.node);
        for (int succ : graph.orderSuccs(entry.node))
            release(succ);
    }
    panicIf(static_cast<int>(order.size()) != graph.size(),
            "scheduler emitted ", order.size(), " of ", graph.size(),
            " nodes (graph has a cycle?)");
    return order;
}

} // namespace qm::dfg

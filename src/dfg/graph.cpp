#include "dfg/graph.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "support/diagnostics.hpp"

namespace qm::dfg {

int
Dfg::addInput(std::string input_name)
{
    DfgNode n;
    n.op = Actor::In;
    n.name = std::move(input_name);
    nodes_.push_back(std::move(n));
    consumers_.emplace_back();
    orderSuccs_.emplace_back();
    orderPreds_.emplace_back();
    return size() - 1;
}

int
Dfg::addConst(std::int64_t value)
{
    DfgNode n;
    n.op = Actor::Const;
    n.constValue = value;
    nodes_.push_back(std::move(n));
    consumers_.emplace_back();
    orderSuccs_.emplace_back();
    orderPreds_.emplace_back();
    return size() - 1;
}

int
Dfg::addNode(Actor op, std::vector<int> args)
{
    int id = size();
    for (std::size_t slot = 0; slot < args.size(); ++slot) {
        int arg = args[slot];
        panicIf(arg < 0 || arg >= id,
                "node argument ", arg, " out of range (must precede)");
        consumers_[static_cast<size_t>(arg)].push_back(
            Consumer{id, static_cast<int>(slot)});
    }
    DfgNode n;
    n.op = op;
    n.args = std::move(args);
    nodes_.push_back(std::move(n));
    consumers_.emplace_back();
    orderSuccs_.emplace_back();
    orderPreds_.emplace_back();
    return id;
}

int
Dfg::addCodeAddr(std::string label)
{
    DfgNode n;
    n.op = Actor::CodeAddr;
    n.name = std::move(label);
    nodes_.push_back(std::move(n));
    consumers_.emplace_back();
    orderSuccs_.emplace_back();
    orderPreds_.emplace_back();
    return size() - 1;
}

void
Dfg::addOrderEdge(int before, int after)
{
    panicIf(before < 0 || before >= size() || after < 0 ||
                after >= size(),
            "order edge endpoint out of range");
    if (before == after)
        return;
    auto &succs = orderSuccs_[static_cast<size_t>(before)];
    for (int s : succs)
        if (s == after)
            return;  // duplicate
    succs.push_back(after);
    orderPreds_[static_cast<size_t>(after)].push_back(before);
}

std::vector<int>
Dfg::inputs() const
{
    std::vector<int> result;
    for (int id = 0; id < size(); ++id)
        if (isInput(id))
            result.push_back(id);
    return result;
}

std::vector<int>
Dfg::sinks() const
{
    std::vector<int> result;
    for (int id = 0; id < size(); ++id)
        if (consumers_[static_cast<size_t>(id)].empty())
            result.push_back(id);
    return result;
}

std::vector<int>
Dfg::predecessors(int id) const
{
    std::vector<int> preds = node(id).args;
    std::sort(preds.begin(), preds.end());
    preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    return preds;
}

std::vector<int>
Dfg::successors(int id) const
{
    std::vector<int> succs;
    for (const Consumer &c : consumers(id))
        succs.push_back(c.node);
    std::sort(succs.begin(), succs.end());
    succs.erase(std::unique(succs.begin(), succs.end()), succs.end());
    return succs;
}

bool
Dfg::reaches(int from, int to) const
{
    if (from == to)
        return true;
    // Arena construction guarantees args precede their consumers, so
    // node ids are already topologically ordered: walk forward.
    std::vector<bool> mark(static_cast<size_t>(size()), false);
    mark[static_cast<size_t>(from)] = true;
    for (int id = from + 1; id <= to; ++id) {
        for (int arg : node(id).args) {
            if (mark[static_cast<size_t>(arg)]) {
                mark[static_cast<size_t>(id)] = true;
                break;
            }
        }
    }
    return mark[static_cast<size_t>(to)];
}

bool
Dfg::isTopological(const std::vector<int> &order) const
{
    if (static_cast<int>(order.size()) != size())
        return false;
    std::vector<int> position(static_cast<size_t>(size()), -1);
    for (std::size_t i = 0; i < order.size(); ++i) {
        int id = order[i];
        if (id < 0 || id >= size() || position[static_cast<size_t>(id)] >= 0)
            return false;
        position[static_cast<size_t>(id)] = static_cast<int>(i);
    }
    for (int id = 0; id < size(); ++id) {
        for (int arg : node(id).args)
            if (position[static_cast<size_t>(arg)] >
                position[static_cast<size_t>(id)])
                return false;
        for (int pred : orderPreds(id))
            if (position[static_cast<size_t>(pred)] >
                position[static_cast<size_t>(id)])
                return false;
    }
    return true;
}

std::string
Dfg::toDot(const std::string &title) const
{
    std::ostringstream os;
    os << "digraph \"" << title << "\" {\n";
    for (int id = 0; id < size(); ++id) {
        const DfgNode &n = node(id);
        os << "  n" << id << " [label=\"";
        if (n.op == Actor::In)
            os << n.name;
        else if (n.op == Actor::Const)
            os << n.constValue;
        else
            os << spelling(n.op);
        os << "\"";
        if (n.op == Actor::In)
            os << " shape=plaintext";
        os << "];\n";
    }
    for (int id = 0; id < size(); ++id)
        for (std::size_t slot = 0; slot < node(id).args.size(); ++slot)
            os << "  n" << node(id).args[slot] << " -> n" << id
               << " [label=\"" << slot << "\"];\n";
    // Control-token arcs render dashed (thesis Fig 4.18 style).
    for (int id = 0; id < size(); ++id)
        for (int succ : orderSuccs(id))
            os << "  n" << id << " -> n" << succ << " [style=dashed];\n";
    os << "}\n";
    return os.str();
}

} // namespace qm::dfg

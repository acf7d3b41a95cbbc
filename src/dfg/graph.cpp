#include "dfg/graph.hpp"

#include <algorithm>
#include <sstream>

#include "support/diagnostics.hpp"

namespace qm::dfg {

DfgNode &
Dfg::add(Actor op)
{
    lists_.emplace_back();
    DfgNode &node = nodes_.emplace_back();
    node.op = op;
    return node;
}

void
Dfg::append(LinkList &list, int node, int slot)
{
    int at = static_cast<int>(links_.size());
    links_.push_back(Link{node, slot, -1});
    if (list.tail >= 0)
        links_[static_cast<size_t>(list.tail)].next = at;
    else
        list.head = at;
    list.tail = at;
    ++list.size;
}

int
Dfg::addInput(std::string input_name)
{
    add(Actor::In).name = std::move(input_name);
    return size() - 1;
}

int
Dfg::addConst(std::int64_t value)
{
    add(Actor::Const).constValue = value;
    return size() - 1;
}

int
Dfg::addNode(Actor op, std::initializer_list<int> args)
{
    panicIf(args.size() > kMaxArity, "operator '", spelling(op), "' has ",
            args.size(), " arguments; at most ", kMaxArity, " fit");
    int id = size();
    for (int arg : args)
        panicIf(arg < 0 || arg >= id,
                "node argument ", arg, " out of range (must precede)");
    DfgNode &node = add(op);
    for (int arg : args) {
        append(lists_[static_cast<size_t>(arg)].consumers, id, node.arity);
        node.arg[node.arity++] = arg;
    }
    return id;
}

int
Dfg::addCodeAddr(std::string label)
{
    add(Actor::CodeAddr).name = std::move(label);
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
    for (int s : orderSuccs(before))
        if (s == after)
            return;  // duplicate
    append(lists_[static_cast<size_t>(before)].orderSuccs, after, -1);
    append(lists_[static_cast<size_t>(after)].orderPreds, before, -1);
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
Dfg::predecessors(int id) const
{
    std::span<const int> args = node(id).args();
    std::vector<int> preds(args.begin(), args.end());
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
        for (int arg : node(id).args()) {
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
        for (int arg : node(id).args())
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
    for (int id = 0; id < size(); ++id) {
        std::span<const int> args = node(id).args();
        for (std::size_t slot = 0; slot < args.size(); ++slot)
            os << "  n" << args[slot] << " -> n" << id << " [label=\""
               << slot << "\"];\n";
    }
    // Control-token arcs render dashed (thesis Fig 4.18 style).
    for (int id = 0; id < size(); ++id)
        for (int succ : orderSuccs(id))
            os << "  n" << id << " -> n" << succ << " [style=dashed];\n";
    os << "}\n";
    return os.str();
}

} // namespace qm::dfg

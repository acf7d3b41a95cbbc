/**
 * @file
 * Acyclic data-flow graphs (thesis sections 3.6 and 4.5).
 *
 * Vertices are either inputs (no predecessors; their values are injected
 * when the graph is evaluated) or operators with an ordered list of
 * predecessor arcs. The graph induces the partial order pi_G: v precedes
 * w iff a directed path leads from v to w; any linearization respecting
 * pi_G is a valid indexed-queue-machine instruction sequence.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qm::dfg {

/**
 * What a vertex computes: a graph input, a literal, a code address, an
 * arithmetic operator, or one of the compiler's memory, channel and
 * splicing actors (thesis sections 4.2-4.6). kActors describes each.
 */
enum class Actor : std::uint8_t
{
    In, Const, CodeAddr,
    Add, Sub, Mul, Div, Rem,
    And, Or, Xor, Lshift, Rshift,
    Eq, Ne, Lt, Le, Gt, Ge,
    Neg, Not,
    Fetch, Store, Send, Recv,
    Rfork, Ifork, GetIn, GetOut,
    Alloc, ChanAlloc, Now, Wait, Exit,
};

/** One row of the actor table. */
struct ActorInfo
{
    Actor actor;
    /** The name DOT labels and diagnostics print. */
    std::string_view spelling;
    /**
     * Thesis Fig 4.20 priority class; smaller is emitted earlier:
     * 1 rfork/ifork, 2 send, 3 store, 4 everything else, 5 fetch and
     * inputs, 6 recv, 7 wait. Constants are class 4: they become
     * immediate operands, not memory fetches, so they are not deferred.
     */
    int priority;
    /** Must be emitted even when nothing consumes its value. */
    bool sideEffect;
    /** Folds into an immediate source operand; no queue position. */
    bool immediate;
};

/** The actor table, in Actor order. */
inline constexpr std::array<ActorInfo, 34> kActors = {{
    {Actor::In, "in", 5, false, false},
    {Actor::Const, "const", 4, false, true},
    {Actor::CodeAddr, "claddr", 4, false, true},
    {Actor::Add, "+", 4, false, false},
    {Actor::Sub, "-", 4, false, false},
    {Actor::Mul, "*", 4, false, false},
    {Actor::Div, "/", 4, false, false},
    {Actor::Rem, "\\", 4, false, false},
    {Actor::And, "and", 4, false, false},
    {Actor::Or, "or", 4, false, false},
    {Actor::Xor, "xor", 4, false, false},
    {Actor::Lshift, "lshift", 4, false, false},
    {Actor::Rshift, "rshift", 4, false, false},
    {Actor::Eq, "eq", 4, false, false},
    {Actor::Ne, "ne", 4, false, false},
    {Actor::Lt, "lt", 4, false, false},
    {Actor::Le, "le", 4, false, false},
    {Actor::Gt, "gt", 4, false, false},
    {Actor::Ge, "ge", 4, false, false},
    {Actor::Neg, "neg", 4, false, false},
    {Actor::Not, "not", 4, false, false},
    {Actor::Fetch, "fetch", 5, true, false},
    {Actor::Store, "store", 3, true, false},
    {Actor::Send, "send", 2, true, false},
    {Actor::Recv, "recv", 6, true, false},
    {Actor::Rfork, "rfork", 1, true, false},
    {Actor::Ifork, "ifork", 1, true, false},
    {Actor::GetIn, "getin", 4, false, false},
    {Actor::GetOut, "getout", 4, false, false},
    {Actor::Alloc, "alloc", 4, true, false},
    {Actor::ChanAlloc, "challoc", 4, true, false},
    {Actor::Now, "now", 4, true, false},
    {Actor::Wait, "wait", 7, true, false},
    {Actor::Exit, "exit", 4, true, false},
}};

static_assert(
    [] {
        for (std::size_t i = 0; i < kActors.size(); ++i)
            if (static_cast<std::size_t>(kActors[i].actor) != i)
                return false;
        return true;
    }(),
    "kActors lists the actors in enum order");

constexpr const ActorInfo &
actorInfo(Actor actor)
{
    return kActors[static_cast<std::size_t>(actor)];
}

constexpr std::string_view
spelling(Actor actor)
{
    return actorInfo(actor).spelling;
}

/** One vertex of an acyclic data-flow graph. */
struct DfgNode
{
    Actor op = Actor::Const;
    /** Literal value for Const nodes. */
    std::int64_t constValue = 0;
    /** Input name for In nodes; code label for CodeAddr nodes. */
    std::string name;
    /** Ordered predecessor node ids (input arc l feeds slot l). */
    std::vector<int> args;
};

/** A consumer reference: which node consumes a value, at which slot. */
struct Consumer
{
    int node = -1;
    int slot = -1;

    bool operator==(const Consumer &) const = default;
};

/** Arena-based acyclic data-flow graph. */
class Dfg
{
  public:
    /** Add an input vertex; returns its handle. */
    int addInput(std::string input_name);

    /** Add a constant vertex. */
    int addConst(std::int64_t value);

    /** Add an operator vertex over already-added arguments. */
    int addNode(Actor op, std::vector<int> args);

    /** Add a code-address constant (resolved to a label at assembly). */
    int addCodeAddr(std::string label);

    /**
     * Add a control-token arc (thesis section 4.6): @p before must be
     * scheduled before @p after, but no value flows and no queue
     * position is consumed - control arcs are an artifact of the graph
     * representation and vanish in the instruction sequence.
     */
    void addOrderEdge(int before, int after);

    const std::vector<int> &orderSuccs(int id) const
    {
        return orderSuccs_[static_cast<size_t>(id)];
    }
    const std::vector<int> &orderPreds(int id) const
    {
        return orderPreds_[static_cast<size_t>(id)];
    }

    int size() const { return static_cast<int>(nodes_.size()); }
    const DfgNode &node(int id) const
    {
        return nodes_[static_cast<size_t>(id)];
    }
    int arity(int id) const
    {
        return static_cast<int>(node(id).args.size());
    }
    bool isInput(int id) const { return node(id).op == Actor::In; }

    /** All input vertices, in insertion order. */
    std::vector<int> inputs() const;

    /** All sink vertices (no consumers), in insertion order. */
    std::vector<int> sinks() const;

    /** Consumers of node @p id, ordered by (consumer id, slot). */
    const std::vector<Consumer> &consumers(int id) const
    {
        return consumers_[static_cast<size_t>(id)];
    }

    /** Immediate predecessor set P(v) (deduplicated args). */
    std::vector<int> predecessors(int id) const;

    /** Immediate successor set S(v) (deduplicated consumers). */
    std::vector<int> successors(int id) const;

    /** True iff a directed path from @p from reaches @p to (pi_G). */
    bool reaches(int from, int to) const;

    /** True iff @p order is a permutation of nodes respecting pi_G. */
    bool isTopological(const std::vector<int> &order) const;

    /** Render as a Graphviz DOT digraph (the thesis draw/drawpic role). */
    std::string toDot(const std::string &title = "dfg") const;

  private:
    std::vector<DfgNode> nodes_;
    std::vector<std::vector<Consumer>> consumers_;
    std::vector<std::vector<int>> orderSuccs_;
    std::vector<std::vector<int>> orderPreds_;
};

} // namespace qm::dfg

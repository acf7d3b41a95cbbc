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
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
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

/** The most argument arcs a vertex has (binary operators, send, store). */
inline constexpr int kMaxArity = 2;

/** One vertex of an acyclic data-flow graph. */
struct DfgNode
{
    Actor op = Actor::Const;
    /** How many of @c arg are argument arcs. */
    std::uint8_t arity = 0;
    /** Argument arcs, inline: arg[l] is the node feeding slot l. */
    std::array<int, kMaxArity> arg{-1, -1};
    /** Literal value for Const nodes. */
    std::int64_t constValue = 0;
    /** Input name for In nodes; code label for CodeAddr nodes. */
    std::string name;

    /** Ordered predecessor node ids (input arc l feeds slot l). */
    std::span<const int> args() const { return {arg.data(), arity}; }
};

/** A consumer reference: which node consumes a value, at which slot. */
struct Consumer
{
    int node = -1;
    int slot = -1;

    bool operator==(const Consumer &) const = default;
};

/**
 * Arena-based acyclic data-flow graph. Argument arcs live inline in
 * their node; consumer arcs and control-token arcs live in one flat
 * per-graph store of singly linked lists, one list per node and kind,
 * each kept in insertion order.
 */
class Dfg
{
  private:
    /** One arc in a node's list: the node at its far end, its slot. */
    struct Link
    {
        int node;
        int slot;  ///< The consumer's argument slot; -1 on control arcs.
        int next;  ///< The next link of the same list, or -1.
    };

    /** First and last link of one list, and its length. */
    struct LinkList
    {
        int head = -1;
        int tail = -1;
        int size = 0;
    };

  public:
    /**
     * One node's list of arcs in insertion order: Consumer for value
     * arcs, the far node's id for control arcs. Valid until the graph
     * next changes.
     */
    template <typename T>
    class Arcs
    {
      public:
        class iterator
        {
          public:
            using iterator_category = std::forward_iterator_tag;
            using value_type = T;
            using difference_type = std::ptrdiff_t;
            using pointer = void;
            using reference = T;

            iterator() = default;
            iterator(const Link *links, int at) : links_(links), at_(at) {}

            T
            operator*() const
            {
                const Link &link = links_[at_];
                if constexpr (std::is_same_v<T, Consumer>)
                    return Consumer{link.node, link.slot};
                else
                    return link.node;
            }
            iterator &
            operator++()
            {
                at_ = links_[at_].next;
                return *this;
            }
            iterator
            operator++(int)
            {
                iterator old = *this;
                ++*this;
                return old;
            }
            bool operator==(const iterator &other) const
            {
                return at_ == other.at_;
            }

          private:
            const Link *links_ = nullptr;
            int at_ = -1;
        };

        Arcs(const Link *links, LinkList list) : links_(links), list_(list)
        {
        }
        iterator begin() const { return {links_, list_.head}; }
        iterator end() const { return {links_, -1}; }
        bool empty() const { return list_.size == 0; }
        std::size_t size() const { return static_cast<size_t>(list_.size); }

      private:
        const Link *links_;
        LinkList list_;
    };

    /** Add an input vertex; returns its handle. */
    int addInput(std::string input_name);

    /** Add a constant vertex. */
    int addConst(std::int64_t value);

    /**
     * Add an operator vertex over already-added arguments, at most
     * kMaxArity of them.
     */
    int addNode(Actor op, std::initializer_list<int> args = {});

    /** Add a code-address constant (resolved to a label at assembly). */
    int addCodeAddr(std::string label);

    /**
     * Add a control-token arc (thesis section 4.6): @p before must be
     * scheduled before @p after, but no value flows and no queue
     * position is consumed - control arcs are an artifact of the graph
     * representation and vanish in the instruction sequence.
     */
    void addOrderEdge(int before, int after);

    /** Control-token successors of @p id, in insertion order. */
    Arcs<int> orderSuccs(int id) const
    {
        return {links_.data(), lists(id).orderSuccs};
    }
    /** Control-token predecessors of @p id, in insertion order. */
    Arcs<int> orderPreds(int id) const
    {
        return {links_.data(), lists(id).orderPreds};
    }

    int size() const { return static_cast<int>(nodes_.size()); }
    const DfgNode &node(int id) const
    {
        return nodes_[static_cast<size_t>(id)];
    }
    int arity(int id) const { return node(id).arity; }
    bool isInput(int id) const { return node(id).op == Actor::In; }

    /** All input vertices, in insertion order. */
    std::vector<int> inputs() const;

    /** Consumers of node @p id, ordered by (consumer id, slot). */
    Arcs<Consumer> consumers(int id) const
    {
        return {links_.data(), lists(id).consumers};
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
    /** A node's three lists. */
    struct NodeLists
    {
        LinkList consumers;
        LinkList orderSuccs;
        LinkList orderPreds;
    };

    const NodeLists &lists(int id) const
    {
        return lists_[static_cast<size_t>(id)];
    }
    /** Append a node of @p op with no arcs; returns it. */
    DfgNode &add(Actor op);
    void append(LinkList &list, int node, int slot);

    std::vector<DfgNode> nodes_;
    std::vector<NodeLists> lists_;  ///< Parallel to nodes_.
    std::vector<Link> links_;       ///< Every list's links.
};

} // namespace qm::dfg

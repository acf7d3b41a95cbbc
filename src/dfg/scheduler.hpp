/**
 * @file
 * Heuristic instruction scheduler (thesis section 4.7, Fig 4.20).
 *
 * Linearizes an acyclic data-flow graph with a ready list: a node enters
 * the list once all its input arcs are marked; the highest-priority ready
 * node is emitted next. The thesis priority order maximizes the number of
 * parallel contexts and shrinks the operand queue:
 *
 *   1 rfork/ifork, 2 send, 3 store/storb, 4 everything else,
 *   5 fetch/fchb, 6 receive, 7 wait      (1 = emitted first)
 */
#pragma once

#include <functional>
#include <vector>

#include "dfg/graph.hpp"

namespace qm::dfg {

/** Priority class of @p actor per the thesis list; smaller runs earlier. */
constexpr int
actorPriority(Actor actor)
{
    return actorInfo(actor).priority;
}

/**
 * Priority function type: maps a node id to its class. Exposed so the
 * Table 6.6 ablation can swap in degenerate heuristics.
 */
using PriorityFn = std::function<int(const Dfg &, int)>;

/** The thesis heuristic (actorPriority applied to the node's op). */
int thesisPriority(const Dfg &graph, int node);

/** FIFO priority: ignore the op, order purely by readiness. */
int fifoPriority(const Dfg &graph, int node);

/**
 * Produce a topological order of @p graph by the ready-list algorithm of
 * Fig 4.20 under @p priority. Ties break on readiness order (FIFO), so
 * the result is deterministic.
 */
std::vector<int> schedule(const Dfg &graph,
                          const PriorityFn &priority = thesisPriority);

} // namespace qm::dfg

/**
 * @file
 * Input-sequencing heuristic for intercontext communication
 * (thesis section 4.5, Figures 4.13-4.16, Tables 4.4/4.5).
 *
 * When a context receives its inputs one at a time over a channel, the
 * preferred arrival order maximizes the computation possible before the
 * context must wait for the next input. The heuristic weights each input
 * v by W(v) = sum of C(u) over all nodes u whose required input set
 * I*(u) contains v, and sends heavier inputs first.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dfg/graph.hpp"

namespace qm::dfg {

/**
 * Depth-first list of the nodes of a DAG (Fig 4.13): every successor of
 * a node precedes the node in the list; every predecessor follows it.
 */
std::vector<int> depthFirstList(const Dfg &graph);

/** Per-node analysis results of the Fig 4.15 pass. */
struct CostAnalysis
{
    /** P*(v): all predecessors of v including v itself. */
    std::vector<std::vector<int>> predecessorSet;
    /** I*(v): the graph inputs required to compute v. */
    std::vector<std::vector<int>> requiredInputs;
    /** C(v) = |P*(v)|: cost of computing v. */
    std::vector<int> cost;
};

/** Compute P*, I*, and C for every node (Fig 4.15). */
CostAnalysis analyzeCosts(const Dfg &graph);

/** W(v) for every input vertex v, keyed by node id (Fig 4.16). */
std::vector<long> inputWeights(const Dfg &graph, const CostAnalysis &costs);

/**
 * W(v) of any vertices, without P* and I* per node: the sum of C(u)
 * over every node u whose P*(u) contains v. On an input vertex this is
 * inputWeights' W, as an input is in I*(u) exactly when it is in
 * P*(u); the graph builder also weighs a context's input receives,
 * which are not input vertices. P* is kept as bit rows, a fixed number
 * of words a node however large the graph, in buffers kept between
 * calls, so a weigher allocates only when a graph is larger than any
 * before it. analyzeCosts is the reference.
 */
class PredecessorWeights
{
  public:
    /** W(v) for each v of @p nodes, distinct vertices, in their order. */
    const std::vector<long> &weigh(const Dfg &graph,
                                   std::span<const int> nodes);

  private:
    /** Words of a P* row; C(u) is counted kBlockBits ids at a time. */
    static constexpr std::size_t kBlockWords = 16;
    static constexpr std::size_t kBlockBits = 64 * kBlockWords;

    std::vector<std::uint64_t> bits_;   ///< One row of bits per node.
    std::vector<long> cost_;            ///< C(u) = |P*(u)|.
    std::vector<std::size_t> written_;  ///< Node -> block its row holds.
    std::vector<int> slot_;             ///< Node -> index in nodes, or -1.
    std::vector<long> weights_;
};

/**
 * Inputs of @p graph ordered by decreasing W (satisfying pi_I). Ties keep
 * insertion order, making the result deterministic.
 */
std::vector<int> orderInputs(const Dfg &graph);

} // namespace qm::dfg

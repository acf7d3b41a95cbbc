#include "dfg/sequencing.hpp"

#include <algorithm>
#include <bit>
#include <functional>

#include "support/diagnostics.hpp"

namespace qm::dfg {

std::vector<int>
depthFirstList(const Dfg &graph)
{
    std::vector<bool> marked(static_cast<size_t>(graph.size()), false);
    std::vector<int> list;
    list.reserve(static_cast<size_t>(graph.size()));

    std::function<void(int)> search = [&](int node) {
        marked[static_cast<size_t>(node)] = true;
        for (int succ : graph.successors(node))
            if (!marked[static_cast<size_t>(succ)])
                search(succ);
        list.push_back(node);
    };

    for (int node = 0; node < graph.size(); ++node)
        if (!marked[static_cast<size_t>(node)])
            search(node);
    return list;
}

CostAnalysis
analyzeCosts(const Dfg &graph)
{
    CostAnalysis result;
    result.predecessorSet.resize(static_cast<size_t>(graph.size()));
    result.requiredInputs.resize(static_cast<size_t>(graph.size()));
    result.cost.resize(static_cast<size_t>(graph.size()), 0);

    auto merge_sorted = [](std::vector<int> &dst,
                           const std::vector<int> &src) {
        std::vector<int> merged;
        merged.reserve(dst.size() + src.size());
        std::set_union(dst.begin(), dst.end(), src.begin(), src.end(),
                       std::back_inserter(merged));
        dst = std::move(merged);
    };

    // Fig 4.15: walk the depth-first list backwards so predecessors are
    // processed before their successors.
    std::vector<int> list = depthFirstList(graph);
    for (auto it = list.rbegin(); it != list.rend(); ++it) {
        int v = *it;
        auto &pstar = result.predecessorSet[static_cast<size_t>(v)];
        auto &istar = result.requiredInputs[static_cast<size_t>(v)];
        pstar = {v};
        if (graph.isInput(v))
            istar = {v};
        for (int pred : graph.predecessors(v)) {
            merge_sorted(pstar,
                         result.predecessorSet[static_cast<size_t>(pred)]);
            merge_sorted(istar,
                         result.requiredInputs[static_cast<size_t>(pred)]);
        }
        result.cost[static_cast<size_t>(v)] =
            static_cast<int>(pstar.size());
    }
    return result;
}

std::vector<long>
inputWeights(const Dfg &graph, const CostAnalysis &costs)
{
    std::vector<long> weights(static_cast<size_t>(graph.size()), 0);
    for (int input : graph.inputs()) {
        long w = 0;
        for (int u = 0; u < graph.size(); ++u) {
            const auto &istar =
                costs.requiredInputs[static_cast<size_t>(u)];
            if (std::binary_search(istar.begin(), istar.end(), input))
                w += costs.cost[static_cast<size_t>(u)];
        }
        weights[static_cast<size_t>(input)] = w;
    }
    return weights;
}

const std::vector<long> &
PredecessorWeights::weigh(const Dfg &graph, std::span<const int> nodes)
{
    const std::size_t k = nodes.size();
    weights_.assign(k, 0);
    if (k == 0)
        return weights_;
    const auto n = static_cast<std::size_t>(graph.size());
    auto args = [&](std::size_t u) {
        return graph.node(static_cast<int>(u)).args();
    };

    // C(u) = |P*(u)|, counted over ids b0 .. b0 + kBlockBits - 1 at a
    // time, so a row is kBlockWords words. Node ids are topologically
    // ordered, so an argument's row is complete before its consumer ORs
    // it in, and P*(u) holds no id above u. A block therefore writes
    // only the rows of the nodes it reaches, from b0 on, and of row u
    // only the words up to bit u - b0; every other row is zero in it.
    auto used = [](std::size_t u, std::size_t b0) {
        return std::min(kBlockWords, (u - b0) / 64 + 1);
    };
    bits_.resize(n * kBlockWords);
    cost_.assign(n, 0);
    written_.assign(n, n);
    for (std::size_t b0 = 0; b0 < n; b0 += kBlockBits) {
        for (std::size_t u = b0; u < n; ++u) {
            const bool own = u - b0 < kBlockBits;
            bool reached = own;
            for (int arg : args(u))
                reached |= written_[static_cast<size_t>(arg)] == b0;
            if (!reached)
                continue;
            std::uint64_t *row = &bits_[u * kBlockWords];
            const std::size_t words = used(u, b0);
            std::fill(row, row + words, 0);
            if (own)
                row[(u - b0) / 64] |= std::uint64_t{1} << ((u - b0) % 64);
            for (int arg : args(u)) {
                const auto a = static_cast<std::size_t>(arg);
                if (written_[a] != b0)
                    continue;
                const std::uint64_t *from = &bits_[a * kBlockWords];
                for (std::size_t w = 0, m = used(a, b0); w < m; ++w)
                    row[w] |= from[w];
            }
            for (std::size_t w = 0; w < words; ++w)
                cost_[u] += std::popcount(row[w]);
            written_[u] = b0;
        }
    }

    // W(v) sums C(u) over the u whose P*(u) holds v: row u now has one
    // bit per weighed vertex, ORed in along the arguments the same way.
    const std::size_t words = (k + 63) / 64;
    slot_.assign(n, -1);
    for (std::size_t i = 0; i < k; ++i) {
        int &slot = slot_[static_cast<size_t>(nodes[i])];
        panicIf(slot >= 0, "vertex ", nodes[i], " weighed twice");
        slot = static_cast<int>(i);
    }
    bits_.assign(n * words, 0);
    for (std::size_t u = 0; u < n; ++u) {
        std::uint64_t *row = &bits_[u * words];
        if (int slot = slot_[u]; slot >= 0)
            row[slot / 64] |= std::uint64_t{1} << (slot % 64);
        for (int arg : args(u)) {
            const std::uint64_t *from =
                &bits_[static_cast<size_t>(arg) * words];
            for (std::size_t w = 0; w < words; ++w)
                row[w] |= from[w];
        }
        for (std::size_t w = 0; w < words; ++w)
            for (std::uint64_t word = row[w]; word != 0; word &= word - 1) {
                const auto bit = static_cast<size_t>(std::countr_zero(word));
                weights_[w * 64 + bit] += cost_[u];
            }
    }
    return weights_;
}

std::vector<int>
orderInputs(const Dfg &graph)
{
    CostAnalysis costs = analyzeCosts(graph);
    std::vector<long> weights = inputWeights(graph, costs);
    std::vector<int> inputs = graph.inputs();
    std::stable_sort(inputs.begin(), inputs.end(), [&](int a, int b) {
        return weights[static_cast<size_t>(a)] >
               weights[static_cast<size_t>(b)];
    });
    return inputs;
}

} // namespace qm::dfg

#include "dfg/iqm.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "support/diagnostics.hpp"

namespace qm::dfg {

int
IqmProgram::queueDepth() const
{
    int depth = 0;
    for (const IqmInstr &instr : instrs)
        for (int index : instr.resultIndices)
            depth = std::max(depth, index + 1);
    return depth;
}

IqmProgram
buildProgram(const Dfg &graph, const std::vector<int> &order)
{
    panicIf(!graph.isTopological(order),
            "instruction order violates the graph partial order");

    // Step 2: o_i = sum of arities of the preceding instructions; this is
    // the queue-front index when instruction i executes.
    std::vector<int> front(order.size(), 0);
    std::vector<int> position(static_cast<size_t>(graph.size()), -1);
    int running = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        front[i] = running;
        running += graph.arity(order[i]);
        position[static_cast<size_t>(order[i])] = static_cast<int>(i);
    }

    // Step 3: for each arc (v_i, v_j, l), add index o_j + l to P_i.
    IqmProgram program;
    program.instrs.resize(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        program.instrs[i].nodeId = order[i];
        program.instrs[i].frontIndex = front[i];
    }
    for (std::size_t j = 0; j < order.size(); ++j) {
        int node = order[j];
        const auto &args = graph.node(node).args;
        for (std::size_t slot = 0; slot < args.size(); ++slot) {
            int producer_pos = position[static_cast<size_t>(args[slot])];
            program.instrs[static_cast<size_t>(producer_pos)]
                .resultIndices.push_back(front[j] +
                                         static_cast<int>(slot));
        }
    }

    // Derive hardware-style offsets: index - (front + arity).
    for (std::size_t i = 0; i < order.size(); ++i) {
        IqmInstr &instr = program.instrs[i];
        std::sort(instr.resultIndices.begin(), instr.resultIndices.end());
        int base = instr.frontIndex + graph.arity(instr.nodeId);
        for (int index : instr.resultIndices) {
            panicIf(index < base,
                    "result index ", index,
                    " points before the queue front ", base);
            instr.resultOffsets.push_back(index - base);
        }
    }
    return program;
}

std::int64_t
arithActor(const DfgNode &node, const std::vector<std::int64_t> &operands,
           const InputValues &inputs)
{
    switch (node.op) {
      case Actor::In: {
        auto it = inputs.find(node.name);
        fatalIf(it == inputs.end(), "unbound graph input '", node.name, "'");
        return it->second;
      }
      case Actor::Const:
        return node.constValue;
      case Actor::Neg:
        return -operands.at(0);
      case Actor::Add:
        return operands.at(0) + operands.at(1);
      case Actor::Sub:
        return operands.at(0) - operands.at(1);
      case Actor::Mul:
        return operands.at(0) * operands.at(1);
      case Actor::Div:
        fatalIf(operands.at(1) == 0, "division by zero");
        return operands.at(0) / operands.at(1);
      case Actor::Rem:
        fatalIf(operands.at(1) == 0, "modulo by zero");
        return operands.at(0) % operands.at(1);
      default:
        fatal("arithActor: unknown operator '", spelling(node.op), "'");
    }
}

NodeValues
evalProgram(const Dfg &graph, const IqmProgram &program,
            const InputValues &inputs, const ActorFn &actor)
{
    // Conceptually infinite queue: slots hold optional values so reads of
    // never-written positions are detected (the "hole in the queue" error
    // of section 3.5).
    std::vector<std::optional<std::int64_t>> queue(
        static_cast<size_t>(program.queueDepth()) + 8);
    NodeValues values(static_cast<size_t>(graph.size()), 0);
    int front = 0;

    for (const IqmInstr &instr : program.instrs) {
        const DfgNode &node = graph.node(instr.nodeId);
        panicIf(front != instr.frontIndex,
                "queue front drifted: expected ", instr.frontIndex,
                " got ", front);
        std::vector<std::int64_t> operands;
        operands.reserve(node.args.size());
        for (std::size_t slot = 0; slot < node.args.size(); ++slot) {
            auto &cell = queue[static_cast<size_t>(front)];
            panicIf(!cell.has_value(),
                    "hole in the operand queue at index ", front,
                    " (operator '", spelling(node.op), "')");
            operands.push_back(*cell);
            cell.reset();
            ++front;
        }
        std::int64_t result =
            actor ? actor(node, operands) : arithActor(node, operands,
                                                       inputs);
        values[static_cast<size_t>(instr.nodeId)] = result;
        for (int index : instr.resultIndices) {
            if (static_cast<size_t>(index) >= queue.size())
                queue.resize(static_cast<size_t>(index) + 1);
            queue[static_cast<size_t>(index)] = result;
        }
    }
    return values;
}

std::vector<std::string>
renderProgram(const Dfg &graph, const IqmProgram &program)
{
    std::vector<std::string> lines;
    lines.reserve(program.instrs.size());
    for (const IqmInstr &instr : program.instrs) {
        const DfgNode &node = graph.node(instr.nodeId);
        std::ostringstream os;
        if (node.op == Actor::In)
            os << "fetch " << node.name;
        else if (node.op == Actor::Const)
            os << "const " << node.constValue;
        else
            os << spelling(node.op);
        if (!instr.resultOffsets.empty()) {
            os << "  ->";
            for (std::size_t i = 0; i < instr.resultOffsets.size(); ++i)
                os << (i ? "," : " ") << "+" << instr.resultOffsets[i];
        }
        lines.push_back(os.str());
    }
    return lines;
}

} // namespace qm::dfg

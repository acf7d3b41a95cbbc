#include "occam/graph_interp.hpp"

#include <deque>

#include "dfg/scheduler.hpp"
#include "mp/system.hpp"
#include "support/diagnostics.hpp"

namespace qm::occam {

/** One running instance of a context graph. */
struct GraphInterpreter::Activation
{
    int graph = -1;                 ///< Index into program contexts.
    std::vector<int> order;         ///< Scheduled firing order.
    std::size_t ip = 0;             ///< Next position in order.
    std::vector<std::int64_t> values;
    std::int64_t inChan = 0;
    std::int64_t outChan = 0;
    bool done = false;
    bool parked = false;            ///< Waiting on an empty channel.
};

GraphInterpreter::GraphInterpreter(const ContextProgram &program,
                                   std::size_t memory_words)
    : program_(program), memory(memory_words, 0),
      heapNext(mp::kHeapBase)
{
    for (std::size_t i = 0; i < program_.contexts.size(); ++i)
        graphIndex[program_.contexts[i].label] = static_cast<int>(i);
}

GraphInterpreter::~GraphInterpreter() = default;

std::int64_t
GraphInterpreter::readWord(std::uint32_t byte_addr) const
{
    fatalIf((byte_addr & 3) != 0, "unaligned abstract read");
    std::size_t index = byte_addr / 4;
    fatalIf(index >= memory.size(), "abstract read out of bounds");
    return memory[index];
}

std::int64_t
GraphInterpreter::nodeValue(const Activation &act, int node) const
{
    return act.values[static_cast<size_t>(node)];
}

namespace {

/** Arithmetic wraps to a machine word, exactly like the PE's ALU. */
std::int64_t
applyArith(const std::string &op, std::int64_t a, std::int64_t b)
{
    using isa::wrapWord;
    if (op == "+") return wrapWord(a + b);
    if (op == "-") return wrapWord(a - b);
    if (op == "*") return wrapWord(a * b);
    if (op == "/") {
        fatalIf(b == 0, "abstract division by zero");
        return wrapWord(a / b);
    }
    if (op == "\\") {
        fatalIf(b == 0, "abstract modulo by zero");
        return wrapWord(a % b);
    }
    if (op == "and") return a & b;
    if (op == "or") return a | b;
    if (op == "xor") return a ^ b;
    if (op == "lshift") return wrapWord(a << (b & 31));
    if (op == "rshift") return a >> (b & 31);
    // Comparisons use the machine Boolean encoding (all ones / zero).
    if (op == "eq") return a == b ? -1 : 0;
    if (op == "ne") return a != b ? -1 : 0;
    if (op == "lt") return a < b ? -1 : 0;
    if (op == "le") return a <= b ? -1 : 0;
    if (op == "gt") return a > b ? -1 : 0;
    if (op == "ge") return a >= b ? -1 : 0;
    fatal("abstract interpreter: unknown operator '", op, "'");
}

} // namespace

bool
GraphInterpreter::stepActivation(std::size_t index)
{
    const ContextGraph &cg = program_.contexts[static_cast<size_t>(
        activations[index].graph)];
    const dfg::Dfg &graph = cg.graph;

    while (activations[index].ip < activations[index].order.size()) {
        Activation &act = activations[index];
        int node = act.order[act.ip];
        const dfg::DfgNode &n = graph.node(node);
        auto arg = [&](int slot) {
            return nodeValue(activations[index],
                             n.args[static_cast<size_t>(slot)]);
        };
        std::int64_t value = 0;

        if (n.op == "const") {
            value = n.constValue;
        } else if (n.op == "claddr") {
            auto it = graphIndex.find(n.name);
            panicIf(it == graphIndex.end(), "unknown graph label ",
                    n.name);
            value = it->second;
        } else if (n.op == "getin") {
            value = act.inChan;
        } else if (n.op == "getout") {
            value = act.outChan;
        } else if (n.op == "recv") {
            std::int64_t chan = arg(0);
            auto &queue = channels[chan];
            if (queue.empty()) {
                act.parked = true;
                waiting[chan].push_back(index);
                return false;  // park; retried when a token arrives
            }
            value = queue.front();
            queue.erase(queue.begin());
            ++result.transfers;
        } else if (n.op == "send") {
            std::int64_t chan = arg(0);
            channels[chan].push_back(arg(1));
            auto it = waiting.find(chan);
            if (it != waiting.end()) {
                for (std::size_t idx : it->second)
                    activations[idx].parked = false;
                waiting.erase(it);
            }
        } else if (n.op == "rfork" || n.op == "ifork") {
            int graph_id = static_cast<int>(arg(0));
            Activation child;
            child.graph = graph_id;
            child.order = dfg::schedule(
                program_.contexts[static_cast<size_t>(graph_id)].graph);
            child.values.resize(
                program_.contexts[static_cast<size_t>(graph_id)]
                    .graph.size(),
                0);
            child.inChan = nextChannel;
            child.outChan =
                n.op == "rfork" ? nextChannel + 1 : act.outChan;
            nextChannel += 2;
            value = child.inChan;
            // push_back may reallocate: 'act' is re-acquired below via
            // activations[index] before any further use.
            activations.push_back(std::move(child));
            ++live;
            ++result.contexts;
        } else if (n.op == "fetch") {
            std::int64_t addr = arg(0);
            fatalIf(addr < 0 || (addr & 3) != 0 ||
                        static_cast<std::size_t>(addr / 4) >=
                            memory.size(),
                    "abstract fetch out of range");
            value = memory[static_cast<size_t>(addr / 4)];
        } else if (n.op == "store") {
            std::int64_t addr = arg(0);
            fatalIf(addr < 0 || (addr & 3) != 0 ||
                        static_cast<std::size_t>(addr / 4) >=
                            memory.size(),
                    "abstract store out of range");
            memory[static_cast<size_t>(addr / 4)] = arg(1);
        } else if (n.op == "alloc") {
            value = heapNext;
            heapNext = (heapNext + static_cast<std::uint32_t>(arg(0)) +
                        3u) &
                       ~3u;
        } else if (n.op == "challoc") {
            value = nextChannel;
            nextChannel += 2;
        } else if (n.op == "now") {
            value = static_cast<std::int64_t>(clock);
        } else if (n.op == "wait") {
            // Abstract time: waits are satisfied immediately.
        } else if (n.op == "exit") {
            activations[index].done = true;
            --live;
            ++activations[index].ip;
            ++result.steps;
            return true;
        } else if (n.op == "neg") {
            value = isa::wrapWord(-arg(0));
        } else if (n.op == "not") {
            value = ~arg(0);
        } else if (n.op == "in") {
            panic("abstract interpreter: unbound 'in' node");
        } else {
            value = applyArith(n.op, arg(0), arg(1));
        }

        activations[index].values[static_cast<size_t>(node)] = value;
        ++activations[index].ip;
        ++result.steps;
        ++clock;
    }
    // Ran off the end without an exit actor: treat as done.
    activations[index].done = true;
    --live;
    return true;
}

InterpResult
GraphInterpreter::run(std::uint64_t max_steps)
{
    auto main_it = graphIndex.find(program_.mainLabel);
    fatalIf(main_it == graphIndex.end(), "no main context graph");

    Activation boot;
    boot.graph = main_it->second;
    boot.order = dfg::schedule(
        program_.contexts[static_cast<size_t>(boot.graph)].graph);
    boot.values.resize(
        program_.contexts[static_cast<size_t>(boot.graph)].graph.size(),
        0);
    boot.inChan = nextChannel;
    boot.outChan = nextChannel + 1;
    nextChannel += 2;
    activations.push_back(std::move(boot));
    live = 1;
    result.contexts = 1;

    while (live > 0) {
        fatalIf(result.steps > max_steps,
                "abstract interpreter exceeded its step budget");
        bool progressed = false;
        for (std::size_t i = 0; i < activations.size(); ++i) {
            Activation &act = activations[i];
            if (act.done || act.parked)
                continue;
            stepActivation(i);
            progressed = true;
        }
        if (!progressed && live > 0)
            fatal("abstract interpreter deadlock: ", live,
                  " live activations all parked");
    }
    result.completed = true;
    return result;
}

} // namespace qm::occam

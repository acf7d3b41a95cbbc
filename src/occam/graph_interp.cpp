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
applyArith(dfg::Actor op, std::int64_t a, std::int64_t b)
{
    using dfg::Actor;
    using isa::wrapWord;
    switch (op) {
      case Actor::Add: return wrapWord(a + b);
      case Actor::Sub: return wrapWord(a - b);
      case Actor::Mul: return wrapWord(a * b);
      case Actor::Div:
        fatalIf(b == 0, "abstract division by zero");
        return wrapWord(a / b);
      case Actor::Rem:
        fatalIf(b == 0, "abstract modulo by zero");
        return wrapWord(a % b);
      case Actor::And: return a & b;
      case Actor::Or: return a | b;
      case Actor::Xor: return a ^ b;
      case Actor::Lshift: return wrapWord(a << (b & 31));
      case Actor::Rshift: return a >> (b & 31);
      // Comparisons use the machine Boolean encoding (all ones / zero).
      case Actor::Eq: return a == b ? -1 : 0;
      case Actor::Ne: return a != b ? -1 : 0;
      case Actor::Lt: return a < b ? -1 : 0;
      case Actor::Le: return a <= b ? -1 : 0;
      case Actor::Gt: return a > b ? -1 : 0;
      case Actor::Ge: return a >= b ? -1 : 0;
      default:
        fatal("abstract interpreter: unknown operator '",
              dfg::spelling(op), "'");
    }
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

        switch (n.op) {
          case dfg::Actor::Const:
            value = n.constValue;
            break;
          case dfg::Actor::CodeAddr: {
            auto it = graphIndex.find(n.name);
            panicIf(it == graphIndex.end(), "unknown graph label ",
                    n.name);
            value = it->second;
            break;
          }
          case dfg::Actor::GetIn:
            value = act.inChan;
            break;
          case dfg::Actor::GetOut:
            value = act.outChan;
            break;
          case dfg::Actor::Recv: {
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
            break;
          }
          case dfg::Actor::Send: {
            std::int64_t chan = arg(0);
            channels[chan].push_back(arg(1));
            auto it = waiting.find(chan);
            if (it != waiting.end()) {
                for (std::size_t idx : it->second)
                    activations[idx].parked = false;
                waiting.erase(it);
            }
            break;
          }
          case dfg::Actor::Rfork:
          case dfg::Actor::Ifork: {
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
            child.outChan = n.op == dfg::Actor::Rfork ? nextChannel + 1
                                                      : act.outChan;
            nextChannel += 2;
            value = child.inChan;
            // push_back may reallocate: 'act' is re-acquired below via
            // activations[index] before any further use.
            activations.push_back(std::move(child));
            ++live;
            ++result.contexts;
            break;
          }
          case dfg::Actor::Fetch: {
            std::int64_t addr = arg(0);
            fatalIf(addr < 0 || (addr & 3) != 0 ||
                        static_cast<std::size_t>(addr / 4) >=
                            memory.size(),
                    "abstract fetch out of range");
            value = memory[static_cast<size_t>(addr / 4)];
            break;
          }
          case dfg::Actor::Store: {
            std::int64_t addr = arg(0);
            fatalIf(addr < 0 || (addr & 3) != 0 ||
                        static_cast<std::size_t>(addr / 4) >=
                            memory.size(),
                    "abstract store out of range");
            memory[static_cast<size_t>(addr / 4)] = arg(1);
            break;
          }
          case dfg::Actor::Alloc:
            value = heapNext;
            heapNext = (heapNext + static_cast<std::uint32_t>(arg(0)) +
                        3u) &
                       ~3u;
            break;
          case dfg::Actor::ChanAlloc:
            value = nextChannel;
            nextChannel += 2;
            break;
          case dfg::Actor::Now:
            value = static_cast<std::int64_t>(clock);
            break;
          case dfg::Actor::Wait:
            // Abstract time: waits are satisfied immediately.
            break;
          case dfg::Actor::Exit:
            activations[index].done = true;
            --live;
            ++activations[index].ip;
            ++result.steps;
            return true;
          case dfg::Actor::Neg:
            value = isa::wrapWord(-arg(0));
            break;
          case dfg::Actor::Not:
            value = ~arg(0);
            break;
          case dfg::Actor::In:
            panic("abstract interpreter: unbound 'in' node");
          default:
            value = applyArith(n.op, arg(0), arg(1));
            break;
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

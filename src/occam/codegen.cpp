#include "occam/codegen.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "isa/runtime.hpp"
#include "support/diagnostics.hpp"

namespace qm::occam {

namespace {

using dfg::Actor;
using dfg::Dfg;

/**
 * Emits context after context into one output string. The per-node
 * scratch (queue fronts, queue arities, result positions, emitted
 * flags) grows to the largest context seen and is reused for the next,
 * so a program's emission allocates little beyond the schedules and
 * the output itself.
 */
class Emitter
{
  public:
    Emitter(const CodegenOptions &options, std::string &out)
        : options_(options), out_(out)
    {
    }

    void
    emit(const ContextGraph &context)
    {
        cg_ = &context;
        order_ = dfg::schedule(context.graph,
                               options_.priorityScheduling
                                   ? dfg::thesisPriority
                                   : dfg::fifoPriority);
        computePositions();
        out_ += context.label;
        out_ += ":  ; ";
        out_ += context.role;
        out_ += '\n';
        for (int node : order_)
            emitNode(node);
        out_ += '\n';
    }

  private:
    const CodegenOptions &options_;
    std::string &out_;
    const ContextGraph *cg_ = nullptr;
    std::vector<int> order_;

    /** Queue front index when each node executes. */
    std::vector<int> front_;
    /** Operands each node takes from the queue (its QP increment). */
    std::vector<int> arity_;
    /** Result queue positions per node (sorted). */
    std::vector<std::vector<int>> positions_;
    /** Whether a node is emitted as an instruction. */
    std::vector<char> emitted_;
    /** The current node's result offsets. */
    std::vector<int> offsets_;

    bool
    isImmediate(int node) const
    {
        return dfg::actorInfo(cg_->graph.node(node).op).immediate;
    }

    int
    queueRank(int node, int slot) const
    {
        int rank = 0;
        const auto &args = cg_->graph.node(node).args;
        for (int i = 0; i < slot; ++i)
            if (!isImmediate(args[static_cast<size_t>(i)]))
                ++rank;
        return rank;
    }

    void
    computePositions()
    {
        const Dfg &graph = cg_->graph;
        const auto size = static_cast<size_t>(graph.size());
        front_.assign(size, 0);
        arity_.assign(size, 0);
        emitted_.assign(size, 0);
        if (positions_.size() < size)
            positions_.resize(size);
        for (size_t node = 0; node < size; ++node)
            positions_[node].clear();

        // Decide which nodes become instructions.
        for (int node = 0; node < graph.size(); ++node) {
            const dfg::DfgNode &n = graph.node(node);
            const dfg::ActorInfo &info = dfg::actorInfo(n.op);
            if (info.immediate)
                continue;
            int arity = 0;
            for (int arg : n.args)
                if (!isImmediate(arg))
                    ++arity;
            arity_[static_cast<size_t>(node)] = arity;
            if (!info.sideEffect && graph.consumers(node).empty() &&
                arity == 0)
                continue;  // dead pure value with no queue effect
            emitted_[static_cast<size_t>(node)] = 1;
        }

        // Pass 1: queue-front index per instruction in schedule order.
        int running = 0;
        for (int node : order_) {
            front_[static_cast<size_t>(node)] = running;
            if (emitted_[static_cast<size_t>(node)])
                running += arity_[static_cast<size_t>(node)];
        }

        // Pass 2: producers' result positions from consumers' operands.
        for (int node = 0; node < graph.size(); ++node) {
            if (!emitted_[static_cast<size_t>(node)])
                continue;
            const auto &args = graph.node(node).args;
            for (std::size_t slot = 0; slot < args.size(); ++slot) {
                int producer = args[slot];
                if (isImmediate(producer))
                    continue;
                panicIf(!emitted_[static_cast<size_t>(producer)],
                        "consumed node was not emitted (op ",
                        dfg::spelling(graph.node(producer).op), ")");
                positions_[static_cast<size_t>(producer)].push_back(
                    front_[static_cast<size_t>(node)] +
                    queueRank(node, static_cast<int>(slot)));
            }
        }
        for (size_t node = 0; node < size; ++node)
            std::sort(positions_[node].begin(), positions_[node].end());
    }

    void
    appendInt(std::int64_t value)
    {
        char buf[24];
        auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
        out_.append(buf, end);
    }

    /** Source operand text for argument @p slot of @p node. */
    void
    appendSrc(int node, int slot)
    {
        int arg = cg_->graph.node(node).args[static_cast<size_t>(slot)];
        const dfg::DfgNode &a = cg_->graph.node(arg);
        if (a.op == Actor::Const) {
            out_ += '#';
            appendInt(a.constValue);
        } else if (a.op == Actor::CodeAddr) {
            out_ += '@';
            out_ += a.name;
        } else {
            out_ += 'r';
            appendInt(queueRank(node, slot));
        }
    }

    /** "  mnemonic[+qp]": the QP increment rides the mnemonic suffix. */
    void
    beginLine(std::string_view mnemonic, int qp)
    {
        out_ += "  ";
        out_ += mnemonic;
        if (qp > 0) {
            out_ += '+';
            appendInt(qp);
        }
    }

    /** Result offsets (relative to the post-consume front) of @p node. */
    void
    computeOffsets(int node)
    {
        int base = front_[static_cast<size_t>(node)] +
                   arity_[static_cast<size_t>(node)];
        offsets_.clear();
        for (int pos : positions_[static_cast<size_t>(node)]) {
            int offset = pos - base;
            if (offset < 0)
                fatal("context '", cg_->label,
                      "': result written behind the queue front");
            if (offset >= options_.pageWords || offset > 255)
                fatal("context '", cg_->label, "' needs queue offset ",
                      offset, "; the context is too large for a ",
                      options_.pageWords, "-word page");
            offsets_.push_back(offset);
        }
    }

    /**
     * End the primary instruction line with its destinations, then
     * emit the dup chain that places every further result copy. The
     * offsets are ascending: the first two below 16 ride the dst
     * fields, the rest go to dup1/dup2 under the continue flag.
     */
    void
    endWithDsts(int node)
    {
        computeOffsets(node);
        std::size_t dsts = 0;
        while (dsts < offsets_.size() && dsts < 2 && offsets_[dsts] < 16)
            ++dsts;
        if (dsts > 0) {
            out_ += " :r";
            appendInt(offsets_[0]);
            if (dsts > 1) {
                out_ += ",r";
                appendInt(offsets_[1]);
            }
        } else if (!offsets_.empty()) {
            out_ += " :dummy";
        }
        if (dsts < offsets_.size())
            out_ += " >";
        out_ += '\n';
        for (std::size_t i = dsts; i < offsets_.size(); i += 2) {
            if (i + 1 < offsets_.size()) {
                out_ += "  dup2 :r";
                appendInt(offsets_[i]);
                out_ += ",r";
                appendInt(offsets_[i + 1]);
            } else {
                out_ += "  dup1 :r";
                appendInt(offsets_[i]);
            }
            if (i + 2 < offsets_.size())
                out_ += " >";
            out_ += '\n';
        }
    }

    /** A two-operand ALU instruction. */
    void
    binary(std::string_view mnemonic, int node, int qp)
    {
        beginLine(mnemonic, qp);
        out_ += ' ';
        appendSrc(node, 0);
        out_ += ',';
        appendSrc(node, 1);
        endWithDsts(node);
    }

    /** A one-operand instruction with a result. */
    void
    unary(std::string_view mnemonic, int node, int qp)
    {
        beginLine(mnemonic, qp);
        out_ += ' ';
        appendSrc(node, 0);
        endWithDsts(node);
    }

    /** A sink with two operands and no result (store, send). */
    void
    sink(std::string_view mnemonic, int node, int qp)
    {
        beginLine(mnemonic, qp);
        out_ += ' ';
        appendSrc(node, 0);
        out_ += ',';
        appendSrc(node, 1);
        out_ += '\n';
    }

    /** A kernel trap; its argument is operand 0, or #0 without one. */
    void
    trap(isa::Word number, int node, int qp, bool has_arg)
    {
        beginLine("trap", qp);
        out_ += " #";
        appendInt(number);
        out_ += ',';
        if (has_arg)
            appendSrc(node, 0);
        else
            out_ += "#0";
        endWithDsts(node);
    }

    void
    emitNode(int node)
    {
        if (!emitted_[static_cast<size_t>(node)])
            return;
        const dfg::DfgNode &n = cg_->graph.node(node);
        int qp = arity_[static_cast<size_t>(node)];
        switch (n.op) {
          case Actor::Add: return binary("plus", node, qp);
          case Actor::Sub: return binary("minus", node, qp);
          case Actor::Mul: return binary("mul", node, qp);
          case Actor::Div: return binary("div", node, qp);
          case Actor::Rem: return binary("rem", node, qp);
          case Actor::And: return binary("and", node, qp);
          case Actor::Or: return binary("or", node, qp);
          case Actor::Xor: return binary("xor", node, qp);
          case Actor::Lshift: return binary("lshift", node, qp);
          case Actor::Rshift: return binary("rshift", node, qp);
          case Actor::Eq: return binary("eq", node, qp);
          case Actor::Ne: return binary("ne", node, qp);
          case Actor::Lt: return binary("lt", node, qp);
          case Actor::Le: return binary("le", node, qp);
          case Actor::Gt: return binary("gt", node, qp);
          case Actor::Ge: return binary("ge", node, qp);
          case Actor::Neg:
            beginLine("minus", qp);
            out_ += " #0,";
            appendSrc(node, 0);
            return endWithDsts(node);
          case Actor::Not:
            beginLine("xor", qp);
            out_ += ' ';
            appendSrc(node, 0);
            out_ += ",#-1";
            return endWithDsts(node);
          case Actor::Fetch: return unary("fetch", node, qp);
          case Actor::Recv: return unary("recv", node, qp);
          case Actor::Store: return sink("store", node, qp);
          case Actor::Send: return sink("send", node, qp);
          case Actor::GetIn: return trap(isa::TrapGetIn, node, qp, false);
          case Actor::GetOut: return trap(isa::TrapGetOut, node, qp, false);
          case Actor::Rfork: return trap(isa::TrapRfork, node, qp, true);
          case Actor::Ifork: return trap(isa::TrapIfork, node, qp, true);
          case Actor::Alloc: return trap(isa::TrapAlloc, node, qp, true);
          case Actor::ChanAlloc: return trap(isa::TrapChan, node, qp, false);
          case Actor::Now: return trap(isa::TrapNow, node, qp, false);
          case Actor::Wait: return trap(isa::TrapWait, node, qp, true);
          case Actor::Exit:
            out_ += "  trap #";
            appendInt(isa::TrapExit);
            out_ += ",#0\n";
            return;
          case Actor::In:
          case Actor::Const:
          case Actor::CodeAddr:
            break;
        }
        panic("codegen: unknown actor '", dfg::spelling(n.op), "'");
    }
};

} // namespace

std::string
generateAssembly(const ContextProgram &program,
                 const CodegenOptions &options)
{
    std::string out = "; generated by the OCCAM queue-machine compiler\n";
    Emitter emitter(options, out);
    for (const ContextGraph &context : program.contexts)
        emitter.emit(context);
    return out;
}

} // namespace qm::occam

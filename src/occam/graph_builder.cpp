#include "occam/graph_builder.hpp"

#include <algorithm>
#include <span>

#include "dfg/sequencing.hpp"
#include "isa/fields.hpp"
#include "mp/system.hpp"
#include "support/diagnostics.hpp"

namespace qm::occam {

namespace {

using dfg::Actor;
using dfg::Dfg;

/**
 * The build-depth budget, in levels. The builder recurses through
 * emitProcess for every process and emitExpr for every expression
 * node, and builds a procedure's graph at its first call, from inside
 * the caller's (ensureProc): a chain of first calls (p1 calls p0, p2
 * calls p1, ...) stacks body on body, which the parser's nesting bound
 * does not see, as it bounds each body on its own. Each emitProcess and
 * emitExpr frame holds one level; a while, if or par emitter holds
 * kSpliceLevels more, and a body built inside its caller's kCallLevels
 * more, in proportion to their frames: about 1.1 KiB a level under
 * ASan, whose frames are the largest. Past the budget the builder
 * refuses, on the line of the call whose body it is building, instead
 * of overflowing the host stack. 4,096 levels take about 4.6 MiB of
 * ASan's 8 MiB; a body at the parser's bound needs at most 2,560 (512
 * nested pars), and a chain of bare calls 6 a procedure.
 */
constexpr int kMaxBuildDepth = 4096;
constexpr int kSpliceLevels = 4;
constexpr int kCallLevels = 4;

/** The actor of an AST operator; the parser spells both the same. */
Actor
exprActor(const std::string &op)
{
    for (const dfg::ActorInfo &info : dfg::kActors)
        if (info.spelling == op)
            return info.actor;
    panic("no actor for operator '", op, "'");
}

/**
 * Builder state for one context graph under construction. The builder
 * keeps one Ctx per level of its context stack and reuses it for every
 * context opened at that level, so the dense tables below allocate
 * only when a level first sees more symbols or nodes.
 */
struct Ctx
{
    ContextGraph cg;
    /** Symbol id -> node currently holding the symbol's value, or -1. */
    std::vector<int> env;
    /** Per-array order state (multiple readers / single writer). */
    struct ArrayChain
    {
        int lastWrite = -1;
        std::vector<int> readsSinceWrite;
    };
    /** Indexed by the array's ordinal among the program's arrays. */
    std::vector<ArrayChain> arrayChains;
    /** Channel node id -> last send/recv on that channel, or -1. */
    std::vector<int> channelChains;
    /** One control-token chain for user channel ops and waits. */
    int controlChain = -1;
    /** Recv nodes for this context's spliced inputs, in symbol order. */
    std::vector<std::pair<int, int>> inputRecvs;  ///< (symbol, node).

    /** Start context @p label in a program of @p symbols and @p arrays. */
    void
    open(std::string label, std::string role, int symbols, int arrays)
    {
        cg = ContextGraph{};
        cg.label = std::move(label);
        cg.role = std::move(role);
        env.assign(static_cast<size_t>(symbols), -1);
        arrayChains.resize(static_cast<size_t>(arrays));
        for (ArrayChain &chain : arrayChains) {
            chain.lastWrite = -1;
            chain.readsSinceWrite.clear();
        }
        channelChains.clear();
        controlChain = -1;
        inputRecvs.clear();
    }
};

class GraphBuilder
{
  public:
    GraphBuilder(const Program &program, const SymbolTable &table,
                 const Ift &ift, const BuildOptions &options)
        : program_(program), table_(table), ift_(ift), options_(options)
    {
        arrayOrdinal.assign(static_cast<size_t>(table.size()), -1);
        for (int sym = 0; sym < table.size(); ++sym)
            if (table.symbol(sym).kind == Symbol::Kind::Array)
                arrayOrdinal[static_cast<size_t>(sym)] = arrayCount++;
    }

    ContextProgram
    run()
    {
        layoutTopLevelArrays(program_.decls);

        pushContext("main", "main");
        // Top-level channel/array declarations elaborate in main.
        emitDecls(program_.decls);
        emitProcess(*program_.main);
        finishWithExit();
        popContext();

        result.mainLabel = "main";
        return std::move(result);
    }

  private:
    // ----- Build depth (kMaxBuildDepth) -------------------------------------

    /** A call whose procedure body is being built. */
    struct Call
    {
        int symbol = -1;  ///< The procedure; -1 outside every body.
        int line = 0;
    };

    /** Holds @p levels of the build-depth budget while in scope. */
    class Depth
    {
      public:
        Depth(GraphBuilder &builder, int levels, int line)
            : builder_(builder), levels_(levels)
        {
            builder.buildDepth += levels;
            if (builder.buildDepth > kMaxBuildDepth)
                builder.refuseDepth(line);
        }
        ~Depth() { builder_.buildDepth -= levels_; }
        Depth(const Depth &) = delete;
        Depth &operator=(const Depth &) = delete;

      private:
        GraphBuilder &builder_;
        int levels_;
    };

    /**
     * Refuse a build past the budget: on the line of the call whose
     * body is being built, or on @p line outside every body.
     */
    [[noreturn]] void
    refuseDepth(int line)
    {
        if (building.symbol >= 0)
            fatal("line ", building.line, ": call of '",
                  table_.symbol(building.symbol).name,
                  "' nests the graph build deeper than ", kMaxBuildDepth,
                  " levels");
        fatal("line ", line, ": nests the graph build deeper than ",
              kMaxBuildDepth, " levels");
    }

    // ----- Context stack ---------------------------------------------------

    Ctx &cur() { return stack[static_cast<size_t>(openContexts - 1)]; }
    Dfg &g() { return cur().cg.graph; }

    void
    pushContext(std::string label, std::string role)
    {
        if (openContexts == static_cast<int>(stack.size()))
            stack.emplace_back();
        ++openContexts;
        cur().open(std::move(label), std::move(role), table_.size(),
                   arrayCount);
        cur().cg.getin = g().addNode(Actor::GetIn);
        cur().cg.getout = g().addNode(Actor::GetOut);
    }

    void
    popContext()
    {
        result.contexts.push_back(std::move(cur().cg));
        --openContexts;
    }

    std::string
    freshLabel(const std::string &hint)
    {
        return "ctx_" + std::to_string(labelCounter++) + "_" + hint;
    }

    /** Terminate the current context with the kernel exit trap. */
    void
    finishWithExit()
    {
        int exit_node = g().addNode(Actor::Exit);
        // The exit must run after everything with a side effect: every
        // sink, a node nothing consumes.
        for (int node = 0; node < exit_node; ++node)
            if (g().consumers(node).empty())
                g().addOrderEdge(node, exit_node);
    }

    // ----- Data layout -----------------------------------------------------

    void
    layoutTopLevelArrays(const std::vector<Declaration> &decls)
    {
        std::uint32_t next = mp::kDataBase;
        for (const Declaration &decl : decls) {
            if (decl.kind == Declaration::Kind::Array) {
                result.dataAddress[decl.symbol] = next;
                next += static_cast<std::uint32_t>(
                    table_.symbol(decl.symbol).arraySize * 4);
            }
        }
        result.dataSize = next - mp::kDataBase;
    }

    // ----- Environment -----------------------------------------------------

    /** The node bound to @p symbol in the current context. */
    int &
    binding(int symbol)
    {
        return cur().env[static_cast<size_t>(symbol)];
    }

    int
    envGet(int symbol, int line)
    {
        if (int node = binding(symbol); node >= 0)
            return node;
        const Symbol &sym = table_.symbol(symbol);
        if (sym.kind == Symbol::Kind::Array && sym.topLevel) {
            int node = g().addConst(static_cast<std::int64_t>(
                result.dataAddress.at(symbol)));
            binding(symbol) = node;
            return node;
        }
        fatal("line ", line, ": '", sym.name,
              "' used before it has a value in this context");
    }

    /** Splice-state lookup: undefined values transfer as zero. */
    int
    envGetOrZero(int symbol)
    {
        if (int node = binding(symbol); node >= 0)
            return node;
        const Symbol &sym = table_.symbol(symbol);
        if (sym.kind == Symbol::Kind::Array && sym.topLevel)
            return envGet(symbol, sym.line);
        return g().addConst(0);
    }

    // ----- Order chains ----------------------------------------------------

    /** True when the construct's IFT entry carries the control token. */
    bool
    effectful(int entry) const
    {
        return ift_.entry(entry).input(kControlToken) != nullptr ||
               ift_.entry(entry).output(kControlToken) != nullptr;
    }

    /**
     * Order a splice (fork .. join) on the parent's control-token
     * chain: the forked body may perform channel I/O or waits, so it
     * must not overtake (or be overtaken by) the parent's other
     * side-effecting statements (the Fig 4.18 sequencing requirement,
     * lifted to spliced constructs).
     */
    void
    chainControlSpan(int first, int last)
    {
        if (cur().controlChain >= 0)
            g().addOrderEdge(cur().controlChain, first);
        cur().controlChain = last;
    }

    void
    chainControl(int node)
    {
        if (cur().controlChain >= 0)
            g().addOrderEdge(cur().controlChain, node);
        cur().controlChain = node;
    }

    void
    chainChannel(int channel_node, int node)
    {
        std::vector<int> &chains = cur().channelChains;
        if (chains.size() <= static_cast<size_t>(channel_node))
            chains.resize(static_cast<size_t>(g().size()), -1);
        int &last = chains[static_cast<size_t>(channel_node)];
        if (last >= 0)
            g().addOrderEdge(last, node);
        last = node;
    }

    Ctx::ArrayChain &
    arrayChain(int array_symbol)
    {
        int ordinal = arrayOrdinal[static_cast<size_t>(array_symbol)];
        return cur().arrayChains[static_cast<size_t>(ordinal)];
    }

    void
    chainArrayRead(int array_symbol, int node)
    {
        Ctx::ArrayChain &chain = arrayChain(array_symbol);
        if (chain.lastWrite >= 0)
            g().addOrderEdge(chain.lastWrite, node);
        chain.readsSinceWrite.push_back(node);
    }

    void
    chainArrayWrite(int array_symbol, int node)
    {
        Ctx::ArrayChain &chain = arrayChain(array_symbol);
        if (chain.lastWrite >= 0)
            g().addOrderEdge(chain.lastWrite, node);
        for (int read : chain.readsSinceWrite)
            g().addOrderEdge(read, node);
        chain.readsSinceWrite.clear();
        chain.lastWrite = node;
    }

    // ----- Expression emission ----------------------------------------------

    bool
    isConstNode(int node)
    {
        return g().node(node).op == Actor::Const;
    }

    std::int64_t
    constOf(int node)
    {
        return g().node(node).constValue;
    }

    /** A folded constant, wrapped to a machine word like the PE's ALU. */
    int
    addFolded(std::int64_t value)
    {
        return g().addConst(isa::wrapWord(value));
    }

    /** Binary op with constant folding. */
    int
    binOp(Actor op, int a, int b)
    {
        if (isConstNode(a) && isConstNode(b)) {
            std::int64_t x = constOf(a), y = constOf(b);
            switch (op) {
              case Actor::Add: return addFolded(x + y);
              case Actor::Sub: return addFolded(x - y);
              case Actor::Mul: return addFolded(x * y);
              case Actor::Lshift: return addFolded(x << (y & 31));
              case Actor::Div:
                if (y != 0) return addFolded(x / y);
                break;
              case Actor::Rem:
                if (y != 0) return addFolded(x % y);
                break;
              default:
                break;
            }
        }
        return g().addNode(op, {a, b});
    }

    int
    emitExpr(const Expr &expr)
    {
        Depth held(*this, 1, expr.line);
        switch (expr.kind) {
          case Expr::Kind::Number:
          case Expr::Kind::BoolLit:
            return g().addConst(expr.value);
          case Expr::Kind::Var: {
            const Symbol &sym = table_.symbol(expr.symbol);
            if (sym.kind == Symbol::Kind::Constant)
                return g().addConst(sym.constValue);
            return envGet(expr.symbol, expr.line);
          }
          case Expr::Kind::ArrayRef: {
            int addr = arrayElemAddr(expr);
            int fetch = g().addNode(Actor::Fetch, {addr});
            chainArrayRead(expr.symbol, fetch);
            return fetch;
          }
          case Expr::Kind::Unary: {
            Actor op = exprActor(expr.op);
            int a = emitExpr(*expr.args[0]);
            if (isConstNode(a)) {
                if (op == Actor::Neg)
                    return addFolded(-constOf(a));
                if (op == Actor::Not)
                    return g().addConst(~constOf(a));
            }
            return g().addNode(op, {a});
          }
          case Expr::Kind::Binary: {
            int a = emitExpr(*expr.args[0]);
            int b = emitExpr(*expr.args[1]);
            return binOp(exprActor(expr.op), a, b);
          }
        }
        panic("unreachable expr kind");
    }

    int
    arrayElemAddr(const Expr &ref)
    {
        int base = envGet(ref.symbol, ref.line);
        int index = emitExpr(*ref.args[0]);
        int offset = binOp(Actor::Lshift, index, g().addConst(2));
        return binOp(Actor::Add, base, offset);
    }

    /** sel(c, a, b) = (a AND c) OR (b AND NOT c), Boolean-mask form. */
    int
    selNode(int cond, int if_true, int if_false)
    {
        int not_c = g().addNode(Actor::Not, {cond});
        int left = g().addNode(Actor::And, {if_true, cond});
        int right = g().addNode(Actor::And, {if_false, not_c});
        return g().addNode(Actor::Or, {left, right});
    }

    // ----- Splicing helpers --------------------------------------------------

    /** Send @p value on @p channel_node, keeping per-channel order. */
    int
    sendOn(int channel_node, int value)
    {
        int node = g().addNode(Actor::Send, {channel_node, value});
        chainChannel(channel_node, node);
        return node;
    }

    /** Receive from @p channel_node, keeping per-channel order. */
    int
    recvOn(int channel_node)
    {
        int node = g().addNode(Actor::Recv, {channel_node});
        chainChannel(channel_node, node);
        return node;
    }

    /** Chain the child's input receives in creation order. */
    void
    sequenceChildInputs(Ctx &child)
    {
        int prev = -1;
        for (auto [sym, node] : child.inputRecvs) {
            if (prev >= 0)
                child.cg.graph.addOrderEdge(prev, node);
            prev = node;
        }
    }

    /**
     * Chain a finished child's input receives in transfer order and
     * return their symbols in that order. With input sequencing enabled
     * the receives are weighted by the pi_I heuristic (section 4.5):
     * inputs enabling more computation come first, ties in creation
     * order; otherwise they keep creation order.
     */
    std::vector<int>
    sequenceWeightedInputs(Ctx &child)
    {
        const auto &recvs = child.inputRecvs;
        std::vector<int> order(recvs.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = static_cast<int>(i);
        if (options_.inputSequencing && order.size() >= 2) {
            recvNodes.clear();
            for (auto [sym, node] : recvs)
                recvNodes.push_back(node);
            const std::vector<long> &weight =
                weigher.weigh(child.cg.graph, recvNodes);
            std::stable_sort(order.begin(), order.end(),
                             [&](int a, int b) {
                                 return weight[static_cast<size_t>(a)] >
                                        weight[static_cast<size_t>(b)];
                             });
        }
        int prev = -1;
        for (int &at : order) {
            auto [sym, node] = recvs[static_cast<size_t>(at)];
            if (prev >= 0)
                child.cg.graph.addOrderEdge(prev, node);
            prev = node;
            at = sym;
        }
        return order;
    }

    /**
     * Emit the start of a child context: receives for every symbol in
     * @p in_symbols from the in channel. Call inside the child.
     */
    void
    emitChildPrologue(const std::vector<int> &in_symbols)
    {
        // Deliberately NOT chained here: the transfer order is imposed
        // afterwards by sequenceChildInputs (it may differ from creation
        // order under the pi_I heuristic, and double-chaining would make
        // the graph cyclic).
        for (int sym : in_symbols) {
            int node = g().addNode(Actor::Recv, {cur().cg.getin});
            binding(sym) = node;
            cur().inputRecvs.emplace_back(sym, node);
        }
    }

    /**
     * Emit the end of a child context: send @p return_symbols' values
     * (or a single join token when empty) on the out channel, then
     * exit. Call inside the child.
     */
    void
    emitChildEpilogue(const std::vector<int> &return_symbols)
    {
        // The splice protocol: a child receives every input before it
        // sends any output (the parent mirrors this), or two parked
        // sends deadlock. Constant-valued outputs carry no data
        // dependence on the receives, so the ordering must be explicit:
        // the first send follows every sink so far and every receive.
        sinks.clear();
        for (int node = 0; node < g().size(); ++node)
            if (g().consumers(node).empty())
                sinks.push_back(node);

        int first_send = -1;
        if (return_symbols.empty()) {
            first_send = sendOn(cur().cg.getout, g().addConst(0));
        } else {
            for (int sym : return_symbols) {
                int node = sendOn(cur().cg.getout, envGetOrZero(sym));
                if (first_send < 0)
                    first_send = node;
            }
        }
        for (int node : sinks)
            if (node != first_send)
                g().addOrderEdge(node, first_send);
        for (auto [sym, node] : cur().inputRecvs)
            if (node != first_send)
                g().addOrderEdge(node, first_send);
        finishWithExit();
    }

    /** Drop arrays and channels from a live-out list (nothing to send). */
    std::vector<int>
    scalarOnly(std::vector<int> symbols)
    {
        symbols.erase(
            std::remove_if(symbols.begin(), symbols.end(),
                           [&](int sym) {
                               auto kind = table_.symbol(sym).kind;
                               return kind != Symbol::Kind::Scalar;
                           }),
            symbols.end());
        return symbols;
    }

    /** Arrays among an entry's I/O sets (for cross-splice ordering). */
    std::vector<int>
    arraysOf(const std::vector<IftValue> &values)
    {
        std::vector<int> arrays;
        for (const IftValue &v : values)
            if (v.symbol != kControlToken &&
                table_.symbol(v.symbol).kind == Symbol::Kind::Array)
                arrays.push_back(v.symbol);
        return arrays;
    }

    // ----- The splice protocol (parent side) ---------------------------------

    /** What a child sends back and which arrays it touches. */
    struct Splice
    {
        std::vector<int> returns;  ///< Parent symbols its results bind.
        std::vector<int> arraysRead;
        std::vector<int> arraysWritten;
    };

    /** The splice of the construct whose IFT entry is @p entry. */
    Splice
    spliceOf(int entry)
    {
        const IftEntry &e = ift_.entry(entry);
        return {scalarOnly(ift_.liveOutputs(entry)), arraysOf(e.inputs),
                arraysOf(e.outputs)};
    }

    /**
     * rfork the child whose code address is @p target, ordered after
     * the parent's pending accesses to the child's arrays: the last
     * write of each array it reads, and the last write and every read
     * since of each array it writes. The fork registers as a reader of
     * the arrays the child reads.
     */
    int
    forkChild(int target, const Splice &splice)
    {
        int fork = g().addNode(Actor::Rfork, {target});
        for (int arr : splice.arraysWritten) {
            const Ctx::ArrayChain &chain = arrayChain(arr);
            if (chain.lastWrite >= 0)
                g().addOrderEdge(chain.lastWrite, fork);
            for (int read : chain.readsSinceWrite)
                g().addOrderEdge(read, fork);
        }
        for (int arr : splice.arraysRead)
            chainArrayRead(arr, fork);
        return fork;
    }

    /**
     * Send @p symbols to the child on @p fork, its in channel, in
     * transfer order, each as the node @p value_of(symbol). Returns
     * the last send, or @p fork when there is nothing to send.
     */
    template <typename ValueOf>
    int
    feed(int fork, const std::vector<int> &symbols, ValueOf value_of)
    {
        int last = fork;
        for (int sym : symbols)
            last = sendOn(fork, value_of(sym));
        return last;
    }

    /** feed() with each symbol's current value in the parent. */
    int
    feed(int fork, const std::vector<int> &symbols)
    {
        return feed(fork, symbols,
                    [this](int sym) { return envGetOrZero(sym); });
    }

    /**
     * Receive the child's results from its out channel (fork + 1 by
     * the kernel convention), binding splice.returns in order, or a
     * single join token when it returns nothing. Returns the last
     * receive, the join. Two rules order the splice:
     *  - a parent receives from no child before it has fed every child
     *    it forked, or a child parked on its results and a child
     *    waiting for its inputs deadlock: the first receive follows
     *    every send in @p fed;
     *  - the parent touches the child's arrays only after the join,
     *    which stands in for the child's reads and writes.
     */
    int
    joinChild(int fork, std::span<const int> fed, const Splice &splice)
    {
        int out_chan = binOp(Actor::Add, fork, g().addConst(1));
        int join = recvOn(out_chan);
        for (int send : fed)
            g().addOrderEdge(send, join);
        for (std::size_t i = 0; i < splice.returns.size(); ++i) {
            if (i > 0)
                join = recvOn(out_chan);
            binding(splice.returns[i]) = join;
        }
        for (int arr : splice.arraysRead)
            chainArrayRead(arr, join);
        for (int arr : splice.arraysWritten)
            chainArrayWrite(arr, join);
        return join;
    }

    /**
     * A par feeds every child before it joins any, and until its join
     * the parent holds each child's channel in its operand queue: more
     * children than the largest page has words can never compile.
     */
    void
    checkParWidth(long children, int line)
    {
        fatalIf(children > isa::kMaxQueuePageWords, "line ", line,
                ": par forks ", children,
                " children before its first join; at most ",
                isa::kMaxQueuePageWords,
                " fit, as the parent holds each child's channel in its "
                "operand queue until the join");
    }

    // ----- Declarations ------------------------------------------------------

    void
    emitDecls(const std::vector<Declaration> &decls)
    {
        for (const Declaration &decl : decls) {
            switch (decl.kind) {
              case Declaration::Kind::Channel:
                binding(decl.symbol) = g().addNode(Actor::ChanAlloc);
                break;
              case Declaration::Kind::Array:
                if (!table_.symbol(decl.symbol).topLevel) {
                    int size = g().addConst(
                        table_.symbol(decl.symbol).arraySize * 4);
                    binding(decl.symbol) = g().addNode(Actor::Alloc, {size});
                }
                break;
              case Declaration::Kind::Scalar:
              case Declaration::Kind::Constant:
                break;
              case Declaration::Kind::Procedure:
                // Built on first call (ensureProc).
                break;
            }
        }
    }

    // ----- Procedure graphs ---------------------------------------------------

    struct ProcInfo
    {
        std::string label;
        std::vector<int> sendOrder;    ///< Param symbols, send order.
        std::vector<int> returnOrder;  ///< Var-scalar param symbols.
    };

    /** The procedure @p proc_symbol, built at its first call on @p line. */
    const ProcInfo &
    ensureProc(int proc_symbol, int line)
    {
        auto it = procs.find(proc_symbol);
        if (it != procs.end())
            return it->second;

        const Symbol &sym = table_.symbol(proc_symbol);
        Call outer = building;
        building = {proc_symbol, line};
        Depth held(*this, kCallLevels, line);
        ProcInfo info;
        info.label = freshLabel("proc_" + sym.name);
        for (const Declaration::Param &param : sym.params) {
            // Transfer order is the declaration order: it must be
            // committed before the body builds so recursive calls can
            // splice against it.
            info.sendOrder.push_back(param.symbol);
            if (!param.byValue && !param.isArray && !param.isChannel)
                info.returnOrder.push_back(param.symbol);
        }
        auto [slot, inserted] = procs.emplace(proc_symbol, info);
        panicIf(!inserted, "duplicate proc build");

        pushContext(info.label, "proc " + sym.name);
        emitChildPrologue(info.sendOrder);
        sequenceChildInputs(cur());
        emitProcess(*sym.procBody);
        emitChildEpilogue(info.returnOrder);
        popContext();
        building = outer;
        return procs.at(proc_symbol);
    }

    // ----- Process emission ----------------------------------------------------
    //
    // The construct emitters stay out of line, so that the frame every
    // nesting level pays, emitProcess's, holds only its own locals:
    // inlined, each level paid for every construct's (about 8 KiB under
    // ASan).

    void
    emitProcess(const Process &proc)
    {
        Depth held(*this, 1, proc.line);
        switch (proc.kind) {
          case Process::Kind::Skip:
            return;
          case Process::Kind::Assign:
            if (proc.target->kind == Expr::Kind::ArrayRef) {
                int addr = arrayElemAddr(*proc.target);
                int value = emitExpr(*proc.value);
                int store = g().addNode(Actor::Store, {addr, value});
                chainArrayWrite(proc.target->symbol, store);
            } else {
                int value = emitExpr(*proc.value);
                binding(proc.target->symbol) = value;
            }
            return;
          case Process::Kind::Output: {
            int chan = envGet(proc.channel->symbol, proc.line);
            int value = emitExpr(*proc.value);
            int node = sendOn(chan, value);
            chainControl(node);
            return;
          }
          case Process::Kind::Input: {
            int chan = envGet(proc.channel->symbol, proc.line);
            int node = recvOn(chan);
            chainControl(node);
            if (proc.target->kind == Expr::Kind::ArrayRef) {
                int addr = arrayElemAddr(*proc.target);
                int store = g().addNode(Actor::Store, {addr, node});
                chainArrayWrite(proc.target->symbol, store);
            } else {
                binding(proc.target->symbol) = node;
            }
            return;
          }
          case Process::Kind::Wait: {
            int t = emitExpr(*proc.value);
            int node = g().addNode(Actor::Wait, {t});
            chainControl(node);
            return;
          }
          case Process::Kind::Seq:
            emitDecls(proc.decls);
            for (const ProcessPtr &child : proc.children)
                emitProcess(*child);
            return;
          case Process::Kind::While:
            emitWhile(proc);
            return;
          case Process::Kind::If:
            emitIf(proc);
            return;
          case Process::Kind::Par:
            emitDecls(proc.decls);
            if (proc.repl)
                emitReplicatedPar(proc);
            else
                emitPar(proc);
            return;
          case Process::Kind::Call:
            emitCall(proc);
            return;
        }
        panic("unreachable process kind");
    }

    // While: head evaluates the condition and iforks either the body or
    // the terminator; the body runs one iteration then iforks the head
    // again; the terminator sends the live results on the inherited out
    // channel, which reaches the loop's creator (thesis Fig 4.6).
    [[gnu::noinline]] void
    emitWhile(const Process &proc)
    {
        Depth held(*this, kSpliceLevels, proc.line);
        int entry = ift_.entryOf(&proc);
        Splice splice = spliceOf(entry);

        // Loop state: everything the loop reads or writes.
        std::vector<int> state = ift_.inputSymbols(entry);
        for (int sym : ift_.liveOutputs(entry))
            if (std::find(state.begin(), state.end(), sym) ==
                state.end())
                state.push_back(sym);
        std::sort(state.begin(), state.end());

        std::string head_label = freshLabel("while_head");
        std::string body_label = freshLabel("while_body");
        std::string term_label = freshLabel("while_term");

        // Terminator context.
        pushContext(term_label, "while-term");
        emitChildPrologue(state);
        sequenceChildInputs(cur());
        emitChildEpilogue(splice.returns);
        popContext();

        // Body context: one iteration, then continue at the head.
        pushContext(body_label, "while-body");
        emitChildPrologue(state);
        sequenceChildInputs(cur());
        emitProcess(*proc.children[0]);
        {
            int claddr = g().addCodeAddr(head_label);
            int fork = g().addNode(Actor::Ifork, {claddr});
            // Iteration side effects must complete before the handoff
            // releases the next head (arrays the body writes).
            for (int arr : splice.arraysWritten)
                chainArrayRead(arr, fork);
            feed(fork, state);
        }
        finishWithExit();
        popContext();

        // Head context: dispatch on the condition.
        pushContext(head_label, "while-head");
        emitChildPrologue(state);
        sequenceChildInputs(cur());
        {
            int cond = emitExpr(*proc.condition);
            int body_addr = g().addCodeAddr(body_label);
            int term_addr = g().addCodeAddr(term_label);
            int target = selNode(cond, body_addr, term_addr);
            feed(g().addNode(Actor::Ifork, {target}), state);
        }
        finishWithExit();
        popContext();

        // Parent side: rfork the head, stream the state, await results.
        int fork = forkChild(g().addCodeAddr(head_label), splice);
        int fed = feed(fork, state);
        int join = joinChild(fork, {&fed, 1}, splice);
        if (effectful(entry))
            chainControlSpan(fork, join);
    }

    // If: conditions evaluate in the parent; one branch context is
    // forked through a sel chain over branch code addresses. Every
    // branch receives the same input list and returns the same output
    // list, so the merge is uniform whichever branch runs.
    [[gnu::noinline]] void
    emitIf(const Process &proc)
    {
        Depth held(*this, kSpliceLevels, proc.line);
        int entry = ift_.entryOf(&proc);
        Splice splice = spliceOf(entry);

        // Branches need old values of outputs they leave untouched.
        std::vector<int> ins = ift_.inputSymbols(entry);
        for (int sym : splice.returns)
            if (std::find(ins.begin(), ins.end(), sym) == ins.end())
                ins.push_back(sym);
        std::sort(ins.begin(), ins.end());

        // Build the branch contexts (plus the default skip branch).
        std::vector<std::string> labels;
        for (const Process::Branch &branch : proc.branches) {
            std::string label = freshLabel("if_branch");
            labels.push_back(label);
            pushContext(label, "if-branch");
            emitChildPrologue(ins);
            sequenceChildInputs(cur());
            emitProcess(*branch.body);
            emitChildEpilogue(splice.returns);
            popContext();
        }
        std::string skip_label = freshLabel("if_skip");
        pushContext(skip_label, "if-skip");
        emitChildPrologue(ins);
        sequenceChildInputs(cur());
        emitChildEpilogue(splice.returns);
        popContext();

        // Parent: fold conditions into a nested sel chain, innermost
        // (last) guard first.
        int target = g().addCodeAddr(skip_label);
        for (std::size_t i = proc.branches.size(); i-- > 0;) {
            int cond = emitExpr(*proc.branches[i].condition);
            int addr = g().addCodeAddr(labels[i]);
            target = selNode(cond, addr, target);
        }
        int fork = forkChild(target, splice);
        int fed = feed(fork, ins);
        int join = joinChild(fork, {&fed, 1}, splice);
        if (effectful(entry))
            chainControlSpan(fork, join);
    }

    // Par: one context per component, all forked before any join.
    [[gnu::noinline]] void
    emitPar(const Process &proc)
    {
        Depth held(*this, kSpliceLevels, proc.line);
        int entry = ift_.entryOf(&proc);
        const IftEntry &e = ift_.entry(entry);
        checkParWidth(static_cast<long>(e.chains.size()), proc.line);

        struct Comp
        {
            std::string label;
            std::vector<int> ins;
            Splice splice;
            int fork = -1;
        };
        std::vector<Comp> comps;
        for (std::size_t k = 0; k < e.chains.size(); ++k) {
            int comp_entry = e.chains[k][0];
            Comp comp;
            comp.label = freshLabel("par_comp");
            comp.ins = ift_.inputSymbols(comp_entry);
            comp.splice = spliceOf(comp_entry);

            pushContext(comp.label, "par-comp");
            emitChildPrologue(comp.ins);
            // The transfer order is decided by the pi_I weights of the
            // finished body, then imposed on the existing receives.
            emitProcess(*proc.children[k]);
            comp.ins = sequenceWeightedInputs(cur());
            emitChildEpilogue(comp.splice.returns);
            popContext();
            comps.push_back(std::move(comp));
        }

        // Fork and feed every component before joining any of them.
        std::vector<int> fed;
        for (Comp &comp : comps) {
            comp.fork = forkChild(g().addCodeAddr(comp.label), comp.splice);
            fed.push_back(feed(comp.fork, comp.ins));
        }
        int join = -1;
        for (const Comp &comp : comps)
            join = joinChild(comp.fork, fed, comp.splice);
        if (!comps.empty() && effectful(entry))
            chainControlSpan(comps.front().fork, join);
    }

    // Replicated par: one shared body graph; the parent forks count
    // instances, each sent its own index value (pseudo-static
    // reentrancy: one instruction sequence, many operand queues).
    [[gnu::noinline]] void
    emitReplicatedPar(const Process &proc)
    {
        Depth held(*this, kSpliceLevels, proc.line);
        int entry = ift_.entryOf(&proc);
        const IftEntry &e = ift_.entry(entry);
        long count = -1;
        try {
            count = foldConstant(*proc.repl->count, table_);
        } catch (const FatalError &) {
            fatal("line ", proc.line,
                  ": replicated par needs a compile-time constant "
                  "count in this implementation; for a run-time count "
                  "use the recursive-procedure fan-out pattern of "
                  "thesis Fig 6.9 (see examples and "
                  "programs/binaryFanRecursiveSource)");
        }
        fatalIf(count < 0, "line ", proc.line,
                ": negative replication count");
        checkParWidth(count, proc.line);

        // The instance's inputs: the body chain's seq-combined I set.
        std::vector<int> ins;
        {
            std::vector<int> defined;
            auto has = [](const std::vector<int> &set, int symbol) {
                return std::find(set.begin(), set.end(), symbol) !=
                       set.end();
            };
            for (int child : e.chains[0]) {
                for (const IftValue &v : ift_.entry(child).inputs)
                    if (v.symbol != kControlToken && !has(defined, v.symbol) &&
                        !has(ins, v.symbol))
                        ins.push_back(v.symbol);
                for (const IftValue &v : ift_.entry(child).outputs)
                    if (!has(defined, v.symbol))
                        defined.push_back(v.symbol);
            }
            std::sort(ins.begin(), ins.end());
        }
        Splice splice = spliceOf(entry);

        std::string label = freshLabel("repl_par");
        pushContext(label, "repl-par-body");
        emitChildPrologue(ins);
        for (const ProcessPtr &child : proc.children)
            emitProcess(*child);
        std::vector<int> order = sequenceWeightedInputs(cur());
        emitChildEpilogue(splice.returns);
        popContext();

        int base = emitExpr(*proc.repl->base);
        std::vector<int> forks, fed;
        for (long k = 0; k < count; ++k) {
            int fork = forkChild(g().addCodeAddr(label), splice);
            int index = binOp(Actor::Add, base, g().addConst(k));
            fed.push_back(feed(fork, order, [&](int sym) {
                return sym == proc.repl->symbol ? index : envGetOrZero(sym);
            }));
            forks.push_back(fork);
        }
        int join = -1;
        for (int fork : forks)
            join = joinChild(fork, fed, splice);
        if (!forks.empty() && effectful(entry))
            chainControlSpan(forks.front(), join);
    }

    // Procedure call: fork the (shared, reentrant) procedure graph,
    // stream the arguments, then receive var-scalar results back.
    [[gnu::noinline]] void
    emitCall(const Process &proc)
    {
        const ProcInfo &info = ensureProc(proc.calleeSymbol, proc.line);
        const Symbol &callee = table_.symbol(proc.calleeSymbol);

        // Argument values in declaration order, the send order of
        // info.sendOrder. The var-scalar arguments take the results, in
        // declaration order like info.returnOrder.
        std::vector<int> values;
        values.reserve(proc.args.size());
        Splice splice;
        for (std::size_t i = 0; i < proc.args.size(); ++i) {
            const Declaration::Param &param = callee.params[i];
            const Expr &arg = *proc.args[i];
            if (param.isChannel) {
                values.push_back(envGet(arg.symbol, arg.line));
            } else if (param.isArray) {
                values.push_back(envGet(arg.symbol, arg.line));
                // Conservatively both read and written by the callee.
                splice.arraysRead.push_back(arg.symbol);
                splice.arraysWritten.push_back(arg.symbol);
            } else if (param.byValue) {
                values.push_back(emitExpr(arg));
            } else {
                values.push_back(envGetOrZero(arg.symbol));
                splice.returns.push_back(arg.symbol);
            }
        }

        int fork = forkChild(g().addCodeAddr(info.label), splice);
        int fed = fork;
        for (int value : values)
            fed = sendOn(fork, value);
        // Calls are side-effecting: the whole fork..join span sits on
        // the control chain so consecutive calls do not reorder.
        chainControlSpan(fork, joinChild(fork, {&fed, 1}, splice));
    }

    const Program &program_;
    const SymbolTable &table_;
    const Ift &ift_;
    BuildOptions options_;
    /** Symbol id -> ordinal among the program's arrays, or -1. */
    std::vector<int> arrayOrdinal;
    int arrayCount = 0;

    /** One Ctx per level of the context stack, reused level by level. */
    std::vector<Ctx> stack;
    /** Contexts open: the first this many entries of the stack. */
    int openContexts = 0;
    /** Scratch of emitChildEpilogue: the sinks before the sends. */
    std::vector<int> sinks;
    /** Scratch of sequenceWeightedInputs: the receives to weigh. */
    std::vector<int> recvNodes;
    dfg::PredecessorWeights weigher;
    std::map<int, ProcInfo> procs;
    /** Levels of the build-depth budget held. */
    int buildDepth = 0;
    /** The innermost call whose procedure body is being built. */
    Call building;
    int labelCounter = 0;
    ContextProgram result;
};

} // namespace

ContextProgram
buildContextGraphs(const Program &program, const SymbolTable &table,
                   const Ift &ift, const BuildOptions &options)
{
    return GraphBuilder(program, table, ift, options).run();
}

} // namespace qm::occam

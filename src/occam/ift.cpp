#include "occam/ift.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <sstream>

#include "support/diagnostics.hpp"

namespace qm::occam {

const IftValue *
IftEntry::input(int symbol) const
{
    for (const IftValue &v : inputs)
        if (v.symbol == symbol)
            return &v;
    return nullptr;
}

const IftValue *
IftEntry::output(int symbol) const
{
    for (const IftValue &v : outputs)
        if (v.symbol == symbol)
            return &v;
    return nullptr;
}

IftValue *
IftEntry::output(int symbol)
{
    for (IftValue &v : outputs)
        if (v.symbol == symbol)
            return &v;
    return nullptr;
}

int
Ift::entryOf(const Process *proc) const
{
    auto it = std::lower_bound(byProcess.begin(), byProcess.end(), proc,
                               [](const auto &pair, const Process *key) {
                                   return std::less<>{}(pair.first, key);
                               });
    panicIf(it == byProcess.end() || it->first != proc,
            "process has no IFT entry");
    return it->second;
}

int
Ift::procEntry(int proc_symbol) const
{
    auto it = byProc.find(proc_symbol);
    panicIf(it == byProc.end(), "procedure has no IFT entry");
    return it->second;
}

std::vector<int>
Ift::liveOutputs(int index) const
{
    std::vector<int> result;
    for (const IftValue &v : entry(index).outputs)
        if (v.symbol != kControlToken && v.live)
            result.push_back(v.symbol);
    std::sort(result.begin(), result.end());
    return result;
}

std::vector<int>
Ift::inputSymbols(int index) const
{
    std::vector<int> result;
    for (const IftValue &v : entry(index).inputs)
        if (v.symbol != kControlToken)
            result.push_back(v.symbol);
    std::sort(result.begin(), result.end());
    return result;
}

namespace {

/** Add @p value to the sorted set @p set unless it is there already. */
void
insertSorted(std::vector<int> &set, int value)
{
    auto at = std::lower_bound(set.begin(), set.end(), value);
    if (at == set.end() || *at != value)
        set.insert(at, value);
}

bool
contains(const std::vector<int> &set, int value)
{
    return std::binary_search(set.begin(), set.end(), value);
}

const char *
typeName(IftEntry::Type type)
{
    switch (type) {
      case IftEntry::Type::Assignment: return "assignment";
      case IftEntry::Type::Input: return "input";
      case IftEntry::Type::Output: return "output";
      case IftEntry::Type::Wait: return "wait";
      case IftEntry::Type::Skip: return "skip";
      case IftEntry::Type::Condition: return "condition";
      case IftEntry::Type::Declaration: return "declaration";
      case IftEntry::Type::Seq: return "seq";
      case IftEntry::Type::Par: return "par";
      case IftEntry::Type::If: return "if";
      case IftEntry::Type::While: return "while";
      case IftEntry::Type::Call: return "call";
    }
    return "?";
}

} // namespace

std::string
Ift::dump(const SymbolTable &table) const
{
    auto name = [&](int sym) {
        return sym == kControlToken ? std::string("K")
                                    : table.symbol(sym).name;
    };
    std::ostringstream os;
    for (int i = 0; i < size(); ++i) {
        const IftEntry &e = entry(i);
        os << i << " " << typeName(e.type) << " I={";
        for (const IftValue &v : e.inputs)
            os << name(v.symbol) << " ";
        os << "} O={";
        for (const IftValue &v : e.outputs)
            os << name(v.symbol) << (v.live ? "+ " : " ");
        os << "} E={";
        for (const auto &chain : e.chains) {
            os << "(";
            for (int c : chain)
                os << c << " ";
            os << ")";
        }
        os << "}\n";
    }
    return os.str();
}

// ---------------------------------------------------------------------------

class IftBuilder
{
  public:
    IftBuilder(const Program &program, const SymbolTable &table,
               bool live_analysis)
        : program_(program), table_(table), liveAnalysis(live_analysis)
    {
    }

    Ift
    run()
    {
        // Procedure bodies first (call entries do not expand inline).
        buildProcDecls(program_.decls);
        ift.main_ = buildProcess(*program_.main);
        std::sort(ift.byProcess.begin(), ift.byProcess.end(),
                  [](const auto &a, const auto &b) {
                      return std::less<>{}(a.first, b.first);
                  });

        // Use/definition linking, then liveness, per root.
        useAndDef(ift.main_);
        for (auto &[sym, root] : ift.byProc)
            useAndDef(root);

        if (liveAnalysis) {
            // Program results are observed through memory, so the main
            // block's own outputs are dead; proc-body outputs are live
            // exactly for var formals.
            for (IftValue &v : entryRef(ift.main_).outputs)
                v.live = false;
            assignLive(ift.main_);
            for (auto &[sym, root] : ift.byProc) {
                for (IftValue &v : entryRef(root).outputs)
                    v.live = varFormal(v.symbol);
                assignLive(root);
            }
        } else {
            // Table 6.6 ablation: communicate everything.
            for (IftEntry &e : ift.entries_)
                for (IftValue &v : e.outputs)
                    v.live = true;
        }
        return std::move(ift);
    }

  private:
    IftEntry &
    entryRef(int index)
    {
        return ift.entries_[static_cast<size_t>(index)];
    }

    /**
     * Start a new entry. Its I and O sets are gathered in the ins and
     * outs scratch lists until finish() copies them into the entry.
     */
    int
    newEntry(IftEntry::Type type, const Process *syntax)
    {
        IftEntry e;
        e.type = type;
        e.syntax = syntax;
        ift.entries_.push_back(std::move(e));
        int index = ift.size() - 1;
        if (syntax)
            ift.byProcess.emplace_back(syntax, index);
        ins.clear();
        outs.clear();
        return index;
    }

    /** Give entry @p index the I and O sets gathered since newEntry. */
    int
    finish(int index)
    {
        auto fill = [](std::vector<IftValue> &set,
                       const std::vector<int> &symbols) {
            set.reserve(symbols.size());
            for (int symbol : symbols) {
                IftValue v;
                v.symbol = symbol;
                set.push_back(std::move(v));
            }
        };
        fill(entryRef(index).inputs, ins);
        fill(entryRef(index).outputs, outs);
        return index;
    }

    bool
    varFormal(int symbol) const
    {
        if (symbol == kControlToken)
            return false;
        const Symbol &sym = table_.symbol(symbol);
        return sym.isParam && !sym.paramByValue &&
               sym.kind == Symbol::Kind::Scalar;
    }

    /** Collect value symbols an expression consumes (not constants). */
    void
    collectVars(const Expr &expr, std::vector<int> &out) const
    {
        switch (expr.kind) {
          case Expr::Kind::Number:
          case Expr::Kind::BoolLit:
            return;
          case Expr::Kind::Var: {
            const Symbol &sym = table_.symbol(expr.symbol);
            if (sym.kind != Symbol::Kind::Constant)
                out.push_back(expr.symbol);
            return;
          }
          case Expr::Kind::ArrayRef:
            out.push_back(expr.symbol);
            collectVars(*expr.args[0], out);
            return;
          case Expr::Kind::Unary:
            collectVars(*expr.args[0], out);
            return;
          case Expr::Kind::Binary:
            collectVars(*expr.args[0], out);
            collectVars(*expr.args[1], out);
            return;
        }
    }

    /** Append @p symbol to the ordered set @p set unless it is there. */
    static void
    addValue(std::vector<int> &set, int symbol)
    {
        if (std::find(set.begin(), set.end(), symbol) == set.end())
            set.push_back(symbol);
    }

    /** Add the symbols @p expr consumes to @p set, in symbol order. */
    void
    addVars(std::vector<int> &set, const Expr &expr)
    {
        vars.clear();
        collectVars(expr, vars);
        std::sort(vars.begin(), vars.end());
        vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
        for (int s : vars)
            addValue(set, s);
    }

    /** Add the I and O sets of finished entry @p child. */
    void
    addValuesOf(int child)
    {
        for (const IftValue &v : entryRef(child).inputs)
            addValue(ins, v.symbol);
        for (const IftValue &v : entryRef(child).outputs)
            addValue(outs, v.symbol);
    }

    void
    buildProcDecls(const std::vector<Declaration> &decls)
    {
        for (const Declaration &decl : decls) {
            if (decl.kind != Declaration::Kind::Procedure)
                continue;
            int root = buildProcess(*decl.procBody);
            ift.byProc[decl.symbol] = root;
        }
    }

    int
    buildCondition(const Expr &cond)
    {
        int index = newEntry(IftEntry::Type::Condition, nullptr);
        entryRef(index).condExpr = &cond;
        addVars(ins, cond);
        return finish(index);
    }

    /** Table 4.2 seq combination of already-built component entries. */
    void
    combineSeq(const std::vector<int> &chain)
    {
        defined.clear();
        for (int child : chain) {
            for (const IftValue &v : entryRef(child).inputs)
                if (!contains(defined, v.symbol))
                    addValue(ins, v.symbol);
            for (const IftValue &v : entryRef(child).outputs) {
                insertSorted(defined, v.symbol);
                addValue(outs, v.symbol);
            }
        }
    }

    /** Remove @p e's declared-local symbols from the gathered sets. */
    void
    filterLocals(const IftEntry &e)
    {
        auto drop = [&](std::vector<int> &set) {
            set.erase(std::remove_if(set.begin(), set.end(),
                                     [&](int symbol) {
                                         return contains(e.locals, symbol);
                                     }),
                      set.end());
        };
        drop(ins);
        drop(outs);
    }

    void
    noteLocals(IftEntry &e, const std::vector<Declaration> &decls)
    {
        for (const Declaration &decl : decls)
            if (decl.symbol >= 0)
                insertSorted(e.locals, decl.symbol);
    }

    int
    buildProcess(const Process &proc)
    {
        switch (proc.kind) {
          case Process::Kind::Assign: {
            int index = newEntry(IftEntry::Type::Assignment, &proc);
            addVars(ins, *proc.value);
            if (proc.target->kind == Expr::Kind::ArrayRef) {
                addVars(ins, *proc.target->args[0]);
                addValue(ins, proc.target->symbol);
            }
            addValue(outs, proc.target->symbol);
            return finish(index);
          }
          case Process::Kind::Input: {
            int index = newEntry(IftEntry::Type::Input, &proc);
            addValue(ins, kControlToken);
            addValue(ins, proc.channel->symbol);
            addValue(outs, kControlToken);
            if (proc.target->kind == Expr::Kind::ArrayRef) {
                addVars(ins, *proc.target->args[0]);
                addValue(ins, proc.target->symbol);
            }
            addValue(outs, proc.target->symbol);
            return finish(index);
          }
          case Process::Kind::Output: {
            int index = newEntry(IftEntry::Type::Output, &proc);
            addValue(ins, kControlToken);
            addValue(ins, proc.channel->symbol);
            addVars(ins, *proc.value);
            addValue(outs, kControlToken);
            return finish(index);
          }
          case Process::Kind::Wait: {
            int index = newEntry(IftEntry::Type::Wait, &proc);
            addValue(ins, kControlToken);
            addVars(ins, *proc.value);
            addValue(outs, kControlToken);
            return finish(index);
          }
          case Process::Kind::Skip:
            return finish(newEntry(IftEntry::Type::Skip, &proc));
          case Process::Kind::Call: {
            int index = newEntry(IftEntry::Type::Call, &proc);
            addValue(ins, kControlToken);
            addValue(outs, kControlToken);
            const Symbol &callee = table_.symbol(proc.calleeSymbol);
            for (std::size_t i = 0; i < proc.args.size(); ++i) {
                const Expr &arg = *proc.args[i];
                const Declaration::Param &param = callee.params[i];
                if (param.byValue || param.isChannel) {
                    addVars(ins, arg);
                } else {
                    // var scalar / array: both used and (re)defined.
                    addValue(ins, arg.symbol);
                    addValue(outs, arg.symbol);
                }
            }
            return finish(index);
          }
          case Process::Kind::While: {
            int cond = buildCondition(*proc.condition);
            int body = buildProcess(*proc.children[0]);
            int index = newEntry(IftEntry::Type::While, &proc);
            entryRef(index).chains.push_back({cond, body});
            // I = I(C) + (I(P) - O(C)); O(C) is empty for conditions.
            addValuesOf(cond);
            addValuesOf(body);
            return finish(index);
          }
          case Process::Kind::If: {
            std::vector<std::pair<int, int>> pairs;
            for (const Process::Branch &branch : proc.branches) {
                int cond = buildCondition(*branch.condition);
                int body = buildProcess(*branch.body);
                pairs.emplace_back(cond, body);
            }
            int index = newEntry(IftEntry::Type::If, &proc);
            IftEntry &e = entryRef(index);
            for (auto [cond, body] : pairs) {
                e.chains.push_back({cond, body});
                addValuesOf(cond);
                addValuesOf(body);
            }
            return finish(index);
          }
          case Process::Kind::Seq: {
            buildProcDecls(proc.decls);
            std::vector<int> chain;
            for (const ProcessPtr &child : proc.children)
                chain.push_back(buildProcess(*child));
            int index = newEntry(IftEntry::Type::Seq, &proc);
            IftEntry &e = entryRef(index);
            noteLocals(e, proc.decls);
            combineSeq(chain);
            e.chains.push_back(std::move(chain));
            filterLocals(e);
            return finish(index);
          }
          case Process::Kind::Par: {
            buildProcDecls(proc.decls);
            int index;
            if (proc.repl) {
                // Replicated par: the body (children as a seq chain) is
                // one template instance; the index var is local.
                std::vector<int> chain;
                for (const ProcessPtr &child : proc.children)
                    chain.push_back(buildProcess(*child));
                index = newEntry(IftEntry::Type::Par, &proc);
                IftEntry &e = entryRef(index);
                noteLocals(e, proc.decls);
                insertSorted(e.locals, proc.repl->symbol);
                combineSeq(chain);
                e.chains.push_back(std::move(chain));
                addVars(ins, *proc.repl->base);
                addVars(ins, *proc.repl->count);
                filterLocals(e);
                return finish(index);
            }
            std::vector<std::vector<int>> chains;
            for (const ProcessPtr &child : proc.children)
                chains.push_back({buildProcess(*child)});
            index = newEntry(IftEntry::Type::Par, &proc);
            IftEntry &e = entryRef(index);
            noteLocals(e, proc.decls);
            for (const std::vector<int> &chain : chains)
                addValuesOf(chain[0]);
            e.chains = std::move(chains);
            filterLocals(e);
            return finish(index);
          }
        }
        panic("unreachable process kind");
    }

    // --- Fig 4.11: use and definition sets --------------------------------

    /** @p preceding: the chain's entries before @p user, in order. */
    void
    findDef(int symbol, int user, int interface,
            std::span<const int> preceding, std::vector<int> &defs)
    {
        // The most recent definition wins.
        for (auto it = preceding.rbegin(); it != preceding.rend(); ++it) {
            int candidate = *it;
            if (IftValue *out = entryRef(candidate).output(symbol)) {
                insertSorted(out->uses, user);
                insertSorted(defs, candidate);
                return;
            }
        }
        for (IftValue &in : entryRef(interface).inputs) {
            if (in.symbol == symbol) {
                insertSorted(in.uses, user);
                insertSorted(defs, interface);
                return;
            }
        }
        // Locally declared (or use-before-definition): no def entry.
    }

    void
    useAndDef(int interface)
    {
        IftEntry &e = entryRef(interface);
        for (const std::vector<int> &chain : e.chains) {
            for (std::size_t i = 0; i < chain.size(); ++i) {
                int child = chain[i];
                for (IftValue &in : entryRef(child).inputs)
                    findDef(in.symbol, child, interface, {chain.data(), i},
                            in.defs);
                useAndDef(child);
            }
            for (IftValue &out : entryRef(interface).outputs)
                findDef(out.symbol, interface, interface, chain, out.defs);
        }
    }

    // --- Fig 4.12: live-value analysis -------------------------------------

    void
    assignLive(int interface)
    {
        IftEntry &e = entryRef(interface);
        for (const std::vector<int> &chain : e.chains) {
            for (int child : chain) {
                for (IftValue &out : entryRef(child).outputs) {
                    if (out.uses.empty()) {
                        out.live = varFormal(out.symbol);
                    } else if (out.uses.size() == 1 &&
                               out.uses.front() == interface) {
                        // Only exported: loop-carried values are live,
                        // everything else inherits the interface flag.
                        if (e.isLoop() && e.input(out.symbol)) {
                            out.live = true;
                        } else if (const IftValue *up =
                                       e.output(out.symbol)) {
                            out.live = up->live;
                        } else {
                            out.live = varFormal(out.symbol);
                        }
                    } else {
                        out.live = true;
                    }
                }
                assignLive(child);
            }
        }
    }

    const Program &program_;
    const SymbolTable &table_;
    bool liveAnalysis;
    Ift ift;
    /** The I and O symbols of the entry being built, in set order. */
    std::vector<int> ins;
    std::vector<int> outs;
    /** Scratch of addVars: the symbols an expression reads. */
    std::vector<int> vars;
    /** Scratch of combineSeq: what the chain has defined so far. */
    std::vector<int> defined;
};

Ift
Ift::build(const Program &program, const SymbolTable &table,
           bool live_analysis)
{
    return IftBuilder(program, table, live_analysis).run();
}

} // namespace qm::occam

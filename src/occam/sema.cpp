#include "occam/symbols.hpp"

#include <cstdint>
#include <map>

#include "support/diagnostics.hpp"

namespace qm::occam {

int
SymbolTable::add(Symbol symbol)
{
    symbol.id = static_cast<int>(symbols_.size());
    symbols_.push_back(std::move(symbol));
    return symbols_.back().id;
}

long
foldConstant(const Expr &expr, const SymbolTable &table)
{
    // Overflow is a compile error: a constant must fit a machine word.
    auto checked = [&expr](long value) {
        fatalIf(value < INT32_MIN || value > INT32_MAX, "line ", expr.line,
                ": constant expression overflows a 32-bit word");
        return value;
    };
    switch (expr.kind) {
      case Expr::Kind::Number:
      case Expr::Kind::BoolLit:
        return expr.value;
      case Expr::Kind::Var: {
        fatalIf(expr.symbol < 0, "line ", expr.line,
                ": unresolved name in constant expression");
        const Symbol &sym = table.symbol(expr.symbol);
        fatalIf(sym.kind != Symbol::Kind::Constant, "line ", expr.line,
                ": '", expr.name, "' is not a compile-time constant");
        return sym.constValue;
      }
      case Expr::Kind::Unary: {
        long v = foldConstant(*expr.args[0], table);
        if (expr.op == "neg")
            return checked(-v);
        if (expr.op == "not")
            return ~v;
        fatal("line ", expr.line, ": non-constant unary operator");
      }
      case Expr::Kind::Binary: {
        long a = foldConstant(*expr.args[0], table);
        long b = foldConstant(*expr.args[1], table);
        if (expr.op == "+") return checked(a + b);
        if (expr.op == "-") return checked(a - b);
        if (expr.op == "*") return checked(a * b);
        if (expr.op == "/") {
            fatalIf(b == 0, "line ", expr.line, ": division by zero");
            return checked(a / b);
        }
        if (expr.op == "\\") {
            fatalIf(b == 0, "line ", expr.line, ": modulo by zero");
            return a % b;
        }
        fatal("line ", expr.line,
              ": operator '", expr.op, "' not allowed in constants");
      }
      case Expr::Kind::ArrayRef:
        fatal("line ", expr.line, ": array reference in constant");
    }
    panic("unreachable expr kind");
}

namespace {

class Sema
{
  public:
    explicit Sema(Program &program) : program_(program) {}

    SymbolTable
    run()
    {
        scopes.emplace_back();
        declareAll(program_.decls, /*top_level=*/true);
        resolveProcess(*program_.main);
        scopes.pop_back();
        return std::move(table);
    }

  private:
    using Scope = std::map<std::string, int>;

    int
    lookup(const std::string &name, int line)
    {
        // Inside a procedure body, only the procedure's own scopes are
        // visible, plus constants and procedures from enclosing scopes:
        // contexts are self-contained, so free variables cannot flow in
        // (thesis splicing passes everything through channels).
        std::size_t barrier =
            procScopeBase.empty() ? 0 : procScopeBase.back();
        for (std::size_t i = scopes.size(); i-- > 0;) {
            auto found = scopes[i].find(name);
            if (found == scopes[i].end())
                continue;
            if (i < barrier) {
                const Symbol &sym = table.symbol(found->second);
                fatalIf(sym.kind != Symbol::Kind::Constant &&
                            sym.kind != Symbol::Kind::Procedure,
                        "line ", line, ": '", name,
                        "' is outside the procedure; pass it as a "
                        "parameter");
            }
            return found->second;
        }
        fatal("line ", line, ": undeclared name '", name, "'");
    }

    void
    declare(const std::string &name, int id, int line)
    {
        Scope &scope = scopes.back();
        fatalIf(scope.count(name), "line ", line, ": duplicate name '",
                name, "' in this scope");
        scope[name] = id;
    }

    void
    declareAll(std::vector<Declaration> &decls, bool top_level)
    {
        for (Declaration &decl : decls) {
            Symbol sym;
            sym.name = decl.name;
            sym.line = decl.line;
            sym.topLevel = top_level;
            switch (decl.kind) {
              case Declaration::Kind::Scalar:
                sym.kind = Symbol::Kind::Scalar;
                break;
              case Declaration::Kind::Array:
                sym.kind = Symbol::Kind::Array;
                resolveExpr(*decl.arraySize);
                sym.arraySize = foldConstant(*decl.arraySize, table);
                fatalIf(sym.arraySize <= 0, "line ", decl.line,
                        ": array size must be positive");
                break;
              case Declaration::Kind::Channel:
                sym.kind = Symbol::Kind::Channel;
                break;
              case Declaration::Kind::Constant:
                sym.kind = Symbol::Kind::Constant;
                resolveExpr(*decl.constValue);
                sym.constValue = foldConstant(*decl.constValue, table);
                break;
              case Declaration::Kind::Procedure:
                sym.kind = Symbol::Kind::Procedure;
                sym.params = decl.params;
                sym.procBody = decl.procBody.get();
                break;
            }
            decl.symbol = table.add(std::move(sym));
            declare(decl.name, decl.symbol, decl.line);

            if (decl.kind == Declaration::Kind::Procedure) {
                // Parameters live in the proc body's scope; the body may
                // reference only its parameters and global constants /
                // procedures (thesis-style self-contained contexts).
                scopes.emplace_back();
                for (Declaration::Param &param : decl.params) {
                    Symbol psym;
                    psym.kind = param.isArray
                                    ? Symbol::Kind::Array
                                    : param.isChannel
                                          ? Symbol::Kind::Channel
                                          : Symbol::Kind::Scalar;
                    psym.name = param.name;
                    psym.line = decl.line;
                    psym.isParam = true;
                    psym.paramByValue = param.byValue;
                    param.symbol = table.add(std::move(psym));
                    declare(param.name, param.symbol, decl.line);
                    table.symbol(decl.symbol)
                        .params[static_cast<size_t>(
                            &param - decl.params.data())]
                        .symbol = param.symbol;
                }
                procScopeBase.push_back(scopes.size() - 1);
                resolveProcess(*decl.procBody);
                procScopeBase.pop_back();
                scopes.pop_back();
            }
        }
    }

    void
    resolveExpr(Expr &expr)
    {
        switch (expr.kind) {
          case Expr::Kind::Number:
          case Expr::Kind::BoolLit:
            return;
          case Expr::Kind::Var: {
            expr.symbol = lookup(expr.name, expr.line);
            const Symbol &sym = table.symbol(expr.symbol);
            fatalIf(sym.kind == Symbol::Kind::Procedure, "line ",
                    expr.line, ": procedure '", expr.name,
                    "' used as a value");
            fatalIf(sym.kind == Symbol::Kind::Array, "line ", expr.line,
                    ": array '", expr.name,
                    "' used without a subscript");
            return;
          }
          case Expr::Kind::ArrayRef: {
            expr.symbol = lookup(expr.name, expr.line);
            fatalIf(table.symbol(expr.symbol).kind !=
                        Symbol::Kind::Array,
                    "line ", expr.line, ": '", expr.name,
                    "' is not an array");
            resolveExpr(*expr.args[0]);
            return;
          }
          case Expr::Kind::Unary:
            resolveExpr(*expr.args[0]);
            return;
          case Expr::Kind::Binary:
            resolveExpr(*expr.args[0]);
            resolveExpr(*expr.args[1]);
            return;
        }
    }

    void
    requireChannel(Expr &expr)
    {
        fatalIf(expr.kind != Expr::Kind::Var, "line ", expr.line,
                ": channel operand must be a channel name");
        expr.symbol = lookup(expr.name, expr.line);
        fatalIf(table.symbol(expr.symbol).kind != Symbol::Kind::Channel,
                "line ", expr.line, ": '", expr.name,
                "' is not a channel");
    }

    void
    requireAssignable(Expr &expr)
    {
        resolveExpr(expr);
        if (expr.kind == Expr::Kind::Var) {
            const Symbol &sym = table.symbol(expr.symbol);
            fatalIf(sym.kind == Symbol::Kind::Constant, "line ",
                    expr.line, ": cannot assign to constant '",
                    expr.name, "'");
            fatalIf(sym.kind == Symbol::Kind::Channel, "line ",
                    expr.line, ": cannot assign to channel '",
                    expr.name, "'");
            return;
        }
        fatalIf(expr.kind != Expr::Kind::ArrayRef, "line ", expr.line,
                ": assignment target must be a variable or element");
    }

    void
    resolveProcess(Process &proc)
    {
        switch (proc.kind) {
          case Process::Kind::Seq:
          case Process::Kind::Par: {
            scopes.emplace_back();
            declareAll(proc.decls, /*top_level=*/false);
            if (proc.repl) {
                // Replicated par: the index variable scopes the body.
                Symbol sym;
                sym.kind = Symbol::Kind::Scalar;
                sym.name = proc.repl->var;
                sym.line = proc.line;
                proc.repl->symbol = table.add(std::move(sym));
                declare(proc.repl->var, proc.repl->symbol, proc.line);
                resolveExpr(*proc.repl->base);
                resolveExpr(*proc.repl->count);
            }
            for (ProcessPtr &child : proc.children)
                resolveProcess(*child);
            scopes.pop_back();
            return;
          }
          case Process::Kind::If:
            for (Process::Branch &branch : proc.branches) {
                resolveExpr(*branch.condition);
                resolveProcess(*branch.body);
            }
            return;
          case Process::Kind::While:
            resolveExpr(*proc.condition);
            resolveProcess(*proc.children[0]);
            return;
          case Process::Kind::Assign:
            requireAssignable(*proc.target);
            resolveExpr(*proc.value);
            return;
          case Process::Kind::Input:
            requireChannel(*proc.channel);
            requireAssignable(*proc.target);
            return;
          case Process::Kind::Output:
            requireChannel(*proc.channel);
            resolveExpr(*proc.value);
            return;
          case Process::Kind::Skip:
            return;
          case Process::Kind::Wait:
            resolveExpr(*proc.value);
            return;
          case Process::Kind::Call: {
            proc.calleeSymbol = lookup(proc.callee, proc.line);
            const Symbol &sym = table.symbol(proc.calleeSymbol);
            fatalIf(sym.kind != Symbol::Kind::Procedure, "line ",
                    proc.line, ": '", proc.callee,
                    "' is not a procedure");
            fatalIf(sym.params.size() != proc.args.size(), "line ",
                    proc.line, ": '", proc.callee, "' expects ",
                    sym.params.size(), " arguments, got ",
                    proc.args.size());
            for (std::size_t i = 0; i < proc.args.size(); ++i) {
                Expr &arg = *proc.args[i];
                const Declaration::Param &param = sym.params[i];
                if (param.isChannel) {
                    fatalIf(arg.kind != Expr::Kind::Var, "line ",
                            arg.line,
                            ": channel argument must be a channel "
                            "name");
                    arg.symbol = lookup(arg.name, arg.line);
                    fatalIf(table.symbol(arg.symbol).kind !=
                                Symbol::Kind::Channel,
                            "line ", arg.line, ": '", arg.name,
                            "' is not a channel");
                } else if (param.isArray) {
                    // Array argument: pass the bare array name.
                    fatalIf(arg.kind != Expr::Kind::Var &&
                                arg.kind != Expr::Kind::ArrayRef,
                            "line ", arg.line,
                            ": array argument must be an array name");
                    arg.symbol = lookup(arg.name, arg.line);
                    fatalIf(table.symbol(arg.symbol).kind !=
                                Symbol::Kind::Array,
                            "line ", arg.line, ": '", arg.name,
                            "' is not an array");
                    arg.kind = Expr::Kind::Var;  // base-address value
                } else if (!param.byValue) {
                    // var scalar parameter: needs an assignable scalar.
                    fatalIf(arg.kind != Expr::Kind::Var, "line ",
                            arg.line,
                            ": var argument must be a scalar variable");
                    requireAssignable(arg);
                } else {
                    resolveExpr(arg);
                }
            }
            return;
          }
        }
    }

    Program &program_;
    SymbolTable table;
    std::vector<Scope> scopes;
    std::vector<std::size_t> procScopeBase;
};

} // namespace

SymbolTable
analyze(Program &program)
{
    return Sema(program).run();
}

} // namespace qm::occam

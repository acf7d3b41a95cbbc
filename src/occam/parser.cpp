#include "occam/parser.hpp"

#include <algorithm>

#include "occam/lexer.hpp"
#include "support/diagnostics.hpp"

namespace qm::occam {

namespace {

/**
 * The deepest program the parser accepts, in levels of the tree it
 * builds. A block below the program's own is one level, so a `seq` or
 * `par` is one, an `if` or `while` two (the construct and its block)
 * and a replicated `seq` four (it desugars to a `while` between two
 * `seq`s). An expression adds its depth: a leaf is one level and each
 * operator, parenthesis and subscript one more, so an `a + b + ...`
 * chain is as deep as it has terms. Every later phase recurses over
 * these trees, so deeper input is refused here, with its line, instead
 * of overflowing the host stack.
 */
constexpr int kMaxNesting = 512;

class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens) : toks(std::move(tokens)) {}

    Program
    parseProgram()
    {
        Program program;
        auto block = parseBlock();
        program.decls = std::move(block->decls);
        if (block->children.size() == 1) {
            program.main = std::move(block->children[0]);
        } else {
            program.main = std::move(block);
        }
        expect(Tok::EndOfFile);
        return program;
    }

  private:
    const Token &peek(int ahead = 0) const
    {
        std::size_t i = pos + static_cast<std::size_t>(ahead);
        return i < toks.size() ? toks[i] : toks.back();
    }

    const Token &take() { return toks[pos++]; }

    bool
    accept(Tok kind)
    {
        if (peek().kind == kind) {
            ++pos;
            return true;
        }
        return false;
    }

    const Token &
    expect(Tok kind)
    {
        if (peek().kind != kind)
            fatal("line ", peek().line, ":", peek().col, ": expected ",
                  tokName(kind), ", found ", tokName(peek().kind));
        return take();
    }

    void
    endLine()
    {
        expect(Tok::Newline);
    }

    // ----- Nesting (kMaxNesting) -----------------------------------------

    /** Refuse, at @p tok, a nesting @p levels deep past the bound. */
    static void
    checkDepth(const Token &tok, int levels)
    {
        fatalIf(levels > kMaxNesting, "line ", tok.line, ":", tok.col,
                ": nested deeper than ", kMaxNesting, " levels");
    }

    /** Holds one level open, at @p tok, while it is in scope. */
    class Level
    {
      public:
        Level(Parser &parser, const Token &tok) : parser_(parser)
        {
            checkDepth(tok, parser_.depth + 1);
            ++parser_.depth;
        }
        ~Level() { --parser_.depth; }
        Level(const Level &) = delete;
        Level &operator=(const Level &) = delete;

      private:
        Parser &parser_;
    };

    /** An indented block (Indent, block, Dedent), one level deeper. */
    ProcessPtr
    parseIndented()
    {
        Level level(*this, expect(Tok::Indent));
        ProcessPtr block = parseBlock();
        expect(Tok::Dedent);
        return block;
    }

    // ----- Expressions ---------------------------------------------------

    /** A leaf expression at @p tok: one level deep. */
    void
    leaf(const Token &tok)
    {
        height = 1;
        checkDepth(tok, depth + height);
    }

    /**
     * What @p parse reads below @p tok (a `(`, `[`, `not` or unary `-`
     * already taken): one level deeper than it.
     */
    ExprPtr
    nested(const Token &tok, ExprPtr (Parser::*parse)())
    {
        Level level(*this, tok);
        ExprPtr inner = (this->*parse)();
        ++height;
        return inner;
    }

    /**
     * `lhs op rhs`, the operator next and the right operand read by
     * @p parse: one level deeper than the deeper operand.
     */
    ExprPtr
    binary(std::string op, ExprPtr lhs, ExprPtr (Parser::*parse)())
    {
        const Token &tok = take();
        int lhs_height = height;
        ExprPtr rhs = (this->*parse)();
        height = std::max(lhs_height, height) + 1;
        checkDepth(tok, depth + height);
        return makeBinary(std::move(op), std::move(lhs), std::move(rhs),
                          tok.line);
    }

    /** `name[index]`, the `[` next: one level deeper than the index. */
    ExprPtr
    subscript(const Token &name)
    {
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::ArrayRef;
        e->name = name.text;
        e->line = name.line;
        e->args.push_back(nested(take(), &Parser::parseExpr));
        expect(Tok::RBracket);
        return e;
    }

    ExprPtr
    parseExpr()
    {
        ExprPtr lhs = parseAndTerm();
        while (peek().kind == Tok::KwOr)
            lhs = binary("or", std::move(lhs), &Parser::parseAndTerm);
        return lhs;
    }

    ExprPtr
    parseAndTerm()
    {
        ExprPtr lhs = parseNotTerm();
        while (peek().kind == Tok::KwAnd)
            lhs = binary("and", std::move(lhs), &Parser::parseNotTerm);
        return lhs;
    }

    ExprPtr
    parseNotTerm()
    {
        if (peek().kind == Tok::KwNot) {
            const Token &tok = take();
            return makeUnary("not", nested(tok, &Parser::parseNotTerm),
                             tok.line);
        }
        return parseRelation();
    }

    ExprPtr
    parseRelation()
    {
        ExprPtr lhs = parseSum();
        std::string op;
        switch (peek().kind) {
          case Tok::Eq: op = "eq"; break;
          case Tok::Neq: op = "ne"; break;
          case Tok::Lt: op = "lt"; break;
          case Tok::Gt: op = "gt"; break;
          case Tok::Le: op = "le"; break;
          case Tok::Ge: op = "ge"; break;
          default: return lhs;
        }
        return binary(op, std::move(lhs), &Parser::parseSum);
    }

    ExprPtr
    parseSum()
    {
        ExprPtr lhs = parseTerm();
        for (;;) {
            if (peek().kind == Tok::Plus)
                lhs = binary("+", std::move(lhs), &Parser::parseTerm);
            else if (peek().kind == Tok::Minus)
                lhs = binary("-", std::move(lhs), &Parser::parseTerm);
            else
                return lhs;
        }
    }

    ExprPtr
    parseTerm()
    {
        ExprPtr lhs = parseFactor();
        for (;;) {
            std::string op;
            if (peek().kind == Tok::Star)
                op = "*";
            else if (peek().kind == Tok::Slash)
                op = "/";
            else if (peek().kind == Tok::Backslash)
                op = "\\";
            else
                return lhs;
            lhs = binary(op, std::move(lhs), &Parser::parseFactor);
        }
    }

    ExprPtr
    parseFactor()
    {
        const Token &tok = peek();
        switch (tok.kind) {
          case Tok::Minus: {
            take();
            return makeUnary("neg", nested(tok, &Parser::parseFactor),
                             tok.line);
          }
          case Tok::Number: {
            take();
            leaf(tok);
            return makeNumber(tok.value, tok.line);
          }
          case Tok::KwTrue: {
            take();
            leaf(tok);
            auto e = makeNumber(-1, tok.line);  // all-ones Boolean
            e->kind = Expr::Kind::BoolLit;
            return e;
          }
          case Tok::KwFalse: {
            take();
            leaf(tok);
            auto e = makeNumber(0, tok.line);
            e->kind = Expr::Kind::BoolLit;
            return e;
          }
          case Tok::LParen: {
            take();
            ExprPtr inner = nested(tok, &Parser::parseExpr);
            expect(Tok::RParen);
            return inner;
          }
          case Tok::Name: {
            take();
            if (peek().kind == Tok::LBracket)
                return subscript(tok);
            leaf(tok);
            return makeVar(tok.text, tok.line);
          }
          default:
            fatal("line ", tok.line, ":", tok.col,
                  ": expected expression, found ", tokName(tok.kind));
        }
    }

    // ----- Declarations --------------------------------------------------

    bool
    atDeclaration() const
    {
        switch (peek().kind) {
          case Tok::KwVar:
          case Tok::KwChan:
          case Tok::KwDef:
          case Tok::KwProc:
            return true;
          default:
            return false;
        }
    }

    void
    parseDeclaration(std::vector<Declaration> &decls)
    {
        const Token &kw = take();
        switch (kw.kind) {
          case Tok::KwVar:
          case Tok::KwChan: {
            do {
                const Token &name = expect(Tok::Name);
                Declaration d;
                d.name = name.text;
                d.line = name.line;
                if (kw.kind == Tok::KwChan) {
                    d.kind = Declaration::Kind::Channel;
                } else if (accept(Tok::LBracket)) {
                    d.kind = Declaration::Kind::Array;
                    d.arraySize = parseExpr();
                    expect(Tok::RBracket);
                } else {
                    d.kind = Declaration::Kind::Scalar;
                }
                decls.push_back(std::move(d));
            } while (accept(Tok::Comma));
            accept(Tok::Colon);
            endLine();
            return;
          }
          case Tok::KwDef: {
            do {
                const Token &name = expect(Tok::Name);
                expect(Tok::Eq);
                Declaration d;
                d.kind = Declaration::Kind::Constant;
                d.name = name.text;
                d.line = name.line;
                d.constValue = parseExpr();
                decls.push_back(std::move(d));
            } while (accept(Tok::Comma));
            accept(Tok::Colon);
            endLine();
            return;
          }
          case Tok::KwProc: {
            const Token &name = expect(Tok::Name);
            Declaration d;
            d.kind = Declaration::Kind::Procedure;
            d.name = name.text;
            d.line = name.line;
            expect(Tok::LParen);
            if (peek().kind != Tok::RParen) {
                do {
                    Declaration::Param param;
                    if (accept(Tok::KwValue))
                        param.byValue = true;
                    else if (accept(Tok::KwChan))
                        param.isChannel = true;
                    else
                        accept(Tok::KwVar);
                    param.name = expect(Tok::Name).text;
                    if (accept(Tok::LBracket)) {
                        expect(Tok::RBracket);
                        param.isArray = true;
                        fatalIf(param.byValue, "line ", name.line, ":",
                                name.col,
                                ": array parameters must be var");
                    }
                    d.params.push_back(std::move(param));
                } while (accept(Tok::Comma));
            }
            expect(Tok::RParen);
            accept(Tok::Eq);
            endLine();
            d.procBody = parseIndented();
            // Optional terminating ':' line.
            if (peek().kind == Tok::Colon) {
                take();
                endLine();
            }
            decls.push_back(std::move(d));
            return;
          }
          default:
            panic("not a declaration keyword");
        }
    }

    // ----- Processes -----------------------------------------------------

    /** Parse a block of declarations and processes as an implicit seq. */
    ProcessPtr
    parseBlock()
    {
        auto block = std::make_unique<Process>();
        block->kind = Process::Kind::Seq;
        block->line = peek().line;
        while (peek().kind != Tok::Dedent &&
               peek().kind != Tok::EndOfFile) {
            if (atDeclaration())
                parseDeclaration(block->decls);
            else
                block->children.push_back(parseProcess());
        }
        return block;
    }

    std::optional<Replicator>
    parseReplicator()
    {
        if (peek().kind != Tok::Name || peek(1).kind != Tok::Eq)
            return std::nullopt;
        Replicator repl;
        repl.var = take().text;
        expect(Tok::Eq);
        expect(Tok::LBracket);
        repl.base = parseExpr();
        expect(Tok::KwFor);
        repl.count = parseExpr();
        expect(Tok::RBracket);
        return repl;
    }

    ProcessPtr
    parseProcess()
    {
        const Token &tok = peek();
        switch (tok.kind) {
          case Tok::KwSeq: {
            take();
            auto repl = parseReplicator();
            endLine();
            if (!repl)
                return parseIndented();
            Level outer(*this, tok), loop(*this, tok), step(*this, tok);
            ProcessPtr body = parseIndented();
            return desugarReplicatedSeq(std::move(*repl),
                                        std::move(body), tok.line);
          }
          case Tok::KwPar: {
            take();
            auto repl = parseReplicator();
            endLine();
            // Each child line/construct is one parallel component; a
            // replicated par's single child is the body template.
            ProcessPtr body = parseIndented();
            auto par = std::make_unique<Process>();
            par->kind = Process::Kind::Par;
            par->line = tok.line;
            par->repl = std::move(repl);
            par->decls = std::move(body->decls);
            par->children = std::move(body->children);
            return par;
          }
          case Tok::KwIf: {
            take();
            Level level(*this, tok);
            endLine();
            expect(Tok::Indent);
            auto node = std::make_unique<Process>();
            node->kind = Process::Kind::If;
            node->line = tok.line;
            while (peek().kind != Tok::Dedent) {
                Process::Branch branch;
                branch.condition = parseExpr();
                endLine();
                branch.body = parseIndented();
                node->branches.push_back(std::move(branch));
            }
            expect(Tok::Dedent);
            return node;
          }
          case Tok::KwWhile: {
            take();
            Level level(*this, tok);
            auto node = std::make_unique<Process>();
            node->kind = Process::Kind::While;
            node->line = tok.line;
            node->condition = parseExpr();
            endLine();
            node->children.push_back(parseIndented());
            return node;
          }
          case Tok::KwSkip: {
            take();
            endLine();
            auto node = std::make_unique<Process>();
            node->kind = Process::Kind::Skip;
            node->line = tok.line;
            return node;
          }
          case Tok::KwWait: {
            // "wait now after e" or "wait e".
            take();
            if (accept(Tok::KwNow))
                expect(Tok::KwAfter);
            auto node = std::make_unique<Process>();
            node->kind = Process::Kind::Wait;
            node->line = tok.line;
            node->value = parseExpr();
            endLine();
            return node;
          }
          case Tok::Name:
            return parseNameInitiated();
          default:
            fatal("line ", tok.line, ":", tok.col,
                  ": expected a process, found ", tokName(tok.kind));
        }
    }

    ProcessPtr
    parseNameInitiated()
    {
        const Token &name = take();
        auto node = std::make_unique<Process>();
        node->line = name.line;

        if (accept(Tok::LParen)) {
            node->kind = Process::Kind::Call;
            node->callee = name.text;
            if (peek().kind != Tok::RParen) {
                do {
                    node->args.push_back(parseExpr());
                } while (accept(Tok::Comma));
            }
            expect(Tok::RParen);
            endLine();
            return node;
        }

        // Build the target lvalue (scalar or array element).
        ExprPtr lhs = peek().kind == Tok::LBracket
                          ? subscript(name)
                          : makeVar(name.text, name.line);

        if (accept(Tok::Assign)) {
            node->kind = Process::Kind::Assign;
            node->target = std::move(lhs);
            node->value = parseExpr();
            endLine();
            return node;
        }
        if (accept(Tok::Query)) {
            node->kind = Process::Kind::Input;
            node->channel = std::move(lhs);
            // Input target: scalar or array element.
            const Token &dst = expect(Tok::Name);
            node->target = peek().kind == Tok::LBracket
                               ? subscript(dst)
                               : makeVar(dst.text, dst.line);
            endLine();
            return node;
        }
        if (accept(Tok::Bang)) {
            node->kind = Process::Kind::Output;
            node->channel = std::move(lhs);
            node->value = parseExpr();
            endLine();
            return node;
        }
        fatal("line ", name.line, ":", name.col,
              ": expected ':=', '?', '!', or '(' after '", name.text,
              "'");
    }

    /**
     * seq i = [base for count] P  desugars to
     *   var i, $end:
     *   seq
     *     i := base
     *     $end := base + count
     *     while i < $end
     *       seq
     *         P
     *         i := i + 1
     */
    ProcessPtr
    desugarReplicatedSeq(Replicator repl, ProcessPtr body, int line)
    {
        std::string end_name = "$rep" + std::to_string(replCounter++);

        auto outer = std::make_unique<Process>();
        outer->kind = Process::Kind::Seq;
        outer->line = line;
        Declaration di;
        di.kind = Declaration::Kind::Scalar;
        di.name = repl.var;
        di.line = line;
        outer->decls.push_back(std::move(di));
        Declaration de;
        de.kind = Declaration::Kind::Scalar;
        de.name = end_name;
        de.line = line;
        outer->decls.push_back(std::move(de));

        auto assign_i = std::make_unique<Process>();
        assign_i->kind = Process::Kind::Assign;
        assign_i->line = line;
        assign_i->target = makeVar(repl.var, line);
        assign_i->value = repl.base->clone();

        auto assign_end = std::make_unique<Process>();
        assign_end->kind = Process::Kind::Assign;
        assign_end->line = line;
        assign_end->target = makeVar(end_name, line);
        assign_end->value = makeBinary("+", repl.base->clone(),
                                       repl.count->clone(), line);

        auto inc = std::make_unique<Process>();
        inc->kind = Process::Kind::Assign;
        inc->line = line;
        inc->target = makeVar(repl.var, line);
        inc->value = makeBinary("+", makeVar(repl.var, line),
                                makeNumber(1, line), line);

        auto loop_body = std::make_unique<Process>();
        loop_body->kind = Process::Kind::Seq;
        loop_body->line = line;
        loop_body->children.push_back(std::move(body));
        loop_body->children.push_back(std::move(inc));

        auto loop = std::make_unique<Process>();
        loop->kind = Process::Kind::While;
        loop->line = line;
        loop->condition = makeBinary("lt", makeVar(repl.var, line),
                                     makeVar(end_name, line), line);
        loop->children.push_back(std::move(loop_body));

        outer->children.push_back(std::move(assign_i));
        outer->children.push_back(std::move(assign_end));
        outer->children.push_back(std::move(loop));
        return outer;
    }

    std::vector<Token> toks;
    std::size_t pos = 0;
    int replCounter = 0;
    int depth = 0;   ///< Levels open around the parse point.
    int height = 0;  ///< Levels of the expression parsed last.
};

} // namespace

Program
parse(const std::string &source)
{
    Parser parser(lex(source));
    return parser.parseProgram();
}

} // namespace qm::occam

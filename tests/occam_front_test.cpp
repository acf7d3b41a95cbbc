/**
 * @file
 * Tests for the OCCAM front end: lexer, parser, semantic analysis, and
 * the Intermediate Form Table analyses (thesis sections 4.3-4.4).
 */
#include <string>

#include <gtest/gtest.h>

#include "occam/ift.hpp"
#include "occam/lexer.hpp"
#include "occam/parser.hpp"
#include "occam/symbols.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace qm;
using namespace qm::occam;

TEST(Lexer, TokenizesBasicLine)
{
    auto toks = lex("x := a + 41\n");
    ASSERT_GE(toks.size(), 6u);
    EXPECT_EQ(toks[0].kind, Tok::Name);
    EXPECT_EQ(toks[1].kind, Tok::Assign);
    EXPECT_EQ(toks[2].kind, Tok::Name);
    EXPECT_EQ(toks[3].kind, Tok::Plus);
    EXPECT_EQ(toks[4].kind, Tok::Number);
    EXPECT_EQ(toks[4].value, 41);
    EXPECT_EQ(toks[5].kind, Tok::Newline);
}

TEST(Lexer, IndentationProducesIndentDedent)
{
    auto toks = lex(
        "seq\n"
        "  skip\n"
        "  skip\n");
    std::vector<Tok> kinds;
    for (const auto &t : toks)
        kinds.push_back(t.kind);
    std::vector<Tok> expected = {
        Tok::KwSeq, Tok::Newline, Tok::Indent, Tok::KwSkip,
        Tok::Newline, Tok::KwSkip, Tok::Newline, Tok::Dedent,
        Tok::EndOfFile};
    EXPECT_EQ(kinds, expected);
}

TEST(Lexer, CommentsAndBlankLinesIgnored)
{
    auto toks = lex(
        "-- header comment\n"
        "\n"
        "skip -- trailing\n");
    EXPECT_EQ(toks[0].kind, Tok::KwSkip);
    EXPECT_EQ(toks[1].kind, Tok::Newline);
}

TEST(Lexer, TwoCharOperators)
{
    auto toks = lex("a <> b <= c >= d := e\n");
    EXPECT_EQ(toks[1].kind, Tok::Neq);
    EXPECT_EQ(toks[3].kind, Tok::Le);
    EXPECT_EQ(toks[5].kind, Tok::Ge);
    EXPECT_EQ(toks[7].kind, Tok::Assign);
}

TEST(Lexer, TracksColumns)
{
    auto toks = lex("x := a + 41\n");
    ASSERT_GE(toks.size(), 6u);
    EXPECT_EQ(toks[0].col, 1);   // x
    EXPECT_EQ(toks[1].col, 3);   // :=
    EXPECT_EQ(toks[2].col, 6);   // a
    EXPECT_EQ(toks[3].col, 8);   // +
    EXPECT_EQ(toks[4].col, 10);  // 41
    for (const auto &t : toks)
        EXPECT_EQ(t.line, t.kind == Tok::EndOfFile ? 2 : 1);
}

TEST(Lexer, IndentedTokensStartPastTheIndentation)
{
    auto toks = lex(
        "seq\n"
        "  left := 1\n");
    // seq(1:1) newline indent left(2:3) := 1 newline dedent eof
    ASSERT_GE(toks.size(), 4u);
    EXPECT_EQ(toks[0].col, 1);
    EXPECT_EQ(toks[3].kind, Tok::Name);
    EXPECT_EQ(toks[3].line, 2);
    EXPECT_EQ(toks[3].col, 3);
}

/** The FatalError message produced by @p fn, or "" if it didn't throw. */
template <typename Fn>
std::string
diagnosticOf(Fn fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Lexer, InconsistentIndentIsFatal)
{
    EXPECT_THROW(lex("seq\n    skip\n  skip\n"), FatalError);
    std::string msg =
        diagnosticOf([] { lex("seq\n    skip\n  skip\n"); });
    EXPECT_NE(msg.find("line 3:3"), std::string::npos) << msg;
}

TEST(Lexer, UnexpectedCharacterReportsLineAndColumn)
{
    std::string msg = diagnosticOf([] { lex("x := a ; b\n"); });
    EXPECT_NE(msg.find("line 1:8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unexpected character ';'"), std::string::npos)
        << msg;
}

TEST(Lexer, LiteralsAreBoundedToAWord)
{
    std::vector<Token> toks = lex("x := 2147483647\n");
    EXPECT_EQ(toks[2].value, 2147483647);
    for (const char *src : {"x := 2147483648\n",
                            "x := 12345678901234567890123\n"}) {
        std::string msg = diagnosticOf([src] { lex(src); });
        EXPECT_NE(msg.find("line 1:6"), std::string::npos) << msg;
        EXPECT_NE(msg.find("exceeds 2147483647"), std::string::npos)
            << msg;
    }
}

TEST(Parser, AssignAndExpressions)
{
    Program p = parse("x := (a + b) * 3\n");
    ASSERT_EQ(p.main->kind, Process::Kind::Assign);
    EXPECT_EQ(p.main->value->op, "*");
}

TEST(Parser, SeqParStructure)
{
    Program p = parse(
        "seq\n"
        "  x := 1\n"
        "  par\n"
        "    y := 2\n"
        "    z := 3\n");
    ASSERT_EQ(p.main->kind, Process::Kind::Seq);
    ASSERT_EQ(p.main->children.size(), 2u);
    const Process &par = *p.main->children[1];
    EXPECT_EQ(par.kind, Process::Kind::Par);
    EXPECT_EQ(par.children.size(), 2u);
}

TEST(Parser, IfGuards)
{
    Program p = parse(
        "if\n"
        "  x > 0\n"
        "    y := 1\n"
        "  x <= 0\n"
        "    y := 2\n");
    ASSERT_EQ(p.main->kind, Process::Kind::If);
    ASSERT_EQ(p.main->branches.size(), 2u);
    EXPECT_EQ(p.main->branches[0].condition->op, "gt");
}

TEST(Parser, WhileLoop)
{
    Program p = parse(
        "while i < 10\n"
        "  i := i + 1\n");
    ASSERT_EQ(p.main->kind, Process::Kind::While);
    EXPECT_EQ(p.main->condition->op, "lt");
}

TEST(Parser, ChannelOps)
{
    Program p = parse(
        "seq\n"
        "  c ! x + 1\n"
        "  c ? y\n"
        "  c ? v[2]\n");
    EXPECT_EQ(p.main->children[0]->kind, Process::Kind::Output);
    EXPECT_EQ(p.main->children[1]->kind, Process::Kind::Input);
    EXPECT_EQ(p.main->children[2]->target->kind, Expr::Kind::ArrayRef);
}

TEST(Parser, Declarations)
{
    Program p = parse(
        "var x, y:\n"
        "var v[100]:\n"
        "chan c:\n"
        "def n = 8:\n"
        "skip\n");
    ASSERT_EQ(p.decls.size(), 5u);
    EXPECT_EQ(p.decls[0].kind, Declaration::Kind::Scalar);
    EXPECT_EQ(p.decls[2].kind, Declaration::Kind::Array);
    EXPECT_EQ(p.decls[3].kind, Declaration::Kind::Channel);
    EXPECT_EQ(p.decls[4].kind, Declaration::Kind::Constant);
}

TEST(Parser, ProcedureDeclaration)
{
    Program p = parse(
        "proc add (value a, value b, var r) =\n"
        "  r := a + b\n"
        ":\n"
        "add (1, 2, x)\n");
    ASSERT_EQ(p.decls.size(), 1u);
    const Declaration &d = p.decls[0];
    EXPECT_EQ(d.kind, Declaration::Kind::Procedure);
    ASSERT_EQ(d.params.size(), 3u);
    EXPECT_TRUE(d.params[0].byValue);
    EXPECT_FALSE(d.params[2].byValue);
    EXPECT_EQ(p.main->kind, Process::Kind::Call);
    EXPECT_EQ(p.main->args.size(), 3u);
}

TEST(Parser, ReplicatedSeqDesugarsToWhile)
{
    Program p = parse(
        "seq i = [1 for 10]\n"
        "  sum := sum + i\n");
    // Desugars to: i := 1; $end := 11; while i < $end ...
    ASSERT_EQ(p.main->kind, Process::Kind::Seq);
    ASSERT_EQ(p.main->children.size(), 3u);
    EXPECT_EQ(p.main->children[2]->kind, Process::Kind::While);
    EXPECT_EQ(p.main->decls.size(), 2u);  // i and $rep0
}

TEST(Parser, ReplicatedParKeepsReplicator)
{
    Program p = parse(
        "par i = [0 for 4]\n"
        "  v[i] := i\n");
    ASSERT_EQ(p.main->kind, Process::Kind::Par);
    ASSERT_TRUE(p.main->repl.has_value());
    EXPECT_EQ(p.main->repl->var, "i");
}

TEST(Parser, WaitForms)
{
    Program a = parse("wait now after t + 1\n");
    EXPECT_EQ(a.main->kind, Process::Kind::Wait);
    Program b = parse("wait 100\n");
    EXPECT_EQ(b.main->kind, Process::Kind::Wait);
}

TEST(Parser, Errors)
{
    EXPECT_THROW(parse("x := \n"), FatalError);
    EXPECT_THROW(parse("if x\n"), FatalError);
    EXPECT_THROW(parse("seq extra\n  skip\n"), FatalError);
}

TEST(Parser, ErrorsCarryLineAndColumn)
{
    // The dangling ':=' fails at the newline (just past the rhs).
    std::string msg = diagnosticOf([] { parse("x := \n"); });
    EXPECT_NE(msg.find("line 1:6"), std::string::npos) << msg;
    // The stray name after 'seq' is the offending token.
    msg = diagnosticOf([] { parse("seq extra\n  skip\n"); });
    EXPECT_NE(msg.find("line 1:5"), std::string::npos) << msg;
    // A second-line error points into that line, not the file start.
    msg = diagnosticOf([] { parse("seq\n  x + 1\n"); });
    EXPECT_NE(msg.find("line 2:3"), std::string::npos) << msg;
}

TEST(Parser, DiagnosticsNameTheExpectedAndFoundTokens)
{
    // The exact text of each diagnostic that names token kinds.
    const std::pair<const char *, const char *> cases[] = {
        {"var x:\nx := 1 2\n", "line 2:8: expected newline, found number"},
        {"var x:\nx := )\n", "line 2:6: expected expression, found ')'"},
        {"var x:\nx := (1\n", "line 2:8: expected ')', found newline"},
        {"proc 1 () =\n  skip\n", "line 1:6: expected name, found number"},
        {"seq\n  := 1\n", "line 2:3: expected a process, found ':='"},
        {"var a[2]:\na[1 := 2\n", "line 2:5: expected ']', found ':='"},
        {"par i = [0 1]\n  skip\n",
         "line 1:12: expected keyword, found number"},
        {"while\n", "line 1:6: expected expression, found newline"},
    };
    for (auto [source, text] : cases)
        EXPECT_EQ(diagnosticOf([&] { parse(source); }),
                  std::string("fatal: ") + text)
            << source;
}

/**
 * One shape of nesting: @p program(n) nests it n times, @p fits is the
 * most that fits the parser's 512 levels (kMaxNesting in parser.cpp),
 * and @p line is where it refuses one more. An expression's leaf is a
 * level of its own, so 511 parentheses (or `not`s, minuses or
 * subscripts) fit around one, and a chain is as deep as it has terms;
 * a `seq` is one level, a `while` two and a replicated `seq` four.
 */
struct NestShape
{
    const char *name;
    std::string (*program)(int n);
    int fits;
    int line;
};

std::string
repeated(const std::string &text, int times)
{
    std::string out;
    for (int i = 0; i < times; ++i)
        out += text;
    return out;
}

/** @p n lines of @p head, each indented under the last, then skip. */
std::string
stacked(const std::string &head, int n)
{
    std::string src;
    for (int i = 0; i < n; ++i)
        src += repeated("  ", i) + head + "\n";
    return src + repeated("  ", n) + "skip\n";
}

const NestShape kNestShapes[] = {
    {"parentheses",
     [](int n) {
         return "r := " + repeated("(", n) + "1" + repeated(")", n) + "\n";
     },
     511, 1},
    {"not", [](int n) { return "r := " + repeated("not ", n) + "true\n"; },
     511, 1},
    {"unary minus", [](int n) { return "r := " + repeated("- ", n) + "1\n"; },
     511, 1},
    {"subscript",
     [](int n) {
         return "r[0] := " + repeated("r[", n) + "0" + repeated("]", n) +
                "\n";
     },
     511, 1},
    {"+ chain",
     [](int n) { return "r := 1" + repeated(" + 1", n - 1) + "\n"; }, 512,
     1},
    // The block of the 513th seq opens on the skip line.
    {"nested seq", [](int n) { return stacked("seq", n); }, 512, 514},
    {"while", [](int n) { return stacked("while true", n); }, 256, 257},
    {"replicated seq",
     [](int n) { return stacked("seq i = [0 for 1]", n); }, 128, 129},
};

TEST(Parser, NestingPastTheBoundIsRefusedOnItsLine)
{
    // Every later phase recurses over the parsed trees, so input deeper
    // than the bound gets a diagnostic here instead of overflowing the
    // host stack; input at the bound gets past the parser.
    for (const NestShape &shape : kNestShapes) {
        SCOPED_TRACE(shape.name);
        EXPECT_NO_THROW(parse(shape.program(shape.fits)));
        std::string msg = diagnosticOf(
            [&] { parse(shape.program(shape.fits + 1)); });
        EXPECT_NE(msg.find("line " + std::to_string(shape.line) + ":"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("nested deeper than 512 levels"),
                  std::string::npos)
            << msg;
    }
}

// ----- Sema ---------------------------------------------------------------

SymbolTable
check(const std::string &src, Program &out)
{
    out = parse(src);
    return analyze(out);
}

TEST(Sema, ResolvesAcrossScopes)
{
    Program p;
    SymbolTable t = check(
        "var x:\n"
        "seq\n"
        "  var y:\n"
        "  seq\n"
        "    y := x\n",
        p);
    EXPECT_GE(t.size(), 2);
}

TEST(Sema, UndeclaredNameIsFatal)
{
    Program p;
    EXPECT_THROW(check("x := 1\n", p), FatalError);
}

TEST(Sema, KindChecks)
{
    Program p;
    EXPECT_THROW(check("chan c:\nc := 1\n", p), FatalError);
    EXPECT_THROW(check("var v[4]:\nv := 1\n", p), FatalError);
    EXPECT_THROW(check("var x:\nx ? y\n", p), FatalError);
    EXPECT_THROW(check("def n = 2:\nn := 1\n", p), FatalError);
}

TEST(Sema, ConstantFolding)
{
    Program p;
    SymbolTable t = check(
        "def n = 4, m = n * 2 + 1:\n"
        "var v[m]:\n"
        "skip\n",
        p);
    // v has size 9.
    bool found = false;
    for (int i = 0; i < t.size(); ++i) {
        if (t.symbol(i).name == "v") {
            EXPECT_EQ(t.symbol(i).arraySize, 9);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Sema, ConstantOverflowIsACompileError)
{
    Program p;
    // INT32_MIN itself is representable...
    EXPECT_NO_THROW(check("def lo = 0 - 2147483647 - 1:\nskip\n", p));
    // ...but no folded constant (named constant or array size) may
    // leave the word, and the error names the line.
    for (auto [src, line] : {
             std::pair{"def big = 65536 * 65536:\nskip\n", "line 1"},
             std::pair{"def a = 1:\ndef big = 2147483647 + a:\nskip\n",
                       "line 2"},
             std::pair{"def lo = 0 - 2147483647 - 2:\nskip\n", "line 1"},
             std::pair{"def lo = 0 - 2147483647 - 1, q = lo / (0 - 1):\n"
                       "skip\n", "line 1"},
             std::pair{"var v[65536 * 65536]:\nskip\n", "line 1"}}) {
        std::string msg = diagnosticOf([&] { check(src, p); });
        EXPECT_NE(msg.find("overflows a 32-bit word"), std::string::npos)
            << src << ": " << msg;
        EXPECT_NE(msg.find(line), std::string::npos) << msg;
    }
}

TEST(Sema, ProcArityChecked)
{
    Program p;
    EXPECT_THROW(check(
        "proc f (value a) =\n"
        "  skip\n"
        "f (1, 2)\n", p), FatalError);
}

TEST(Sema, ProcBodySeesOnlyParams)
{
    Program p;
    EXPECT_THROW(check(
        "var g:\n"
        "proc f (value a) =\n"
        "  g := a\n"
        "skip\n", p), FatalError);
}

TEST(Sema, DuplicateNamesInScopeFatal)
{
    Program p;
    EXPECT_THROW(check("var x, x:\nskip\n", p), FatalError);
}

// ----- IFT ------------------------------------------------------------------

struct Front
{
    Program program;
    SymbolTable table;
    Ift ift;

    explicit Front(const std::string &src, bool live = true)
        : program(parse(src)), table(analyze(program)),
          ift(Ift::build(program, table, live))
    {
    }

    int
    sym(const std::string &name) const
    {
        for (int i = 0; i < table.size(); ++i)
            if (table.symbol(i).name == name)
                return i;
        return -1;
    }
};

TEST(Ift, Table43SeqExample)
{
    // The Table 4.3 fragment: seq / x := x + 1 / y := x.
    Front f(
        "var x, y:\n"
        "seq\n"
        "  x := x + 1\n"
        "  y := x\n");
    const IftEntry &seq = f.ift.entry(f.ift.mainEntry());
    EXPECT_EQ(seq.type, IftEntry::Type::Seq);
    // I(seq) = {x} (x used before defined); O = {x, y} minus locals...
    // x and y are declared at program scope (not in the seq), so they
    // appear in the sets.
    ASSERT_NE(seq.input(f.sym("x")), nullptr);
    EXPECT_EQ(seq.input(f.sym("y")), nullptr);
    EXPECT_NE(seq.output(f.sym("x")), nullptr);
    EXPECT_NE(seq.output(f.sym("y")), nullptr);
}

TEST(Ift, UseDefLinksSequentialChain)
{
    Front f(
        "var x, y:\n"
        "seq\n"
        "  x := 1\n"
        "  y := x\n");
    int seq = f.ift.mainEntry();
    int first = f.ift.entry(seq).chains[0][0];
    int second = f.ift.entry(seq).chains[0][1];
    // The definition of x in entry 'first' is used by 'second'.
    // U and D are sorted sets of entry indices.
    auto has = [](const std::vector<int> &set, int entry) {
        return std::is_sorted(set.begin(), set.end()) &&
               std::binary_search(set.begin(), set.end(), entry);
    };
    const IftValue *def = f.ift.entry(first).output(f.sym("x"));
    ASSERT_NE(def, nullptr);
    EXPECT_TRUE(has(def->uses, second));
    const IftValue *use = f.ift.entry(second).input(f.sym("x"));
    ASSERT_NE(use, nullptr);
    EXPECT_TRUE(has(use->defs, first));
    EXPECT_EQ(use->defs, std::vector<int>{first});
}

TEST(Ift, LivenessMarksValuesUsedLater)
{
    Front f(
        "var x, y:\n"
        "seq\n"
        "  x := 1\n"
        "  y := x\n");
    int seq = f.ift.mainEntry();
    int first = f.ift.entry(seq).chains[0][0];
    int second = f.ift.entry(seq).chains[0][1];
    // x@first is used by the second entry: live. y@second is never
    // used again: dead.
    EXPECT_TRUE(f.ift.entry(first).output(f.sym("x"))->live);
    EXPECT_FALSE(f.ift.entry(second).output(f.sym("y"))->live);
}

TEST(Ift, LoopCarriedValuesAreLive)
{
    Front f(
        "var i:\n"
        "seq\n"
        "  i := 0\n"
        "  while i < 10\n"
        "    i := i + 1\n");
    int seq = f.ift.mainEntry();
    int whil = f.ift.entry(seq).chains[0][1];
    ASSERT_EQ(f.ift.entry(whil).type, IftEntry::Type::While);
    int body = f.ift.entry(whil).chains[0][1];
    // i updated in the body feeds the next iteration: live.
    EXPECT_TRUE(f.ift.entry(body).output(f.sym("i"))->live);
}

TEST(Ift, InputOutputCarryControlToken)
{
    Front f(
        "chan c:\n"
        "var x:\n"
        "seq\n"
        "  c ! 5\n"
        "  c ? x\n");
    int seq = f.ift.mainEntry();
    int out = f.ift.entry(seq).chains[0][0];
    EXPECT_NE(f.ift.entry(out).input(kControlToken), nullptr);
    EXPECT_NE(f.ift.entry(out).output(kControlToken), nullptr);
    // c is in I of both.
    EXPECT_NE(f.ift.entry(out).input(f.sym("c")), nullptr);
}

TEST(Ift, ParUnionsComponentSets)
{
    Front f(
        "var x, y, a, b:\n"
        "seq\n"
        "  a := 1\n"
        "  b := 2\n"
        "  par\n"
        "    x := a\n"
        "    y := b\n"
        "  a := x + y\n");
    int seq = f.ift.mainEntry();
    int par = f.ift.entry(seq).chains[0][2];
    ASSERT_EQ(f.ift.entry(par).type, IftEntry::Type::Par);
    EXPECT_NE(f.ift.entry(par).input(f.sym("a")), nullptr);
    EXPECT_NE(f.ift.entry(par).input(f.sym("b")), nullptr);
    EXPECT_NE(f.ift.entry(par).output(f.sym("x")), nullptr);
    EXPECT_NE(f.ift.entry(par).output(f.sym("y")), nullptr);
    // Component outputs used after the par are live.
    int comp0 = f.ift.entry(par).chains[0][0];
    EXPECT_TRUE(f.ift.entry(comp0).output(f.sym("x"))->live);
}

TEST(Ift, LocalsDoNotEscape)
{
    Front f(
        "var x:\n"
        "seq\n"
        "  var t:\n"
        "  seq\n"
        "    t := 1\n"
        "    x := t\n");
    // t is declared in the outer seq: the declaring block's interface
    // sets exclude it, while the inner (non-declaring) seq still lists
    // it as an ordinary output.
    int outer = f.ift.mainEntry();
    EXPECT_EQ(f.ift.entry(outer).output(f.sym("t")), nullptr);
    EXPECT_EQ(f.ift.entry(outer).input(f.sym("t")), nullptr);
    EXPECT_NE(f.ift.entry(outer).output(f.sym("x")), nullptr);
    int inner = f.ift.entry(outer).chains[0][0];
    EXPECT_NE(f.ift.entry(inner).output(f.sym("t")), nullptr);
}

TEST(Ift, VarFormalsAreLiveAtProcEnd)
{
    Front f(
        "proc f (value a, var r) =\n"
        "  seq\n"
        "    r := a + 1\n"
        "var x:\n"
        "f (1, x)\n");
    int proc_sym = f.sym("f");
    int root = f.ift.procEntry(proc_sym);
    int assign = f.ift.entry(root).chains[0][0];
    EXPECT_TRUE(f.ift.entry(assign).output(f.sym("r"))->live);
}

TEST(Ift, AblationMarksEverythingLive)
{
    Front f(
        "var x, y:\n"
        "seq\n"
        "  x := 1\n"
        "  y := x\n",
        /*live=*/false);
    int seq = f.ift.mainEntry();
    int second = f.ift.entry(seq).chains[0][1];
    EXPECT_TRUE(f.ift.entry(second).output(f.sym("y"))->live);
}

TEST(Ift, ArrayAppearsInBothSetsOnWrite)
{
    Front f(
        "var v[8]:\n"
        "var i:\n"
        "seq\n"
        "  i := 1\n"
        "  v[i] := 42\n");
    int seq = f.ift.mainEntry();
    int write = f.ift.entry(seq).chains[0][1];
    EXPECT_NE(f.ift.entry(write).input(f.sym("v")), nullptr);
    EXPECT_NE(f.ift.entry(write).output(f.sym("v")), nullptr);
}

} // namespace

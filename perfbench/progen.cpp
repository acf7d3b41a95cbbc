#include "progen.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr int kScalars = 8;
constexpr int kArray = 16;
/** Every stored value is reduced `\ kMod`, so it stays below kMod. */
constexpr std::int64_t kMod = 1000;
/**
 * Largest product an expression may form. With three levels no value
 * exceeds a few million, so 32-bit machine arithmetic never overflows
 * and the oracle's 64-bit arithmetic gives the machine's results.
 */
constexpr std::int64_t kMulLimit = std::int64_t{1} << 20;
constexpr int kDepth = 3;
constexpr int kBlocksPerPhase = 3;
constexpr int kParArrayBlock = 4;

/** A name an expression may read besides the globals. */
struct Local
{
    std::string name;
    std::int64_t bound = 0;  ///< |value| <= bound.
    bool index = false;      ///< A loop index: in [0, bound].
};

struct Expr
{
    enum class Kind { Lit, Scalar, Local, Elem, Add, Sub, Mul };
    Kind kind = Kind::Lit;
    std::int64_t value = 0;  ///< Literal, or Elem's index offset.
    int slot = 0;            ///< Scalar/Local slot; Elem's local or -1.
    std::int64_t bound = 0;
    std::unique_ptr<Expr> l, r;
};
using ExprPtr = std::unique_ptr<Expr>;

/** What an expression may read. */
struct Scope
{
    std::vector<int> scalars;
    bool array = true;
    std::vector<Local> locals;
};

class Generator
{
  public:
    Generator(std::uint64_t structureSeed, std::uint64_t valueSeed,
              const ProgramShape &shape)
        : rng_(structureSeed), values_(valueSeed), shape_(shape)
    {}

    GeneratedProgram
    run()
    {
        init();
        int inPhase = 0;
        for (int b = 0; b < shape_.blocks; ++b) {
            // A replicated par that writes the array opens a phase of
            // its own: on more than one PE, a read of the array earlier
            // in the same context can see that par's writes (the
            // compiler does not order the read before the fork).
            if (b % 9 == kParArrayBlock && inPhase > 0) {
                endPhase();
                inPhase = 0;
            }
            block(b % 9);
            if (++inPhase == kBlocksPerPhase || b + 1 == shape_.blocks) {
                endPhase();
                inPhase = 0;
            }
        }
        results();

        std::string source = "-- generated program (perfbench)\n";
        source += "var res[" + std::to_string(kScalars + kArray) +
                  "], data[" + std::to_string(kArray) + "]:\n";
        source += "var ";
        for (int i = 0; i < kScalars; ++i)
            source += (i ? ", g" : "g") + std::to_string(i);
        source += ":\n";
        GeneratedProgram out;
        out.source = source + procs_ + "seq\n" + main_;
        for (std::int64_t v : s_)
            out.expected.push_back(static_cast<std::int32_t>(v));
        for (std::int64_t v : arr_)
            out.expected.push_back(static_cast<std::int32_t>(v));
        return out;
    }

  private:
    // --- text -----------------------------------------------------------

    static void
    emit(std::string &to, int depth, const std::string &text)
    {
        to.append(static_cast<std::size_t>(2 * depth), ' ');
        to += text;
        to += '\n';
    }

    /** A line of the current block, @p depth levels into it. */
    void
    line(int depth, const std::string &text)
    {
        emit(phase_, depth + 1, text);
    }

    std::string
    fresh(const char *stem)
    {
        return stem + std::to_string(names_++);
    }

    std::string
    channel()
    {
        channels_.push_back(fresh("c"));
        return channels_.back();
    }

    static std::string
    list(const std::vector<std::string> &names)
    {
        std::string out;
        for (const std::string &n : names)
            out += (out.empty() ? "" : ", ") + n;
        return out;
    }

    /**
     * Wrap the blocks generated since the last phase into a proc that
     * takes every scalar and the array by reference, and call it from
     * main. Phases keep each context's data-flow graph small enough
     * for one operand-queue page.
     */
    void
    endPhase()
    {
        std::string name = fresh("phase");
        std::vector<std::string> params, args;
        for (int i = 0; i < kScalars; ++i) {
            params.push_back("var " + scalar(i));
            args.push_back("g" + std::to_string(i));
        }
        params.push_back("var arr[]");
        args.push_back("data");
        emit(procs_, 0, "proc " + name + " (" + list(params) + ") =");
        if (!counters_.empty())
            emit(procs_, 1, "var " + list(counters_) + ":");
        if (!channels_.empty())
            emit(procs_, 1, "chan " + list(channels_) + ":");
        emit(procs_, 1, "seq");
        procs_ += phase_;
        emit(procs_, 0, ":");
        emit(main_, 1, name + " (" + list(args) + ")");
        phase_.clear();
        counters_.clear();
        channels_.clear();
    }

    static std::string
    scalar(int slot)
    {
        return "s" + std::to_string(slot);
    }

    static std::string
    text(const Expr &e, const Scope &scope)
    {
        switch (e.kind) {
          case Expr::Kind::Lit: return std::to_string(e.value);
          case Expr::Kind::Scalar: return scalar(e.slot);
          case Expr::Kind::Local:
            return scope.locals[static_cast<std::size_t>(e.slot)].name;
          case Expr::Kind::Elem: {
            if (e.slot < 0)
                return "arr[" + std::to_string(e.value) + "]";
            const std::string &i =
                scope.locals[static_cast<std::size_t>(e.slot)].name;
            return e.value == 0
                       ? "arr[" + i + "]"
                       : "arr[" + i + " + " + std::to_string(e.value) + "]";
          }
          case Expr::Kind::Add:
            return "(" + text(*e.l, scope) + " + " + text(*e.r, scope) + ")";
          case Expr::Kind::Sub:
            return "(" + text(*e.l, scope) + " - " + text(*e.r, scope) + ")";
          case Expr::Kind::Mul:
            return "(" + text(*e.l, scope) + " * " + text(*e.r, scope) + ")";
        }
        throw std::logic_error("progen: bad expression kind");
    }

    /** `(e) \ 1000`: the form every store takes. */
    static std::string
    reduced(const Expr &e, const Scope &scope)
    {
        return "(" + text(e, scope) + ") \\ " + std::to_string(kMod);
    }

    // --- oracle ---------------------------------------------------------

    std::int64_t
    eval(const Expr &e, const std::vector<std::int64_t> &locals) const
    {
        std::int64_t v = 0;
        switch (e.kind) {
          case Expr::Kind::Lit: v = e.value; break;
          case Expr::Kind::Scalar:
            v = s_[static_cast<std::size_t>(e.slot)];
            break;
          case Expr::Kind::Local:
            v = locals[static_cast<std::size_t>(e.slot)];
            break;
          case Expr::Kind::Elem: {
            std::int64_t i =
                e.value +
                (e.slot < 0 ? 0 : locals[static_cast<std::size_t>(e.slot)]);
            if (i < 0 || i >= kArray)
                throw std::logic_error("progen: index out of range");
            v = arr_[static_cast<std::size_t>(i)];
            break;
          }
          case Expr::Kind::Add: v = eval(*e.l, locals) + eval(*e.r, locals); break;
          case Expr::Kind::Sub: v = eval(*e.l, locals) - eval(*e.r, locals); break;
          case Expr::Kind::Mul: v = eval(*e.l, locals) * eval(*e.r, locals); break;
        }
        if (v > e.bound || v < -e.bound)
            throw std::logic_error("progen: value exceeds its bound");
        return v;
    }

    /** The machine's `(e) \ 1000`: remainder truncated toward zero. */
    std::int64_t
    evalReduced(const Expr &e, const std::vector<std::int64_t> &locals) const
    {
        return eval(e, locals) % kMod;
    }

    // --- expressions ----------------------------------------------------

    ExprPtr
    leaf(const Scope &scope)
    {
        auto e = std::make_unique<Expr>();
        for (;;) {
            switch (rng_.below(4)) {
              case 0:
                e->kind = Expr::Kind::Lit;
                e->value = values_.range(1, 9);
                e->bound = 9;
                return e;
              case 1:
                if (scope.scalars.empty())
                    continue;
                e->kind = Expr::Kind::Scalar;
                e->slot = scope.scalars[rng_.below(scope.scalars.size())];
                e->bound = kMod - 1;
                return e;
              case 2: {
                if (scope.locals.empty())
                    continue;
                e->kind = Expr::Kind::Local;
                e->slot = static_cast<int>(rng_.below(scope.locals.size()));
                e->bound = scope.locals[static_cast<std::size_t>(e->slot)].bound;
                return e;
              }
              default: {
                if (!scope.array)
                    continue;
                e->kind = Expr::Kind::Elem;
                e->bound = kMod - 1;
                e->slot = -1;
                e->value = rng_.range(0, kArray - 1);
                // Index by a loop variable when one fits the array.
                for (std::size_t i = 0; i < scope.locals.size(); ++i) {
                    const Local &l = scope.locals[i];
                    if (l.index && l.bound < kArray && rng_.below(2) == 0) {
                        e->slot = static_cast<int>(i);
                        e->value = rng_.range(0, kArray - 1 - l.bound);
                        break;
                    }
                }
                return e;
              }
            }
        }
    }

    /**
     * A full binary tree of kDepth levels of +, - and *, so every
     * expression costs about the same to compile and run whatever the
     * seed. A product whose operands could exceed kMulLimit becomes a
     * sum, which keeps every value far from 32-bit overflow.
     */
    ExprPtr
    expr(const Scope &scope, int depth = 0)
    {
        if (depth == kDepth)
            return leaf(scope);
        auto e = std::make_unique<Expr>();
        e->l = expr(scope, depth + 1);
        e->r = expr(scope, depth + 1);
        switch (rng_.below(3)) {
          case 0: e->kind = Expr::Kind::Add; break;
          case 1: e->kind = Expr::Kind::Sub; break;
          default: e->kind = Expr::Kind::Mul; break;
        }
        if (e->kind == Expr::Kind::Mul && e->l->bound * e->r->bound > kMulLimit)
            e->kind = Expr::Kind::Add;
        e->bound = e->kind == Expr::Kind::Mul ? e->l->bound * e->r->bound
                                              : e->l->bound + e->r->bound;
        return e;
    }

    Scope
    globals(std::vector<int> except = {}, bool array = true) const
    {
        Scope scope;
        for (int i = 0; i < kScalars; ++i)
            if (std::find(except.begin(), except.end(), i) == except.end())
                scope.scalars.push_back(i);
        scope.array = array;
        return scope;
    }

    int
    pickScalar(int other = -1)
    {
        for (;;) {
            int s = static_cast<int>(rng_.below(kScalars));
            if (s != other)
                return s;
        }
    }

    std::int64_t &
    at(int slot)
    {
        return s_[static_cast<std::size_t>(slot)];
    }

    // --- blocks ---------------------------------------------------------

    void
    init()
    {
        for (int i = 0; i < kScalars; ++i) {
            at(i) = values_.range(1, kMod - 1);
            emit(main_, 1, "g" + std::to_string(i) + " := " +
                               std::to_string(at(i)));
        }
        std::int64_t mul = values_.range(2, 9), add = values_.range(1, 9);
        emit(main_, 1, "seq i = [0 for " + std::to_string(kArray) + "]");
        emit(main_, 2, "data[i] := ((i * " + std::to_string(mul) + ") + " +
                           std::to_string(add) + ") \\ " +
                           std::to_string(kMod));
        for (int i = 0; i < kArray; ++i)
            arr_[static_cast<std::size_t>(i)] = (i * mul + add) % kMod;
    }

    void
    results()
    {
        for (int i = 0; i < kScalars; ++i)
            emit(main_, 1, "res[" + std::to_string(i) + "] := g" +
                               std::to_string(i));
        emit(main_, 1, "seq i = [0 for " + std::to_string(kArray) + "]");
        emit(main_, 2, "res[i + " + std::to_string(kScalars) + "] := data[i]");
    }

    void
    block(int kind)
    {
        const int n = shape_.loopCount;
        const std::string count = std::to_string(n);
        switch (kind) {
          case 0: {  // Replicated seq accumulating into one scalar.
            int a = pickScalar();
            Scope scope = globals();
            std::string i = fresh("i");
            scope.locals.push_back({i, n - 1, true});
            ExprPtr e = expr(scope);
            line(1, "seq " + i + " = [0 for " + count + "]");
            line(2, scalar(a) + " := (" + scalar(a) + " + " +
                               text(*e, scope) + ") \\ 1000");
            for (std::int64_t k = 0; k < n; ++k)
                at(a) = (at(a) + eval(*e, {k})) % kMod;
            return;
          }
          case 1: {  // Producer/consumer over a channel pair.
            int a = pickScalar();
            std::int64_t mul = values_.range(2, 9);
            Scope prod = globals({a});
            std::string i = fresh("i"), j = fresh("j"), x = fresh("x");
            prod.locals.push_back({i, n - 1, true});
            ExprPtr e = expr(prod);
            std::string c = channel();
            line(1, "par");
            line(2, "seq " + i + " = [0 for " + count + "]");
            line(3, c + " ! " + reduced(*e, prod));
            line(2, "seq " + j + " = [0 for " + count + "]");
            line(3, "var " + x + ":");
            line(3, "seq");
            line(4, c + " ? " + x);
            line(4, scalar(a) + " := (" + scalar(a) + " + (" + x +
                               " * " + std::to_string(mul) + ")) \\ 1000");
            std::int64_t start = at(a);
            std::int64_t acc = start;
            for (std::int64_t k = 0; k < n; ++k)
                acc = (acc + evalReduced(*e, {k}) * mul) % kMod;
            at(a) = acc;
            return;
          }
          case 2: {  // while loop over a counter, two dependent updates.
            int a = pickScalar(), b = pickScalar(a);
            std::string k = fresh("k");
            counters_.push_back(k);
            Scope scope = globals();
            scope.locals.push_back({k, n - 1, true});
            ExprPtr e1 = expr(scope);
            ExprPtr e2 = expr(scope);
            line(1, k + " := 0");
            line(1, "while " + k + " < " + count);
            line(2, "seq");
            line(3, scalar(a) + " := (" + scalar(a) + " + " +
                               text(*e1, scope) + ") \\ 1000");
            line(3, scalar(b) + " := (" + scalar(b) + " - " +
                               text(*e2, scope) + ") \\ 1000");
            line(3, k + " := " + k + " + 1");
            for (std::int64_t it = 0; it < n; ++it) {
                at(a) = (at(a) + eval(*e1, {it})) % kMod;
                at(b) = (at(b) - eval(*e2, {it})) % kMod;
            }
            return;
          }
          case 3: {  // Expression proc with value and var parameters.
            std::string f = fresh("f");
            Scope body;
            body.array = false;
            body.locals = {{"a", kMod - 1, false}, {"b", kMod - 1, false}};
            ExprPtr fe = expr(body);
            emit(procs_, 0, "proc " + f + " (value a, value b, var out) =");
            emit(procs_, 1, "out := " + reduced(*fe, body));
            emit(procs_, 0, ":");
            for (int call = 0; call < 2; ++call) {
                int t = pickScalar();
                Scope args = globals({t});
                ExprPtr x = expr(args), y = expr(args);
                line(1, f + " (" + reduced(*x, args) + ", " +
                                   reduced(*y, args) + ", " + scalar(t) + ")");
                std::int64_t av = evalReduced(*x, {}), bv = evalReduced(*y, {});
                at(t) = evalReduced(*fe, {av, bv});
            }
            return;
          }
          case 4: {  // Replicated par writing disjoint array slots.
            const int w = shape_.parWidth;
            std::int64_t base = rng_.range(0, kArray - w);
            std::string p = fresh("p");
            Scope scope = globals({}, false);
            scope.locals.push_back({p, w - 1, true});
            ExprPtr e = expr(scope);
            std::string slot =
                base == 0 ? p : p + " + " + std::to_string(base);
            line(1, "par " + p + " = [0 for " + std::to_string(w) + "]");
            line(2, "arr[" + slot + "] := " + reduced(*e, scope));
            for (std::int64_t k = 0; k < w; ++k)
                arr_[static_cast<std::size_t>(base + k)] = evalReduced(*e, {k});
            return;
          }
          case 5: {  // Three-stage pipeline through a chan-parameter proc.
            int a = pickScalar();
            std::string st = fresh("st"), si = fresh("i"), v = fresh("v");
            Scope stage;
            stage.array = false;
            stage.locals = {{v, kMod - 1, false}, {"k", 9, false},
                            {si, n - 1, true}};
            ExprPtr se = expr(stage);
            emit(procs_, 0, "proc " + st + " (chan cin, chan cout, value k) =");
            emit(procs_, 1, "seq " + si + " = [0 for " + count + "]");
            emit(procs_, 2, "var " + v + ":");
            emit(procs_, 2, "seq");
            emit(procs_, 3, "cin ? " + v);
            emit(procs_, 3, "cout ! " + reduced(*se, stage));
            emit(procs_, 0, ":");

            std::int64_t kval = values_.range(2, 9);
            Scope prod = globals({a});
            std::string i = fresh("i"), j = fresh("j"), y = fresh("y");
            prod.locals.push_back({i, n - 1, true});
            ExprPtr pe = expr(prod);
            std::string c1 = channel();
            std::string c2 = channel();
            line(1, "par");
            line(2, "seq " + i + " = [0 for " + count + "]");
            line(3, c1 + " ! " + reduced(*pe, prod));
            line(2, st + " (" + c1 + ", " + c2 + ", " +
                               std::to_string(kval) + ")");
            line(2, "seq " + j + " = [0 for " + count + "]");
            line(3, "var " + y + ":");
            line(3, "seq");
            line(4, c2 + " ? " + y);
            line(4, scalar(a) + " := (" + scalar(a) + " + " + y +
                               ") \\ 1000");
            std::int64_t acc = at(a);
            for (std::int64_t k = 0; k < n; ++k) {
                std::int64_t x = evalReduced(*pe, {k});
                acc = (acc + evalReduced(*se, {x, kval, k})) % kMod;
            }
            at(a) = acc;
            return;
          }
          case 6: {  // if with a computed condition and a default arm.
            static const char *rel[] = {"<", ">", "=", "<>", "<=", ">="};
            int a = pickScalar(), b = pickScalar(a);
            Scope scope = globals();
            ExprPtr c1 = expr(scope), c2 = expr(scope);
            ExprPtr e1 = expr(scope), e2 = expr(scope);
            int op = static_cast<int>(rng_.below(6));
            line(1, "if");
            line(2, "(" + text(*c1, scope) + ") " + rel[op] + " (" +
                               text(*c2, scope) + ")");
            line(3, scalar(a) + " := " + reduced(*e1, scope));
            line(2, "true");
            line(3, scalar(b) + " := " + reduced(*e2, scope));
            std::int64_t x = eval(*c1, {}), y = eval(*c2, {});
            bool taken = op == 0   ? x < y
                         : op == 1 ? x > y
                         : op == 2 ? x == y
                         : op == 3 ? x != y
                         : op == 4 ? x <= y
                                   : x >= y;
            if (taken)
                at(a) = evalReduced(*e1, {});
            else
                at(b) = evalReduced(*e2, {});
            return;
          }
          case 7: {  // par of two assignments to disjoint scalars.
            int a = pickScalar(), b = pickScalar(a);
            Scope scope = globals({a, b});
            ExprPtr e1 = expr(scope), e2 = expr(scope);
            line(1, "par");
            line(2, scalar(a) + " := " + reduced(*e1, scope));
            line(2, scalar(b) + " := " + reduced(*e2, scope));
            std::int64_t va = evalReduced(*e1, {}), vb = evalReduced(*e2, {});
            at(a) = va;
            at(b) = vb;
            return;
          }
          default: {  // Proc with a local accumulator loop.
            std::string g = fresh("g"), gi = fresh("i"), t = fresh("t");
            Scope body;
            body.array = false;
            body.locals = {{"a", kMod - 1, false}, {gi, n - 1, true}};
            ExprPtr ge = expr(body);
            emit(procs_, 0, "proc " + g + " (value a, var out) =");
            emit(procs_, 1, "var " + t + ":");
            emit(procs_, 1, "seq");
            emit(procs_, 2, t + " := 0");
            emit(procs_, 2, "seq " + gi + " = [0 for " + count + "]");
            emit(procs_, 3, t + " := (" + t + " + " + text(*ge, body) +
                                ") \\ 1000");
            emit(procs_, 2, "out := " + t);
            emit(procs_, 0, ":");
            int target = pickScalar();
            Scope args = globals({target});
            ExprPtr x = expr(args);
            line(1, g + " (" + reduced(*x, args) + ", " +
                               scalar(target) + ")");
            std::int64_t av = evalReduced(*x, {});
            std::int64_t acc = 0;
            for (std::int64_t k = 0; k < n; ++k)
                acc = (acc + eval(*ge, {av, k})) % kMod;
            at(target) = acc;
            return;
          }
        }
    }

    /** Draws the program's shape: blocks, operators, names read. */
    qm::SplitMix64 rng_;
    /** Draws its constants: literals and initial values. */
    qm::SplitMix64 values_;
    ProgramShape shape_;
    /** Helper and phase procs, the current phase's blocks, main's body. */
    std::string procs_, phase_, main_;
    std::vector<std::int64_t> s_ = std::vector<std::int64_t>(kScalars, 0);
    std::vector<std::int64_t> arr_ = std::vector<std::int64_t>(kArray, 0);
    int names_ = 0;
    /** Channels and while counters the current phase declares. */
    std::vector<std::string> channels_, counters_;
};

} // namespace

GeneratedProgram
generateProgram(std::uint64_t structureSeed, std::uint64_t valueSeed,
                const ProgramShape &shape)
{
    return Generator(structureSeed, valueSeed, shape).run();
}

} // namespace perfbench

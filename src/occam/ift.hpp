/**
 * @file
 * Intermediate Form Table (thesis section 4.4, Tables 4.1-4.3) with
 * use/definition linking (Fig 4.11) and live-value analysis (Fig 4.12).
 *
 * Every AST process maps to one IFT entry. Non-interface entries
 * (primitives, conditions) carry syntax; interface entries (seq, par,
 * if, while, call) carry E - an ordered set of ordered sets of the
 * component entry indices, one inner set per independent execution
 * chain (one chain for seq/while, one per component for par/if).
 *
 * The I set holds the values an entry consumes before defining them;
 * the O set the values it defines. Each value carries D (defining
 * entries) and U (using entries) sets, and O values carry the Live
 * flag: whether the value must be communicated onward when the entry
 * runs as its own context. The thesis liveness rules:
 *
 *   1. an O value used by a later entry (U contains more than the
 *      enclosing interface) is live;
 *   2. a value whose only use is being exported (U == {H}) inherits
 *      H's own flag for it - except inside a loop, where a value that
 *      feeds the loop's I set is loop-carried and therefore live;
 *   3. var formal procedure parameters are always live at the body end.
 *
 * The control token K is modelled as pseudo-symbol id -1 so the
 * side-effecting primitives (input/output/wait) chain exactly as in
 * Table 4.1; K never appears in spliced live-in/out lists.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "occam/ast.hpp"
#include "occam/symbols.hpp"

namespace qm::occam {

/** The control-token pseudo-symbol (Table 4.1). */
constexpr int kControlToken = -1;

/** One value in an entry's I or O set, with analysis annotations. */
struct IftValue
{
    int symbol = -1;
    std::vector<int> defs;  ///< D: entries defining it, sorted.
    std::vector<int> uses;  ///< U: entries consuming it, sorted.
    bool live = false;      ///< O values only: needed after this entry.
};

/** One Intermediate Form Table entry. */
struct IftEntry
{
    enum class Type
    {
        Assignment, Input, Output, Wait, Skip, Condition, Declaration,
        Seq, Par, If, While, Call,
    };

    Type type = Type::Skip;
    const Process *syntax = nullptr;  ///< AST node (null for Condition).
    const Expr *condExpr = nullptr;   ///< Condition entries.
    int declSymbol = -1;              ///< Declaration entries.
    std::vector<IftValue> inputs;     ///< The I set.
    std::vector<IftValue> outputs;    ///< The O set.
    /** E: execution chains of component entry indices. */
    std::vector<std::vector<int>> chains;
    /** Symbols declared locally, sorted; never in a parent's I set. */
    std::vector<int> locals;

    bool
    isLoop() const
    {
        return type == Type::While;
    }

    const IftValue *input(int symbol) const;
    const IftValue *output(int symbol) const;
    IftValue *output(int symbol);
};

/** The table plus the process -> entry mapping. */
class Ift
{
  public:
    /**
     * Build the IFT for @p program, run use/def linking and live-value
     * analysis. @p live_analysis toggles the Table 6.6 optimization:
     * when false every output value is conservatively marked live.
     */
    static Ift build(const Program &program, const SymbolTable &table,
                     bool live_analysis = true);

    const IftEntry &entry(int index) const
    {
        return entries_[static_cast<size_t>(index)];
    }
    int size() const { return static_cast<int>(entries_.size()); }

    /** Entry index for an AST process (must exist). */
    int entryOf(const Process *proc) const;

    /** Root entry of a procedure body (built per procedure). */
    int procEntry(int proc_symbol) const;

    /** Root entry of the main program. */
    int mainEntry() const { return main_; }

    /** Live output symbols of @p entry (excluding K), sorted. */
    std::vector<int> liveOutputs(int entry) const;

    /** Input symbols of @p entry (excluding K), sorted. */
    std::vector<int> inputSymbols(int entry) const;

    std::string dump(const SymbolTable &table) const;

  private:
    friend class IftBuilder;

    std::vector<IftEntry> entries_;
    /** (process, entry) pairs, sorted by process once the table is built. */
    std::vector<std::pair<const Process *, int>> byProcess;
    std::map<int, int> byProc;  ///< proc symbol -> body entry.
    int main_ = -1;
};

} // namespace qm::occam

/**
 * @file
 * Decoded instruction representation with encode/decode to the 32-bit
 * formats of thesis Figures 5.6 and 5.7.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "isa/fields.hpp"

namespace qm::isa {

/** How a source operand field is to be interpreted (Table 5.1). */
enum class SrcKind
{
    None,       ///< Field unused (encoded as small immediate 0).
    WindowReg,  ///< 00nnnn: window register R0..R15.
    GlobalReg,  ///< 01nnnn: global register R16..R31.
    SmallImm,   ///< 1nnnnn: signed immediate -15..15.
    ImmWord,    ///< 110000: a 32-bit literal word follows.
};

/** One decoded source operand. */
struct Src
{
    SrcKind kind = SrcKind::None;
    int reg = 0;        ///< Register number (0..31) for register kinds.
    SWord imm = 0;      ///< Immediate value for SmallImm / ImmWord.

    static Src window(int n);
    static Src global(int n);
    /** Any register number 0..31 (routed to window or global mode). */
    static Src anyReg(int n);
    /** Immediate; picks SmallImm when it fits, ImmWord otherwise. */
    static Src immediate(SWord value);
    static Src none() { return Src{}; }

    bool isReg() const
    {
        return kind == SrcKind::WindowReg || kind == SrcKind::GlobalReg;
    }
    /** Architected register number (window regs are 0..15). */
    int regNumber() const;
};

/** A decoded instruction (basic or dup format). */
struct Instruction
{
    Opcode op = Opcode::Plus;
    bool continueFlag = false;

    // Basic format fields.
    Src src1;
    Src src2;
    int dst1 = RegDummy;  ///< Register number; RegDummy = unused.
    int dst2 = RegDummy;
    int qpInc = 0;        ///< Operands removed from the queue (0..7).

    // Dup format fields (queue page offsets 0..255).
    int dupDst1 = 0;
    int dupDst2 = 0;

    /** Words this instruction occupies (1 plus any immediate words). */
    int sizeWords() const;

    /**
     * Encode into 1..3 words (instruction word, then immediate words for
     * src1/src2 in that order). Panics on field overflow.
     */
    void encode(std::vector<Word> &out) const;

    /**
     * Decode the instruction at @p words[index]; advances @p index past
     * the instruction and its immediates. Panics on truncated input.
     */
    static Instruction decode(const std::vector<Word> &words,
                              std::size_t &index);

    /** Render in the thesis assembly syntax. */
    std::string toString() const;
};

/** One predecoded instruction plus the decode-derived hot-path facts. */
struct DecodedOp
{
    Instruction instr;
    Word nextPc = 0;    ///< PC after the instruction and its immediates.
    int sizeWords = 1;  ///< Cached instr.sizeWords().
};

/**
 * Lazily-built decode cache over one object-code image: a per-PC index
 * into an arena of DecodedOp entries. Every PE fetches through it:
 * each instruction is decoded once, on first execution, and the cached form is replayed on every later visit.
 * Decoding stays lazy so a program whose cold path holds a truncated
 * or garbage instruction panics where execution reaches it, not at
 * load time (isa_test holds every entry to Instruction::decode).
 *
 * Shared by every PE of a System: the instruction space is pure code.
 * Arena entries have stable addresses (deque), so a returned reference
 * is valid for the program's lifetime.
 */
class DecodedProgram
{
  public:
    explicit DecodedProgram(const std::vector<Word> &words);

    /**
     * The decoded instruction at @p pc (decoding and caching it on
     * first visit). Panics exactly like Instruction::decode on an
     * out-of-bounds PC or a truncated instruction. The returned
     * reference stays valid for the lifetime of this object.
     */
    const DecodedOp &at(Word pc);

  private:
    const std::vector<Word> *words_;
    /** Per-PC decoded entry; null until first execution decodes it. */
    std::vector<const DecodedOp *> index_;
    std::deque<DecodedOp> ops_;  ///< Stable-address arena, decode order.
};

} // namespace qm::isa

/**
 * @file
 * Queue-machine processing element ISA constants (thesis Chapter 5).
 *
 * Instruction word (basic format, 32 bits):
 *
 *   [31]    continue flag
 *   [30:25] opcode (two octal digits, Table 5.2)
 *   [24:19] src1 (Table 5.1 source modes)
 *   [18:13] src2
 *   [12:8]  dst1 (register number; R16/DUMMY = unused)
 *   [7:3]   dst2
 *   [2:0]   QP increment (0..7 operands removed from the queue)
 *
 * dup format:
 *
 *   [31]    continue flag
 *   [30:25] opcode (dup1 or dup2)
 *   [24:17] dst1 queue offset (0..255)
 *   [16:9]  dst2 queue offset
 *   [8:0]   unused
 *
 * Source modes (6 bits): 00nnnn = window register n; 01nnnn = global
 * register 16+n; 110000 = a 32-bit immediate word follows the
 * instruction; any other 1nnnnn = 5-bit signed small immediate -15..15.
 */
#pragma once

#include <cstdint>
#include <string_view>

namespace qm::isa {

using Word = std::uint32_t;
using SWord = std::int32_t;
using Addr = std::uint32_t;

/** Architected register numbers (Fig 5.2). */
enum Reg : int
{
    // R0..R15: virtual window registers (front of the operand queue).
    RegWindow0 = 0,
    RegWindowCount = 16,
    // R16..R27: global registers.
    RegDummy = 16,  ///< Writes discarded; conventional "unused dst".
    RegG0 = 17,     ///< First programmer-visible general register.
    RegG10 = 27,    ///< Last general register.
    RegNar = 28,    ///< NAK address register.
    RegPom = 29,    ///< Page offset mask (queue page size control).
    RegQp = 30,     ///< Queue pointer.
    RegPc = 31,     ///< Program counter.
    RegCount = 32,
};

/** Opcodes, valued per the octal assignments of Table 5.2. */
enum class Opcode : int
{
    Dup1 = 000,
    Dup2 = 004,
    Send = 010,
    Store = 011,
    Storb = 013,
    Recv = 014,
    Fetch = 015,
    Fchb = 017,
    Or = 020,
    And = 021,
    Xor = 022,
    Lshift = 023,
    Rshift = 024,
    Plus = 030,
    Minus = 031,
    // The thesis reserves space in the arithmetic class for
    // multiplication and division; the evaluation programs need them.
    Mul = 032,
    Div = 033,
    Rem = 034,
    Ge = 041,
    Ne = 042,
    Gt = 043,
    Lt = 045,
    Eq = 046,
    Le = 047,
    His = 050,
    Hi = 052,
    Lo = 054,
    Los = 056,
    Bne = 062,  ///< Branch if true.
    Beq = 066,  ///< Branch if false.
    Ftrap = 070,
    Trap = 071,
    Fret = 074,
    Rett = 075,
};

/** Mnemonic for @p op ("plus", "dup1", ...); panics on unknown values. */
std::string_view mnemonic(Opcode op);

/** Opcode for @p mnemonic; returns false if unknown. */
bool opcodeFromMnemonic(std::string_view name, Opcode &out);

/** True for dup1/dup2 (the special instruction format). */
constexpr bool
isDup(Opcode op)
{
    return op == Opcode::Dup1 || op == Opcode::Dup2;
}

/** True for instructions whose results come from comparisons. */
constexpr bool
isCompare(Opcode op)
{
    int code = static_cast<int>(op);
    return code >= 040 && code <= 057;
}

/** @p v wrapped to a signed machine word (two's complement). */
constexpr SWord
wrapWord(std::int64_t v) { return static_cast<SWord>(static_cast<Word>(v)); }

/** Boolean encoding: all ones = true, all zeros = false (section 5.3.1). */
constexpr Word kTrue = 0xFFFFFFFFu;
constexpr Word kFalse = 0x00000000u;

/** Bytes per word; instructions are one word. */
constexpr Addr kWordBytes = 4;

/** Maximum queue page size in words (10-bit page offset, word aligned). */
constexpr int kMaxQueuePageWords = 256;

/** Small-immediate range of the 1nnnnn source mode. */
constexpr int kSmallImmMin = -15;
constexpr int kSmallImmMax = 15;

} // namespace qm::isa

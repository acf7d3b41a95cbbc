/**
 * @file
 * Two-pass assembler for the queue-machine assembly language
 * (thesis section 5.3.4 syntax):
 *
 *   [label:] opcode[{+}|+n] [src1[,src2]] [:dst1[,dst2]] [>] [; comment]
 *
 * Sources are registers (r0..r31 or dummy/nar/pom/qp/pc), immediates
 * (#n), or label references (@name, which assemble as immediate words
 * holding the label's code word address; for branch opcodes the
 * assembler emits the PC-relative word offset instead). The ".word n"
 * directive places a literal data word in the code stream.
 *
 * Numbers (immediates, .word, a "+n" QP increment) must fit one 32-bit
 * word, -2^31 .. 2^32-1; a QP increment must lie in 0..7. Anything
 * else is refused with a "line N:" diagnostic.
 *
 * Code addresses are word indices into the instruction space - the
 * pseudo-static layout keeps instruction and data spaces separate
 * (thesis Fig 2.10), so code addresses never alias data addresses.
 */
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "isa/instruction.hpp"

namespace qm::isa {

/** Assembled object code for one program. */
struct ObjectCode
{
    std::vector<Word> words;
    /** Label name -> code word index. */
    std::map<std::string, Addr, std::less<>> labels;

    Addr
    labelAddr(const std::string &name) const;
};

/** Assemble @p source; throws FatalError with line info on bad input. */
ObjectCode assemble(const std::string &source);

/** Disassemble object code into addressed text lines. */
std::vector<std::string> disassemble(const ObjectCode &code);

} // namespace qm::isa

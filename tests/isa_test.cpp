/**
 * @file
 * Tests for the QMPE instruction-set encoding and the assembler
 * (thesis sections 5.3.3-5.3.5, Tables 5.1/5.2, Figures 5.6/5.7).
 */
#include <gtest/gtest.h>

#include <optional>

#include "fuzz_corpus.hpp"
#include "isa/assembler.hpp"
#include "isa/fields.hpp"
#include "isa/instruction.hpp"
#include "occam/compiler.hpp"
#include "programs/benchmarks.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace qm;
using namespace qm::isa;

Instruction
roundTrip(const Instruction &instr)
{
    std::vector<Word> words;
    instr.encode(words);
    std::size_t index = 0;
    Instruction decoded = Instruction::decode(words, index);
    EXPECT_EQ(index, words.size());
    return decoded;
}

TEST(Isa, OpcodeValuesFollowTable52)
{
    // Spot-check the octal assignments.
    EXPECT_EQ(static_cast<int>(Opcode::Dup1), 000);
    EXPECT_EQ(static_cast<int>(Opcode::Dup2), 004);
    EXPECT_EQ(static_cast<int>(Opcode::Send), 010);
    EXPECT_EQ(static_cast<int>(Opcode::Store), 011);
    EXPECT_EQ(static_cast<int>(Opcode::Fetch), 015);
    EXPECT_EQ(static_cast<int>(Opcode::Plus), 030);
    EXPECT_EQ(static_cast<int>(Opcode::Ge), 041);
    EXPECT_EQ(static_cast<int>(Opcode::His), 050);
    EXPECT_EQ(static_cast<int>(Opcode::Bne), 062);
    EXPECT_EQ(static_cast<int>(Opcode::Trap), 071);
    EXPECT_EQ(static_cast<int>(Opcode::Rett), 075);
}

TEST(Isa, MnemonicRoundTrips)
{
    for (Opcode op : {Opcode::Dup1, Opcode::Send, Opcode::Fetch,
                      Opcode::Plus, Opcode::Minus, Opcode::Mul,
                      Opcode::Eq, Opcode::Bne, Opcode::Trap}) {
        Opcode back;
        ASSERT_TRUE(opcodeFromMnemonic(mnemonic(op), back));
        EXPECT_EQ(back, op);
    }
    Opcode out;
    EXPECT_FALSE(opcodeFromMnemonic("nonsense", out));
}

TEST(Isa, BasicFormatRoundTrip)
{
    Instruction instr;
    instr.op = Opcode::Plus;
    instr.src1 = Src::window(0);
    instr.src2 = Src::window(1);
    instr.dst1 = 0;
    instr.dst2 = 2;
    instr.qpInc = 2;
    instr.continueFlag = true;

    Instruction decoded = roundTrip(instr);
    EXPECT_EQ(decoded.op, Opcode::Plus);
    EXPECT_EQ(decoded.src1.kind, SrcKind::WindowReg);
    EXPECT_EQ(decoded.src1.reg, 0);
    EXPECT_EQ(decoded.src2.reg, 1);
    EXPECT_EQ(decoded.dst1, 0);
    EXPECT_EQ(decoded.dst2, 2);
    EXPECT_EQ(decoded.qpInc, 2);
    EXPECT_TRUE(decoded.continueFlag);
    EXPECT_EQ(instr.sizeWords(), 1);
}

TEST(Isa, GlobalRegisterMode)
{
    Instruction instr;
    instr.op = Opcode::Or;
    instr.src1 = Src::global(17);
    instr.src2 = Src::global(31);
    Instruction decoded = roundTrip(instr);
    EXPECT_EQ(decoded.src1.kind, SrcKind::GlobalReg);
    EXPECT_EQ(decoded.src1.reg, 17);
    EXPECT_EQ(decoded.src2.reg, 31);
}

TEST(Isa, SmallImmediateFullRange)
{
    for (int v = kSmallImmMin; v <= kSmallImmMax; ++v) {
        Instruction instr;
        instr.op = Opcode::Minus;
        instr.src1 = Src::immediate(v);
        instr.src2 = Src::immediate(-v);
        Instruction decoded = roundTrip(instr);
        EXPECT_EQ(decoded.src1.imm, v);
        EXPECT_EQ(decoded.src2.imm, -v);
        EXPECT_EQ(instr.sizeWords(), 1);
    }
}

TEST(Isa, ImmediateWordWhenOutOfSmallRange)
{
    Instruction instr;
    instr.op = Opcode::Plus;
    instr.src1 = Src::immediate(1000000);
    instr.src2 = Src::immediate(-16);  // just below the small range
    EXPECT_EQ(instr.sizeWords(), 3);
    Instruction decoded = roundTrip(instr);
    EXPECT_EQ(decoded.src1.kind, SrcKind::ImmWord);
    EXPECT_EQ(decoded.src1.imm, 1000000);
    EXPECT_EQ(decoded.src2.imm, -16);
}

TEST(Isa, DupFormatRoundTrip)
{
    Instruction instr;
    instr.op = Opcode::Dup2;
    instr.dupDst1 = 255;
    instr.dupDst2 = 30;
    Instruction decoded = roundTrip(instr);
    EXPECT_EQ(decoded.dupDst1, 255);
    EXPECT_EQ(decoded.dupDst2, 30);
    EXPECT_EQ(instr.sizeWords(), 1);
}

TEST(Isa, EncodeRejectsOverflow)
{
    Instruction instr;
    instr.op = Opcode::Plus;
    instr.qpInc = 8;
    std::vector<Word> words;
    EXPECT_THROW(instr.encode(words), PanicError);

    Instruction dup;
    dup.op = Opcode::Dup1;
    dup.dupDst1 = 256;
    EXPECT_THROW(dup.encode(words), PanicError);
}

TEST(Isa, DecodeRejectsIllegalOpcode)
{
    std::vector<Word> words = {0x3Fu << 25};  // opcode 077 unassigned
    std::size_t index = 0;
    EXPECT_THROW(Instruction::decode(words, index), PanicError);
}

TEST(Assembler, ThesisExampleSequence)
{
    // The section 5.3.4 example: plus++ r0,r1 :r0,r2 >  /  dup1 :r30
    ObjectCode code = assemble(
        "plus++ r0,r1 :r0,r2 >\n"
        "dup1 :r30\n");
    ASSERT_EQ(code.words.size(), 2u);
    std::size_t index = 0;
    Instruction plus = Instruction::decode(code.words, index);
    EXPECT_EQ(plus.op, Opcode::Plus);
    EXPECT_EQ(plus.qpInc, 2);
    EXPECT_EQ(plus.dst1, 0);
    EXPECT_EQ(plus.dst2, 2);
    EXPECT_TRUE(plus.continueFlag);
    Instruction dup = Instruction::decode(code.words, index);
    EXPECT_EQ(dup.op, Opcode::Dup1);
    EXPECT_EQ(dup.dupDst1, 30);
}

TEST(Assembler, QpIncNumericSuffix)
{
    ObjectCode a = assemble("plus+3 r0,r1 :r0\n");
    ObjectCode b = assemble("plus+++ r0,r1 :r0\n");
    EXPECT_EQ(a.words, b.words);
}

TEST(Assembler, RegisterAliases)
{
    ObjectCode code = assemble("plus qp,#0 :nar\n");
    std::size_t index = 0;
    Instruction instr = Instruction::decode(code.words, index);
    EXPECT_EQ(instr.src1.reg, RegQp);
    EXPECT_EQ(instr.dst1, RegNar);
}

TEST(Assembler, LabelsAndBranchOffsets)
{
    // beq loops back: offset is relative to the next instruction.
    ObjectCode code = assemble(
        "top:\n"
        "  plus r0,#1 :r0\n"
        "  bne r0,@top\n"
        "  fret\n");
    EXPECT_EQ(code.labelAddr("top"), 0u);
    std::size_t index = 1;  // skip plus (1 word)
    Instruction branch = Instruction::decode(code.words, index);
    EXPECT_EQ(branch.op, Opcode::Bne);
    EXPECT_EQ(branch.src2.kind, SrcKind::ImmWord);
    // branch occupies words 1..2 (instr + imm); next = 3; target = 0.
    EXPECT_EQ(branch.src2.imm, -3);
}

TEST(Assembler, LabelAsAbsoluteOperand)
{
    ObjectCode code = assemble(
        "  fetch @data :r17\n"
        "  fret\n"
        "data:\n"
        "  .word 12345\n");
    std::size_t index = 0;
    Instruction fetch = Instruction::decode(code.words, index);
    EXPECT_EQ(fetch.src1.kind, SrcKind::ImmWord);
    EXPECT_EQ(fetch.src1.imm,
              static_cast<SWord>(code.labelAddr("data")));
    EXPECT_EQ(code.words[code.labelAddr("data")], 12345u);
}

TEST(Assembler, CommentsAndBlankLines)
{
    ObjectCode code = assemble(
        "; full-line comment\n"
        "\n"
        "  plus r0,r1 :r0  ; trailing comment\n");
    EXPECT_EQ(code.words.size(), 1u);
}

TEST(Assembler, Errors)
{
    EXPECT_THROW(assemble("frobnicate r0\n"), FatalError);
    EXPECT_THROW(assemble("plus r0,@nowhere :r0\n"), FatalError);
    EXPECT_THROW(assemble("dup2 :r1\n"), FatalError);
    EXPECT_THROW(assemble("x: x: plus r0,r1 :r0\n"), FatalError);
    EXPECT_THROW(assemble("plus r0,r1 :r0 garbage\n"), FatalError);
    EXPECT_THROW(assemble("plus r99,r1 :r0\n"), FatalError);
    // A trailing label names the label in its diagnostic.
    try {
        assemble("plus r0,r1 :r0\nend:\n");
        FAIL() << "expected a FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("'end'"), std::string::npos)
            << e.what();
    }
}

TEST(Assembler, EveryDiagnosticKeepsItsText)
{
    // Each assembler diagnostic, pinned word for word: the message is
    // the interface a user of occamc or the assembler sees.
    struct Case
    {
        const char *source;
        const char *what;
    };
    const Case cases[] = {
        {"x: x: plus r0,r1 :r0\n", "line 1: duplicate label 'x'"},
        {"plus r0,r1 :r0\nend:\n", "label 'end' at end of file labels nothing"},
        {"plus #x,r1 :r0\n", "line 1: expected number"},
        {".word\n", "line 1: expected number"},
        {"plus #99999999999999999999,r1 :r0\n",
         "line 1: number '99999999999999999999' out of range"},
        {"plus #4294967296,#0 :r0\n",
         "line 1: number '4294967296' out of range"},
        {"plus #-2147483649,#0 :r0\n",
         "line 1: number '-2147483649' out of range"},
        {"plus #-,#0 :r0\n", "line 1: number '-' out of range"},
        {"plus+8 r0,r1 :r0\n", "line 1: QP increment '+8' out of range 0..7"},
        {"plus++++++++ r0,r1 :r0\n",
         "line 1: QP increment '++++++++' out of range 0..7"},
        {"plus x,r1 :r0\n", "line 1: expected register, got 'x'"},
        {"plus r12x,r1 :r0\n", "line 1: expected register, got 'r12x'"},
        {"plus r0,r1 :\n", "line 1: expected register, got ''"},
        {"plus r0,r1 :r256\n", "line 1: register r256 out of range"},
        {"plus r0,\n", "line 1: missing operand"},
        {"fetch @ :r0\n", "line 1: expected label after '@'"},
        {"plus r40,r1 :r0\n",
         "line 1: register r40 not addressable as a source"},
        {"+ r0\n", "line 1: expected mnemonic"},
        {"frobnicate r0\n", "line 1: unknown mnemonic 'frobnicate'"},
        {"dup1 r0\n", "line 1: dup needs ':' destinations"},
        {"dup2 :r1\n", "line 1: dup2 needs two destinations"},
        {"plus r0,r1 :r40\n", "line 1: destination out of range"},
        {"plus r0,r1 :r0,r40\n", "line 1: destination out of range"},
        {"plus r0,r1 :r0 garbage  ; note\n",
         "line 1: trailing characters 'garbage  '"},
        {".word 7 8\n", "line 1: trailing characters '8'"},
        {"plus r0,r1 :r0\r\n\r\n  plus r0,@nowhere :r0\r\n",
         "line 3: undefined label 'nowhere'"},
    };
    for (const Case &c : cases) {
        try {
            assemble(c.source);
            ADD_FAILURE() << "no diagnostic for: " << c.source;
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()), std::string("fatal: ") + c.what)
                << "source: " << c.source;
        }
    }
}

TEST(Assembler, NumberOverflowIsALineDiagnosticNotACrash)
{
    // r99999999999 used to escape as an uncaught std::out_of_range
    // from std::stoi; both overflow forms must surface as ordinary
    // assembler diagnostics carrying the offending line number.
    try {
        assemble("plus r99999999999,r1 :r0\n");
        FAIL() << "expected a FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 1"),
                  std::string::npos)
            << e.what();
    }
    try {
        assemble("plus r0,r1 :r0\nplus #99999999999999999999,r1 :r0\n");
        FAIL() << "expected a FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
    // Trailing junk after the digits is a malformed register, not a
    // silently truncated parse ("r12x" is not r12).
    EXPECT_THROW(assemble("plus r12x,r1 :r0\n"), FatalError);

    // A number must fit one 32-bit word, and a QP increment the 3-bit
    // field: these used to wrap without a word (#1, 0x4876e7ff, +3) or
    // panic in Instruction::encode (+9).
    for (const char *source :
         {"plus #4294967297,#0 :r0\n", ".word 99999999999\n",
          "plus+4294967299 r0,r1 :r0\n", "plus+9 r0,r1 :r0\n",
          "plus #-2147483649,#0 :r0\n", ".word 4294967296\n"}) {
        try {
            assemble(std::string("fret\n") + source);
            ADD_FAILURE() << "accepted: " << source;
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()).rfind("fatal: line 2:", 0), 0u)
                << e.what();
        }
    }
    // Both ends of the word range still assemble, signed or unsigned.
    EXPECT_EQ(assemble(".word 4294967295\n.word -2147483648\n").words,
              (std::vector<Word>{0xFFFFFFFFu, 0x80000000u}));
    EXPECT_EQ(assemble("plus #4294967295,#0 :r0\n").words,
              assemble("plus #-1,#0 :r0\n").words);
    EXPECT_EQ(assemble("plus+7 r0,r1 :r0\n").words,
              assemble("plus+++++++ r0,r1 :r0\n").words);
}

TEST(Assembler, DisassemblerRoundTripsText)
{
    std::string source =
        "start:\n"
        "  plus++ r0,r1 :r0,r2 >\n"
        "  dup1 :r30\n"
        "  minus #0,r0 :r17\n"
        "  bne r17,@start\n"
        "  trap #3,#0\n"
        "  fret\n";
    ObjectCode code = assemble(source);
    auto lines = disassemble(code);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines[0], "start:");
    EXPECT_NE(lines[1].find("plus+2 r0,r1 :r0,r2 >"), std::string::npos);
    // Re-decode everything without throwing.
    std::size_t index = 0;
    while (index < code.words.size())
        Instruction::decode(code.words, index);
}

/**
 * Every PE fetches through DecodedProgram: at every PC of @p words its
 * entry must match Instruction::decode (instruction, next PC, size),
 * or both must panic (an immediate word read as an instruction may be
 * illegal or run off the end).
 */
void
expectDecodeCacheMatches(const std::vector<Word> &words)
{
    DecodedProgram decoded(words);
    for (std::size_t pc = 0; pc < words.size(); ++pc) {
        std::size_t next = pc;
        std::optional<Instruction> direct;
        try {
            direct = Instruction::decode(words, next);
        } catch (const PanicError &) {
        }
        auto at = static_cast<Word>(pc);
        if (!direct) {
            EXPECT_THROW(decoded.at(at), PanicError) << "pc " << pc;
            continue;
        }
        const DecodedOp &op = decoded.at(at);
        EXPECT_EQ(op.instr.toString(), direct->toString()) << "pc " << pc;
        EXPECT_EQ(op.nextPc, next) << "pc " << pc;
        EXPECT_EQ(op.sizeWords, direct->sizeWords()) << "pc " << pc;
    }
}

TEST(DecodedProgram, MatchesDecodeOnCompiledPrograms)
{
    for (const programs::Benchmark &b : programs::thesisBenchmarks()) {
        SCOPED_TRACE(b.name);
        expectDecodeCacheMatches(occam::compileOccam(b.source).object.words);
    }
    for (int i = 0; i < 4; ++i) {
        std::string source = fuzz::ProgramGen(fuzz::corpusSeed(i)).generate();
        SCOPED_TRACE(source);
        expectDecodeCacheMatches(occam::compileOccam(source).object.words);
    }
}

TEST(DecodedProgram, OutOfRangeAndTruncatedPanicLikeDecode)
{
    // The second instruction's immediate word is cut off.
    std::vector<Word> words =
        assemble("  plus #1,#2 :r17\n  plus #100000,#0 :r18\n").words;
    words.pop_back();
    DecodedProgram decoded(words);
    for (std::size_t pc : {std::size_t{1}, words.size()}) {
        std::size_t next = pc;
        EXPECT_THROW(Instruction::decode(words, next), PanicError);
        EXPECT_THROW(decoded.at(static_cast<Word>(pc)), PanicError);
    }
    EXPECT_EQ(decoded.at(0).nextPc, 1u);
}

} // namespace

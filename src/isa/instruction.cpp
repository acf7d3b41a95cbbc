#include "isa/instruction.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <vector>

#include "support/diagnostics.hpp"

namespace qm::isa {

namespace {

struct MnemonicEntry
{
    std::string_view name;
    Opcode op;
};

/** Every opcode and its mnemonic, in Table 5.2 order. */
constexpr std::array<MnemonicEntry, 34> kOpcodes = {{
    {"dup1", Opcode::Dup1},     {"dup2", Opcode::Dup2},
    {"send", Opcode::Send},     {"store", Opcode::Store},
    {"storb", Opcode::Storb},   {"recv", Opcode::Recv},
    {"fetch", Opcode::Fetch},   {"fchb", Opcode::Fchb},
    {"or", Opcode::Or},         {"and", Opcode::And},
    {"xor", Opcode::Xor},       {"lshift", Opcode::Lshift},
    {"rshift", Opcode::Rshift}, {"plus", Opcode::Plus},
    {"minus", Opcode::Minus},   {"mul", Opcode::Mul},
    {"div", Opcode::Div},       {"rem", Opcode::Rem},
    {"ge", Opcode::Ge},         {"ne", Opcode::Ne},
    {"gt", Opcode::Gt},         {"lt", Opcode::Lt},
    {"eq", Opcode::Eq},         {"le", Opcode::Le},
    {"his", Opcode::His},       {"hi", Opcode::Hi},
    {"lo", Opcode::Lo},         {"los", Opcode::Los},
    {"bne", Opcode::Bne},       {"beq", Opcode::Beq},
    {"ftrap", Opcode::Ftrap},   {"trap", Opcode::Trap},
    {"fret", Opcode::Fret},     {"rett", Opcode::Rett},
}};

/** Mnemonic per 6-bit opcode field value; empty when unassigned. */
constexpr auto kMnemonicOf = [] {
    std::array<std::string_view, 64> table{};
    for (const MnemonicEntry &entry : kOpcodes)
        table[static_cast<std::size_t>(entry.op)] = entry.name;
    return table;
}();

/** kOpcodes sorted by name, for binary search. */
constexpr auto kOpcodesByName = [] {
    std::array<MnemonicEntry, kOpcodes.size()> table = kOpcodes;
    std::sort(table.begin(), table.end(),
              [](const MnemonicEntry &a, const MnemonicEntry &b) {
                  return a.name < b.name;
              });
    return table;
}();

constexpr Word kImmWordMarker = 0b110000;

} // namespace

std::string_view
mnemonic(Opcode op)
{
    auto code = static_cast<std::size_t>(op);
    panicIf(code >= kMnemonicOf.size() || kMnemonicOf[code].empty(),
            "unknown opcode ", static_cast<int>(op));
    return kMnemonicOf[code];
}

bool
opcodeFromMnemonic(std::string_view name, Opcode &out)
{
    auto it = std::lower_bound(
        kOpcodesByName.begin(), kOpcodesByName.end(), name,
        [](const MnemonicEntry &entry, std::string_view key) {
            return entry.name < key;
        });
    if (it == kOpcodesByName.end() || it->name != name)
        return false;
    out = it->op;
    return true;
}

Src
Src::window(int n)
{
    panicIf(n < 0 || n > 15, "window register out of range: ", n);
    return Src{SrcKind::WindowReg, n, 0};
}

Src
Src::global(int n)
{
    panicIf(n < 16 || n > 31, "global register out of range: ", n);
    return Src{SrcKind::GlobalReg, n, 0};
}

Src
Src::anyReg(int n)
{
    return n < 16 ? window(n) : global(n);
}

Src
Src::immediate(SWord value)
{
    if (value >= kSmallImmMin && value <= kSmallImmMax)
        return Src{SrcKind::SmallImm, 0, value};
    return Src{SrcKind::ImmWord, 0, value};
}

int
Src::regNumber() const
{
    panicIf(!isReg(), "source is not a register");
    return reg;
}

namespace {

/** Encode one 6-bit source field; may append an immediate word later. */
Word
encodeSrc(const Src &src, bool &needs_imm_word)
{
    needs_imm_word = false;
    switch (src.kind) {
      case SrcKind::None:
        return 0b100000;  // small immediate 0
      case SrcKind::WindowReg:
        panicIf(src.reg < 0 || src.reg > 15, "bad window reg");
        return static_cast<Word>(src.reg);
      case SrcKind::GlobalReg:
        panicIf(src.reg < 16 || src.reg > 31, "bad global reg");
        return 0b010000 | static_cast<Word>(src.reg - 16);
      case SrcKind::SmallImm: {
        panicIf(src.imm < kSmallImmMin || src.imm > kSmallImmMax,
                "small immediate out of range: ", src.imm);
        Word bits = static_cast<Word>(src.imm) & 0x1F;
        panicIf((0b100000 | bits) == kImmWordMarker,
                "small immediate collides with imm-word marker");
        return 0b100000 | bits;
      }
      case SrcKind::ImmWord:
        needs_imm_word = true;
        return kImmWordMarker;
    }
    panic("unreachable src kind");
}

Src
decodeSrc(Word field, const std::vector<Word> &words, std::size_t &index)
{
    if ((field & 0b110000) == 0)
        return Src::window(static_cast<int>(field & 0xF));
    if ((field & 0b110000) == 0b010000)
        return Src::global(16 + static_cast<int>(field & 0xF));
    if (field == kImmWordMarker) {
        panicIf(index >= words.size(), "truncated immediate word");
        Word literal = words[index++];
        Src src;
        src.kind = SrcKind::ImmWord;
        src.imm = static_cast<SWord>(literal);
        return src;
    }
    // 5-bit signed small immediate.
    int value = static_cast<int>(field & 0x1F);
    if (value >= 16)
        value -= 32;
    Src src;
    src.kind = SrcKind::SmallImm;
    src.imm = value;
    return src;
}

} // namespace

int
Instruction::sizeWords() const
{
    if (isDup(op))
        return 1;
    int size = 1;
    if (src1.kind == SrcKind::ImmWord)
        ++size;
    if (src2.kind == SrcKind::ImmWord)
        ++size;
    return size;
}

void
Instruction::encode(std::vector<Word> &out) const
{
    Word word = 0;
    word |= (continueFlag ? 1u : 0u) << 31;
    word |= (static_cast<Word>(op) & 0x3F) << 25;

    if (isDup(op)) {
        panicIf(dupDst1 < 0 || dupDst1 > 255 || dupDst2 < 0 ||
                    dupDst2 > 255,
                "dup offset out of range");
        word |= static_cast<Word>(dupDst1) << 17;
        word |= static_cast<Word>(dupDst2) << 9;
        out.push_back(word);
        return;
    }

    bool imm1 = false, imm2 = false;
    word |= encodeSrc(src1, imm1) << 19;
    word |= encodeSrc(src2, imm2) << 13;
    panicIf(dst1 < 0 || dst1 > 31 || dst2 < 0 || dst2 > 31,
            "destination register out of range");
    word |= static_cast<Word>(dst1) << 8;
    word |= static_cast<Word>(dst2) << 3;
    panicIf(qpInc < 0 || qpInc > 7, "QP increment out of range: ", qpInc);
    word |= static_cast<Word>(qpInc);
    out.push_back(word);
    if (imm1)
        out.push_back(static_cast<Word>(src1.imm));
    if (imm2)
        out.push_back(static_cast<Word>(src2.imm));
}

Instruction
Instruction::decode(const std::vector<Word> &words, std::size_t &index)
{
    panicIf(index >= words.size(), "decode past end of code");
    Word word = words[index++];
    Instruction instr;
    instr.continueFlag = (word >> 31) & 1;
    instr.op = static_cast<Opcode>((word >> 25) & 0x3F);
    panicIf(kMnemonicOf[(word >> 25) & 0x3F].empty(), "illegal opcode ",
            (word >> 25) & 0x3F);

    if (isDup(instr.op)) {
        instr.dupDst1 = static_cast<int>((word >> 17) & 0xFF);
        instr.dupDst2 = static_cast<int>((word >> 9) & 0xFF);
        return instr;
    }
    instr.src1 = decodeSrc((word >> 19) & 0x3F, words, index);
    instr.src2 = decodeSrc((word >> 13) & 0x3F, words, index);
    instr.dst1 = static_cast<int>((word >> 8) & 0x1F);
    instr.dst2 = static_cast<int>((word >> 3) & 0x1F);
    instr.qpInc = static_cast<int>(word & 0x7);
    return instr;
}

namespace {

std::string
regName(int n)
{
    switch (n) {
      case RegDummy: return "dummy";
      case RegNar: return "nar";
      case RegPom: return "pom";
      case RegQp: return "qp";
      case RegPc: return "pc";
      default: return "r" + std::to_string(n);
    }
}

std::string
srcName(const Src &src)
{
    switch (src.kind) {
      case SrcKind::None: return "#0";
      case SrcKind::WindowReg:
      case SrcKind::GlobalReg: return regName(src.reg);
      case SrcKind::SmallImm:
      case SrcKind::ImmWord: return "#" + std::to_string(src.imm);
    }
    return "?";
}

} // namespace

std::string
Instruction::toString() const
{
    std::ostringstream os;
    os << mnemonic(op);
    if (isDup(op)) {
        os << " :r" << dupDst1;
        if (op == Opcode::Dup2)
            os << ",r" << dupDst2;
    } else {
        if (qpInc > 0)
            os << "+" << qpInc;
        os << " " << srcName(src1) << "," << srcName(src2);
        os << " :" << regName(dst1) << "," << regName(dst2);
    }
    if (continueFlag)
        os << " >";
    return os.str();
}

DecodedProgram::DecodedProgram(const std::vector<Word> &words)
    : words_(&words),
      index_(words.size())
{
}

const DecodedOp &
DecodedProgram::at(Word pc)
{
    panicIf(static_cast<std::size_t>(pc) >= index_.size(),
            "PC out of code bounds: ", pc);
    const DecodedOp *&cached = index_[pc];
    if (cached == nullptr) {
        std::size_t index = pc;
        DecodedOp op;
        op.instr = Instruction::decode(*words_, index);
        op.nextPc = static_cast<Word>(index);
        op.sizeWords = op.instr.sizeWords();
        ops_.push_back(op);  // deque: stable address
        cached = &ops_.back();
    }
    return *cached;
}

} // namespace qm::isa

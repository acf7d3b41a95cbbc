#include "isa/assembler.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <string_view>

#include "support/diagnostics.hpp"

namespace qm::isa {

Addr
ObjectCode::labelAddr(const std::string &name) const
{
    auto it = labels.find(name);
    fatalIf(it == labels.end(), "undefined label '", name, "'");
    return it->second;
}

namespace {

// Character classes of the "C" locale, without the locale lookup.
constexpr bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

constexpr bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

constexpr bool
isNameChar(char c)
{
    return isDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           c == '_' || c == '.' || c == '$';
}

bool
isBranch(Opcode op)
{
    return op == Opcode::Bne || op == Opcode::Beq;
}

/** One parsed statement awaiting address resolution. */
struct Statement
{
    int line = 0;
    bool isDataWord = false;
    Word dataWord = 0;
    Instruction instr;
    /** Label each source references (a view into the source), or empty. */
    std::string_view label1;
    std::string_view label2;
    Addr addr = 0;  ///< Code word index (filled by pass 1).

    /** Words emitted; a label reference always takes an immediate word. */
    Addr
    size() const
    {
        return isDataWord ? 1 : static_cast<Addr>(instr.sizeWords());
    }
};

/**
 * Pass 1: scans the source in place, one line and one token at a time
 * as views into the text, and collects statements and label addresses.
 */
class Parser
{
  public:
    explicit Parser(std::string_view source) : text(source) {}

    std::vector<Statement> statements;
    std::map<std::string, Addr, std::less<>> labels;
    /** Code words the statements occupy. */
    Addr codeWords = 0;

    void
    run()
    {
        statements.reserve(
            static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')) +
            1);
        std::vector<std::string_view> pending_labels;
        int line_no = 0;
        for (std::size_t begin = 0; begin < text.size();) {
            std::size_t end = std::min(text.find('\n', begin), text.size());
            std::string_view body = text.substr(begin, end - begin);
            begin = end + 1;
            ++line_no;
            body = body.substr(0, body.find(';'));
            std::size_t pos = 0;
            skipSpace(body, pos);
            // Leading labels (possibly several on one line).
            // A label's colon must be adjacent to the name; a ':' after
            // whitespace introduces a destination list instead.
            while (true) {
                std::size_t save = pos;
                std::string_view word = takeName(body, pos);
                if (!word.empty() && pos < body.size() &&
                    body[pos] == ':') {
                    ++pos;
                    pending_labels.push_back(word);
                    skipSpace(body, pos);
                } else {
                    pos = save;
                    break;
                }
            }
            if (pos >= body.size())
                continue;
            Statement &st = statements.emplace_back();
            parseStatement(body, pos, line_no, st);
            st.addr = codeWords;
            for (std::string_view l : pending_labels) {
                if (!labels.emplace(l, codeWords).second)
                    fatal("line ", line_no, ": duplicate label '", l, "'");
            }
            pending_labels.clear();
            codeWords += st.size();
        }
        if (!pending_labels.empty())
            fatal("label '", pending_labels.front(),
                  "' at end of file labels nothing");
    }

  private:
    static void
    skipSpace(std::string_view s, std::size_t &pos)
    {
        while (pos < s.size() && isSpace(s[pos]))
            ++pos;
    }

    static std::string_view
    takeName(std::string_view s, std::size_t &pos)
    {
        std::size_t start = pos;
        while (pos < s.size() && isNameChar(s[pos]))
            ++pos;
        return s.substr(start, pos - start);
    }

    /** A number that fits one 32-bit word: -2^31 .. 2^32-1. */
    static std::int64_t
    takeNumber(std::string_view s, std::size_t &pos, int line)
    {
        std::size_t start = pos;
        bool negative = false;
        if (pos < s.size() && (s[pos] == '-' || s[pos] == '+'))
            negative = s[pos++] == '-';
        std::size_t digits = pos;
        while (pos < s.size() && isDigit(s[pos]))
            ++pos;
        if (pos == start)
            fatal("line ", line, ": expected number");
        std::uint64_t magnitude = 0;
        auto [end, ec] = std::from_chars(s.data() + digits, s.data() + pos,
                                         magnitude);
        if (ec != std::errc() ||
            magnitude > (negative ? 0x80000000u : 0xFFFFFFFFu))
            fatal("line ", line, ": number '", s.substr(start, pos - start),
                  "' out of range");
        auto value = static_cast<std::int64_t>(magnitude);
        return negative ? -value : value;
    }

    static int
    parseRegister(std::string_view name, int line)
    {
        if (name == "dummy")
            return RegDummy;
        if (name == "nar")
            return RegNar;
        if (name == "pom")
            return RegPom;
        if (name == "qp")
            return RegQp;
        if (name == "pc")
            return RegPc;
        // The whole suffix must be the number: "r12x" is not r12.
        long n = 0;
        const char *end = name.data() + name.size();
        if (name.size() < 2 || name[0] != 'r' || !isDigit(name[1]) ||
            std::from_chars(name.data() + 1, end, n).ptr != end)
            fatal("line ", line, ": expected register, got '", name, "'");
        if (n > 255)
            fatal("line ", line, ": register r", n, " out of range");
        return static_cast<int>(n);
    }

    /** Parse one source into @p src; returns the label it names, if any. */
    static std::string_view
    parseSrc(std::string_view s, std::size_t &pos, int line, Src &src)
    {
        skipSpace(s, pos);
        if (pos >= s.size())
            fatal("line ", line, ": missing operand");
        if (s[pos] == '#') {
            ++pos;
            src = Src::immediate(
                static_cast<SWord>(takeNumber(s, pos, line)));
            return {};
        }
        if (s[pos] == '@') {
            ++pos;
            std::string_view label = takeName(s, pos);
            if (label.empty())
                fatal("line ", line, ": expected label after '@'");
            src.kind = SrcKind::ImmWord;
            return label;
        }
        int reg = parseRegister(takeName(s, pos), line);
        if (reg > 31)
            fatal("line ", line, ": register r", reg,
                  " not addressable as a source");
        src = Src::anyReg(reg);
        return {};
    }

    static int
    parseDestination(std::string_view s, std::size_t &pos, int line)
    {
        int reg = parseRegister(takeName(s, pos), line);
        if (reg > 31)
            fatal("line ", line, ": destination out of range");
        return reg;
    }

    static void
    parseStatement(std::string_view s, std::size_t &pos, int line,
                   Statement &st)
    {
        st.line = line;
        std::string_view name = takeName(s, pos);
        if (name.empty())
            fatal("line ", line, ": expected mnemonic");

        if (name == ".word") {
            st.isDataWord = true;
            skipSpace(s, pos);
            st.dataWord = static_cast<Word>(takeNumber(s, pos, line));
            expectEnd(s, pos, line);
            return;
        }

        // QP increment suffix: trailing '+' repetitions or "+n".
        std::size_t qp_start = pos;
        int qp_inc = 0;
        while (pos < s.size() && s[pos] == '+') {
            ++pos;
            ++qp_inc;
        }
        if (qp_inc == 1 && pos < s.size() && isDigit(s[pos])) {
            std::size_t digits = pos;
            while (pos < s.size() && isDigit(s[pos]))
                ++pos;
            if (std::from_chars(s.data() + digits, s.data() + pos, qp_inc)
                    .ec != std::errc())
                qp_inc = 8;
        }
        if (qp_inc > 7)
            fatal("line ", line, ": QP increment '",
                  s.substr(qp_start, pos - qp_start),
                  "' out of range 0..7");
        skipSpace(s, pos);
        Opcode op;
        if (!opcodeFromMnemonic(name, op))
            fatal("line ", line, ": unknown mnemonic '", name, "'");
        st.instr.op = op;
        st.instr.qpInc = qp_inc;

        if (isDup(op)) {
            if (pos >= s.size() || s[pos] != ':')
                fatal("line ", line, ": dup needs ':' destinations");
            ++pos;
            skipSpace(s, pos);
            st.instr.dupDst1 = parseRegister(takeName(s, pos), line);
            skipSpace(s, pos);
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                skipSpace(s, pos);
                st.instr.dupDst2 = parseRegister(takeName(s, pos), line);
            } else {
                if (op == Opcode::Dup2)
                    fatal("line ", line, ": dup2 needs two destinations");
                st.instr.dupDst2 = st.instr.dupDst1;
            }
            parseContinue(s, pos, line, st);
            return;
        }

        // Optional sources.
        if (pos < s.size() && s[pos] != ':' && s[pos] != '>') {
            st.label1 = parseSrc(s, pos, line, st.instr.src1);
            skipSpace(s, pos);
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                st.label2 = parseSrc(s, pos, line, st.instr.src2);
                skipSpace(s, pos);
            }
        }
        // Optional destinations.
        if (pos < s.size() && s[pos] == ':') {
            ++pos;
            skipSpace(s, pos);
            st.instr.dst1 = parseDestination(s, pos, line);
            skipSpace(s, pos);
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                skipSpace(s, pos);
                st.instr.dst2 = parseDestination(s, pos, line);
                skipSpace(s, pos);
            }
        }
        parseContinue(s, pos, line, st);
    }

    static void
    parseContinue(std::string_view s, std::size_t &pos, int line,
                  Statement &st)
    {
        skipSpace(s, pos);
        if (pos < s.size() && s[pos] == '>') {
            st.instr.continueFlag = true;
            ++pos;
        }
        expectEnd(s, pos, line);
    }

    static void
    expectEnd(std::string_view s, std::size_t pos, int line)
    {
        skipSpace(s, pos);
        if (pos < s.size())
            fatal("line ", line, ": trailing characters '", s.substr(pos),
                  "'");
    }

    std::string_view text;
};

} // namespace

ObjectCode
assemble(const std::string &source)
{
    Parser parser(source);
    parser.run();

    ObjectCode code;
    code.words.reserve(parser.codeWords);
    for (Statement &st : parser.statements) {
        if (st.isDataWord) {
            code.words.push_back(st.dataWord);
            continue;
        }
        // Resolve label references. Branches take a PC-relative word
        // offset (PC points past the instruction and its immediates);
        // everything else takes the absolute code word address.
        auto resolve = [&](std::string_view label, Src &src) {
            if (label.empty())
                return;
            auto it = parser.labels.find(label);
            if (it == parser.labels.end())
                fatal("line ", st.line, ": undefined label '", label, "'");
            auto target = static_cast<SWord>(it->second);
            src.kind = SrcKind::ImmWord;
            src.imm = isBranch(st.instr.op)
                          ? target - static_cast<SWord>(st.addr + st.size())
                          : target;
        };
        resolve(st.label1, st.instr.src1);
        resolve(st.label2, st.instr.src2);

        panicIf(code.words.size() != st.addr,
                "assembler address drift at line ", st.line);
        st.instr.encode(code.words);
    }
    panicIf(code.words.size() != parser.codeWords, "assembler size drift");
    code.labels = std::move(parser.labels);
    return code;
}

std::vector<std::string>
disassemble(const ObjectCode &code)
{
    // Invert the label map for annotation.
    std::map<Addr, std::vector<std::string>> labels_at;
    for (const auto &[name, addr] : code.labels)
        labels_at[addr].push_back(name);

    std::vector<std::string> lines;
    std::size_t index = 0;
    while (index < code.words.size()) {
        Addr addr = static_cast<Addr>(index);
        std::ostringstream os;
        auto it = labels_at.find(addr);
        if (it != labels_at.end())
            for (const std::string &name : it->second)
                lines.push_back(name + ":");
        Instruction instr = Instruction::decode(code.words, index);
        os << "  " << addr << ": " << instr.toString();
        lines.push_back(os.str());
    }
    return lines;
}

} // namespace qm::isa

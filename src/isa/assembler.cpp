#include "isa/assembler.hpp"

#include <cctype>
#include <sstream>

#include "support/cli.hpp"
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

/** One parsed source-operand token, possibly a label reference. */
struct SrcToken
{
    Src src;
    bool isLabel = false;
    std::string label;
};

/** One parsed statement awaiting address resolution. */
struct Statement
{
    int line = 0;
    bool isDataWord = false;
    Word dataWord = 0;
    Instruction instr;
    SrcToken tok1;
    SrcToken tok2;
    Addr addr = 0;  ///< Code word index (filled by pass 1).
};

class Parser
{
  public:
    explicit Parser(const std::string &source) : text(source) {}

    std::vector<Statement> statements;
    std::map<std::string, Addr> labels;

    void
    run()
    {
        std::istringstream stream(text);
        std::string line;
        int line_no = 0;
        std::vector<std::string> pending_labels;
        Addr addr = 0;
        while (std::getline(stream, line)) {
            ++line_no;
            std::string body = stripComment(line);
            std::size_t pos = 0;
            skipSpace(body, pos);
            // Leading labels (possibly several on one line).
            // A label's colon must be adjacent to the name; a ':' after
            // whitespace introduces a destination list instead.
            while (true) {
                std::size_t save = pos;
                std::string word = takeName(body, pos);
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
            Statement st = parseStatement(body, pos, line_no);
            st.addr = addr;
            for (const std::string &l : pending_labels) {
                fatalIf(labels.count(l), "line ", line_no,
                        ": duplicate label '", l, "'");
                labels[l] = addr;
            }
            pending_labels.clear();
            addr += st.isDataWord
                        ? 1
                        : static_cast<Addr>(sizeOf(st));
            statements.push_back(std::move(st));
        }
        // fatalIf evaluates its message arguments eagerly, so front()
        // on the (usually empty) list must sit behind the check.
        if (!pending_labels.empty())
            fatal("label '", pending_labels.front(),
                  "' at end of file labels nothing");
    }

    /** Worst-case-stable size: label references always take a word. */
    static int
    sizeOf(const Statement &st)
    {
        if (st.isDataWord)
            return 1;
        int size = 1;
        if (st.tok1.isLabel || st.instr.src1.kind == SrcKind::ImmWord)
            ++size;
        if (st.tok2.isLabel || st.instr.src2.kind == SrcKind::ImmWord)
            ++size;
        return size;
    }

  private:
    static std::string
    stripComment(const std::string &line)
    {
        auto pos = line.find(';');
        return pos == std::string::npos ? line : line.substr(0, pos);
    }

    static void
    skipSpace(const std::string &s, std::size_t &pos)
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    static std::string
    takeName(const std::string &s, std::size_t &pos)
    {
        std::string name;
        while (pos < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '_' || s[pos] == '.' || s[pos] == '$'))
            name += s[pos++];
        return name;
    }

    static long
    takeNumber(const std::string &s, std::size_t &pos, int line)
    {
        std::size_t start = pos;
        if (pos < s.size() && (s[pos] == '-' || s[pos] == '+'))
            ++pos;
        while (pos < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[pos])))
            ++pos;
        fatalIf(pos == start, "line ", line, ": expected number");
        auto value = tryParseInt(s.substr(start, pos - start));
        fatalIf(!value, "line ", line, ": number '",
                s.substr(start, pos - start), "' out of range");
        return *value;
    }

    static int
    parseRegister(const std::string &name, int line)
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
        fatalIf(name.size() < 2 || name[0] != 'r' ||
                    !std::isdigit(static_cast<unsigned char>(name[1])),
                "line ", line, ": expected register, got '", name, "'");
        // std::stoi would throw std::out_of_range on "r99999999999"
        // (killing the assembler with an uncaught exception) and
        // silently accept trailing junk like "r12x"; parse the whole
        // suffix and report through the usual line diagnostic.
        auto n = tryParseInt(name.substr(1));
        fatalIf(!n, "line ", line, ": expected register, got '", name,
                "'");
        fatalIf(*n < 0 || *n > 255, "line ", line, ": register r", *n,
                " out of range");
        return static_cast<int>(*n);
    }

    SrcToken
    parseSrc(const std::string &s, std::size_t &pos, int line)
    {
        skipSpace(s, pos);
        SrcToken tok;
        fatalIf(pos >= s.size(), "line ", line, ": missing operand");
        if (s[pos] == '#') {
            ++pos;
            tok.src = Src::immediate(
                static_cast<SWord>(takeNumber(s, pos, line)));
            return tok;
        }
        if (s[pos] == '@') {
            ++pos;
            tok.isLabel = true;
            tok.label = takeName(s, pos);
            fatalIf(tok.label.empty(), "line ", line,
                    ": expected label after '@'");
            tok.src.kind = SrcKind::ImmWord;
            return tok;
        }
        std::string name = takeName(s, pos);
        int reg = parseRegister(name, line);
        fatalIf(reg > 31, "line ", line,
                ": register r", reg, " not addressable as a source");
        tok.src = Src::anyReg(reg);
        return tok;
    }

    Statement
    parseStatement(const std::string &s, std::size_t &pos, int line)
    {
        Statement st;
        st.line = line;
        std::string name = takeName(s, pos);
        fatalIf(name.empty(), "line ", line, ": expected mnemonic");

        if (name == ".word") {
            st.isDataWord = true;
            skipSpace(s, pos);
            st.dataWord =
                static_cast<Word>(takeNumber(s, pos, line));
            expectEnd(s, pos, line);
            return st;
        }

        // QP increment suffix: trailing '+' repetitions or "+n".
        int qp_inc = 0;
        while (pos < s.size() && s[pos] == '+') {
            ++pos;
            ++qp_inc;
        }
        if (qp_inc == 1 && pos < s.size() &&
            std::isdigit(static_cast<unsigned char>(s[pos]))) {
            qp_inc = static_cast<int>(takeNumber(s, pos, line));
        }
        skipSpace(s, pos);
        Opcode op;
        fatalIf(!opcodeFromMnemonic(name, op), "line ", line,
                ": unknown mnemonic '", name, "'");
        st.instr.op = op;
        st.instr.qpInc = qp_inc;

        skipSpace(s, pos);
        if (isDup(op)) {
            fatalIf(pos >= s.size() || s[pos] != ':', "line ", line,
                    ": dup needs ':' destinations");
            ++pos;
            skipSpace(s, pos);
            st.instr.dupDst1 =
                parseRegister(takeName(s, pos), line);
            skipSpace(s, pos);
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                skipSpace(s, pos);
                st.instr.dupDst2 =
                    parseRegister(takeName(s, pos), line);
            } else {
                fatalIf(op == Opcode::Dup2, "line ", line,
                        ": dup2 needs two destinations");
                st.instr.dupDst2 = st.instr.dupDst1;
            }
            parseContinue(s, pos, line, st);
            return st;
        }

        // Optional sources.
        if (pos < s.size() && s[pos] != ':' && s[pos] != '>') {
            st.tok1 = parseSrc(s, pos, line);
            st.instr.src1 = st.tok1.src;
            skipSpace(s, pos);
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                st.tok2 = parseSrc(s, pos, line);
                st.instr.src2 = st.tok2.src;
                skipSpace(s, pos);
            }
        }
        // Optional destinations.
        if (pos < s.size() && s[pos] == ':') {
            ++pos;
            skipSpace(s, pos);
            st.instr.dst1 = parseRegister(takeName(s, pos), line);
            fatalIf(st.instr.dst1 > 31, "line ", line,
                    ": destination out of range");
            skipSpace(s, pos);
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                skipSpace(s, pos);
                st.instr.dst2 = parseRegister(takeName(s, pos), line);
                fatalIf(st.instr.dst2 > 31, "line ", line,
                        ": destination out of range");
                skipSpace(s, pos);
            }
        }
        parseContinue(s, pos, line, st);
        return st;
    }

    void
    parseContinue(const std::string &s, std::size_t &pos, int line,
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
    expectEnd(const std::string &s, std::size_t pos, int line)
    {
        while (pos < s.size()) {
            fatalIf(!std::isspace(static_cast<unsigned char>(s[pos])),
                    "line ", line, ": trailing characters '",
                    s.substr(pos), "'");
            ++pos;
        }
    }

    const std::string &text;
};

bool
isBranch(Opcode op)
{
    return op == Opcode::Bne || op == Opcode::Beq;
}

} // namespace

ObjectCode
assemble(const std::string &source)
{
    Parser parser(source);
    parser.run();

    ObjectCode code;
    code.labels = parser.labels;

    for (Statement &st : parser.statements) {
        if (st.isDataWord) {
            code.words.push_back(st.dataWord);
            continue;
        }
        // Resolve label references. Branches take a PC-relative word
        // offset (PC points past the instruction and its immediates);
        // everything else takes the absolute code word address.
        auto resolve = [&](SrcToken &tok, Src &src) {
            if (!tok.isLabel)
                return;
            auto it = parser.labels.find(tok.label);
            fatalIf(it == parser.labels.end(), "line ", st.line,
                    ": undefined label '", tok.label, "'");
            Addr target = it->second;
            if (isBranch(st.instr.op)) {
                Addr next = st.addr +
                            static_cast<Addr>(Parser::sizeOf(st));
                src.kind = SrcKind::ImmWord;
                src.imm = static_cast<SWord>(target) -
                          static_cast<SWord>(next);
            } else {
                src.kind = SrcKind::ImmWord;
                src.imm = static_cast<SWord>(target);
            }
        };
        resolve(st.tok1, st.instr.src1);
        resolve(st.tok2, st.instr.src2);

        panicIf(code.words.size() != st.addr,
                "assembler address drift at line ", st.line);
        st.instr.encode(code.words);
        panicIf(code.words.size() !=
                    st.addr + static_cast<Addr>(Parser::sizeOf(st)),
                "assembler size drift at line ", st.line);
    }
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

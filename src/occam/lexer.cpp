#include "occam/lexer.hpp"

#include <cctype>
#include <map>

#include "support/cli.hpp"
#include "support/diagnostics.hpp"

namespace qm::occam {

namespace {

const std::map<std::string, Tok> kKeywords = {
    {"seq", Tok::KwSeq},     {"par", Tok::KwPar},
    {"if", Tok::KwIf},       {"while", Tok::KwWhile},
    {"var", Tok::KwVar},     {"chan", Tok::KwChan},
    {"def", Tok::KwDef},     {"proc", Tok::KwProc},
    {"skip", Tok::KwSkip},   {"wait", Tok::KwWait},
    {"value", Tok::KwValue}, {"for", Tok::KwFor},
    {"true", Tok::KwTrue},   {"false", Tok::KwFalse},
    {"and", Tok::KwAnd},     {"or", Tok::KwOr},
    {"not", Tok::KwNot},     {"now", Tok::KwNow},
    {"after", Tok::KwAfter},
};

} // namespace

std::string_view
tokName(Tok kind)
{
    switch (kind) {
      case Tok::Newline: return "newline";
      case Tok::Indent: return "indent";
      case Tok::Dedent: return "dedent";
      case Tok::EndOfFile: return "end of file";
      case Tok::Number: return "number";
      case Tok::Name: return "name";
      case Tok::Assign: return "':='";
      case Tok::Query: return "'?'";
      case Tok::Bang: return "'!'";
      case Tok::Colon: return "':'";
      case Tok::Comma: return "','";
      case Tok::LParen: return "'('";
      case Tok::RParen: return "')'";
      case Tok::LBracket: return "'['";
      case Tok::RBracket: return "']'";
      case Tok::Eq: return "'='";
      case Tok::Neq: return "'<>'";
      case Tok::Lt: return "'<'";
      case Tok::Gt: return "'>'";
      case Tok::Le: return "'<='";
      case Tok::Ge: return "'>='";
      case Tok::Plus: return "'+'";
      case Tok::Minus: return "'-'";
      case Tok::Star: return "'*'";
      case Tok::Slash: return "'/'";
      case Tok::Backslash: return "'\\'";
      default: return "keyword";
    }
}

std::vector<Token>
lex(const std::string &source)
{
    std::vector<Token> tokens;
    std::vector<int> indents{0};
    std::size_t pos = 0;
    std::size_t line_start = 0;
    int line = 0;

    // Columns are 1-based character offsets from the line start (a
    // tab counts as one character, matching what an editor's column
    // indicator shows for the raw byte offset).
    auto colOf = [&](std::size_t at) {
        return static_cast<int>(at - line_start) + 1;
    };
    auto emit = [&](Tok kind, std::size_t at, std::string text = {},
                    long value = 0) {
        tokens.push_back(
            Token{kind, std::move(text), value, line, colOf(at)});
    };

    while (pos < source.size()) {
        ++line;
        line_start = pos;
        // Measure indentation of this line.
        int indent = 0;
        while (pos < source.size() &&
               (source[pos] == ' ' || source[pos] == '\t')) {
            indent += source[pos] == '\t' ? 8 : 1;
            ++pos;
        }
        // Blank or comment-only lines do not affect indentation.
        std::size_t line_end = source.find('\n', pos);
        if (line_end == std::string::npos)
            line_end = source.size();
        std::size_t content_end = line_end;
        // Strip "--" comments.
        for (std::size_t i = pos; i + 1 < content_end; ++i) {
            if (source[i] == '-' && source[i + 1] == '-') {
                content_end = i;
                break;
            }
        }
        bool blank = true;
        for (std::size_t i = pos; i < content_end; ++i) {
            if (!std::isspace(static_cast<unsigned char>(source[i]))) {
                blank = false;
                break;
            }
        }
        if (blank) {
            pos = line_end < source.size() ? line_end + 1 : line_end;
            continue;
        }

        // Indentation bookkeeping.
        if (indent > indents.back()) {
            indents.push_back(indent);
            emit(Tok::Indent, pos);
        } else {
            while (indent < indents.back()) {
                indents.pop_back();
                emit(Tok::Dedent, pos);
            }
            fatalIf(indent != indents.back(), "line ", line, ":",
                    colOf(pos), ": inconsistent indentation");
        }

        // Tokenize the line content.
        std::size_t i = pos;
        while (i < content_end) {
            char c = source[i];
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++i;
                continue;
            }
            if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
                std::size_t start = i;
                std::string name;
                while (i < content_end &&
                       (std::isalnum(
                            static_cast<unsigned char>(source[i])) ||
                        source[i] == '_' || source[i] == '.'))
                    name += source[i++];
                auto it = kKeywords.find(name);
                if (it != kKeywords.end())
                    emit(it->second, start, name);
                else
                    emit(Tok::Name, start, name);
                continue;
            }
            if (std::isdigit(static_cast<unsigned char>(c))) {
                std::size_t start = i;
                std::string digits;
                while (i < content_end &&
                       std::isdigit(
                           static_cast<unsigned char>(source[i])))
                    digits += source[i++];
                // Values are signed 32-bit words, and a literal is
                // never negative (unary minus is an operator).
                std::optional<long> value = tryParseInt(digits);
                fatalIf(!value || *value > 2147483647, "line ", line, ":",
                        colOf(start), ": literal ", digits,
                        " exceeds 2147483647");
                emit(Tok::Number, start, digits, *value);
                continue;
            }
            auto two = [&](char second) {
                return i + 1 < content_end && source[i + 1] == second;
            };
            switch (c) {
              case ':':
                if (two('=')) {
                    emit(Tok::Assign, i);
                    i += 2;
                } else {
                    emit(Tok::Colon, i);
                    ++i;
                }
                continue;
              case '<':
                if (two('>')) {
                    emit(Tok::Neq, i);
                    i += 2;
                } else if (two('=')) {
                    emit(Tok::Le, i);
                    i += 2;
                } else {
                    emit(Tok::Lt, i);
                    ++i;
                }
                continue;
              case '>':
                if (two('=')) {
                    emit(Tok::Ge, i);
                    i += 2;
                } else {
                    emit(Tok::Gt, i);
                    ++i;
                }
                continue;
              case '?': emit(Tok::Query, i); ++i; continue;
              case '!': emit(Tok::Bang, i); ++i; continue;
              case ',': emit(Tok::Comma, i); ++i; continue;
              case '(': emit(Tok::LParen, i); ++i; continue;
              case ')': emit(Tok::RParen, i); ++i; continue;
              case '[': emit(Tok::LBracket, i); ++i; continue;
              case ']': emit(Tok::RBracket, i); ++i; continue;
              case '=': emit(Tok::Eq, i); ++i; continue;
              case '+': emit(Tok::Plus, i); ++i; continue;
              case '-': emit(Tok::Minus, i); ++i; continue;
              case '*': emit(Tok::Star, i); ++i; continue;
              case '/': emit(Tok::Slash, i); ++i; continue;
              case '\\': emit(Tok::Backslash, i); ++i; continue;
              default:
                fatal("line ", line, ":", colOf(i),
                      ": unexpected character '", c, "'");
            }
        }
        emit(Tok::Newline, i);
        pos = line_end < source.size() ? line_end + 1 : line_end;
    }
    // Close all open blocks.
    ++line;
    while (indents.size() > 1) {
        indents.pop_back();
        tokens.push_back(Token{Tok::Dedent, {}, 0, line, 1});
    }
    tokens.push_back(Token{Tok::EndOfFile, {}, 0, line, 1});
    return tokens;
}

} // namespace qm::occam

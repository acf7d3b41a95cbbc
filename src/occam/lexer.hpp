/**
 * @file
 * Lexer for the OCCAM subset (thesis Chapter 4).
 *
 * OCCAM structure is indentation-based: the children of a constructor
 * (seq/par/if/while/proc) are indented two spaces beyond it. The lexer
 * turns leading white space into Indent/Dedent tokens, Python-style,
 * and "--" comments are stripped to end of line.
 */
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace qm::occam {

enum class Tok
{
    // Structure.
    Newline,
    Indent,
    Dedent,
    EndOfFile,
    // Literals and names.
    Number,
    Name,
    // Keywords.
    KwSeq, KwPar, KwIf, KwWhile, KwVar, KwChan, KwDef, KwProc,
    KwSkip, KwWait, KwValue, KwFor, KwTrue, KwFalse, KwAnd, KwOr,
    KwNot, KwNow, KwAfter,
    // Punctuation and operators.
    Assign,      // :=
    Query,       // ?
    Bang,        // !
    Colon,       // :
    Comma,       // ,
    LParen, RParen, LBracket, RBracket,
    Eq,          // =
    Neq,         // <>
    Lt, Gt, Le, Ge,
    Plus, Minus, Star, Slash, Backslash,
};

struct Token
{
    Tok kind;
    std::string text;  ///< Name or number spelling.
    long value = 0;    ///< Numeric value for Number.
    int line = 0;
    int col = 0;       ///< 1-based column of the token's first char.
};

/** Tokenize @p source; throws FatalError with line:col on errors. */
std::vector<Token> lex(const std::string &source);

/** Human-readable token kind (for diagnostics). */
std::string_view tokName(Tok kind);

} // namespace qm::occam

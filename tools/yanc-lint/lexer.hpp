// Minimal C++ tokenizer for yanc-lint.
//
// Deliberately NOT a compiler frontend: yanc-lint is hermetic (no libclang,
// no include resolution, no preprocessing) so it can gate CI on any machine
// the cpp toolchain builds on.  The rules it serves need exactly this much:
// identifiers, punctuation, literals skipped as opaque blobs, preprocessor
// directives captured whole, and comments retained per line so suppression
// annotations (// yanc-lint: allow(<rule>) <why>) can be honoured.
#pragma once

#include <cctype>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace yanclint {

enum class TokKind {
  identifier,  // identifiers and keywords, undistinguished
  number,
  string_lit,  // "..."/'...'/R"(...)" — content dropped
  punct,       // one punctuator character sequence, e.g. "::", "->", "["
  preproc,     // one whole preprocessor directive (continuations folded)
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;
};

struct LexedFile {
  std::vector<Token> tokens;
  // line -> concatenated comment text appearing on that line (both // and
  // /* */ forms); the suppression scanner reads this.
  std::unordered_map<int, std::string> comments;
  int last_line = 1;
};

inline LexedFile lex(std::string_view src) {
  LexedFile out;
  std::size_t i = 0;
  int line = 1;
  const std::size_t n = src.size();

  auto peek = [&](std::size_t k) -> char {
    return i + k < n ? src[i + k] : '\0';
  };

  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments — recorded, not tokenized.
    if (c == '/' && peek(1) == '/') {
      std::size_t start = i;
      while (i < n && src[i] != '\n') ++i;
      out.comments[line] += std::string(src.substr(start, i - start));
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      int start_line = line;
      std::size_t start = i;
      i += 2;
      while (i < n && !(src[i] == '*' && peek(1) == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      if (i < n) i += 2;
      // A block comment annotates every line it touches.
      std::string text(src.substr(start, i - start));
      for (int l = start_line; l <= line; ++l) out.comments[l] += text;
      continue;
    }
    // Preprocessor directive: swallow to end of line, folding backslash
    // continuations, and emit as one token.
    if (c == '#') {
      int start_line = line;
      std::string text;
      while (i < n) {
        if (src[i] == '\\' && peek(1) == '\n') {
          i += 2;
          ++line;
          text += ' ';
          continue;
        }
        if (src[i] == '\n') break;
        // Comments end a directive for our purposes.
        if (src[i] == '/' && (peek(1) == '/' || peek(1) == '*')) break;
        text += src[i++];
      }
      out.tokens.push_back(Token{TokKind::preproc, text, start_line});
      continue;
    }
    // Raw string literal: R"delim(...)delim", with or without an encoding
    // prefix (LR, u8R, uR, UR — the identifier branch below routes those
    // here).  Consumed as one opaque token; the body is never escaped, so
    // the ordinary quote scanner must not see it.
    auto lex_raw_string = [&](std::size_t lit_start) -> bool {
      // i points at the opening '"' of R"...; lit_start at the prefix.
      std::size_t delim_start = i + 1;
      std::size_t paren = src.find('(', delim_start);
      if (paren == std::string_view::npos) return false;
      std::string close(1, ')');
      close += src.substr(delim_start, paren - delim_start);
      close += '"';
      std::size_t end = src.find(close, paren + 1);
      int start_line = line;
      std::size_t stop =
          end == std::string_view::npos ? n : end + close.size();
      for (std::size_t k = lit_start; k < stop; ++k)
        if (src[k] == '\n') ++line;
      i = stop;
      out.tokens.push_back(Token{TokKind::string_lit, "R\"...\"", start_line});
      return true;
    };
    if (c == 'R' && peek(1) == '"') {
      std::size_t lit_start = i;
      ++i;  // onto the '"'
      if (lex_raw_string(lit_start)) continue;
      i = lit_start;  // malformed (no '('): fall through to other branches
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      int start_line = line;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\') ++i;
        else if (src[i] == '\n') ++line;  // unterminated; keep counting
        ++i;
      }
      if (i < n) ++i;
      out.tokens.push_back(Token{TokKind::string_lit,
                                 quote == '"' ? "\"...\"" : "'...'",
                                 start_line});
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(src[i])) ||
                       src[i] == '_'))
        ++i;
      std::string_view id = src.substr(start, i - start);
      // Encoding prefixes glue to the literal that follows.  Without this,
      // LR"(...)" lexes as identifier `LR` plus an ordinary string, and the
      // raw body's unescaped quotes/backslashes corrupt every token after.
      if (i < n && src[i] == '"' &&
          (id == "R" || id == "LR" || id == "u8R" || id == "uR" ||
           id == "UR")) {
        if (lex_raw_string(start)) continue;
      }
      if (i < n && (src[i] == '"' || src[i] == '\'') &&
          (id == "L" || id == "u8" || id == "u" || id == "U")) {
        continue;  // the quote branch consumes the literal next iteration
      }
      out.tokens.push_back(Token{TokKind::identifier, std::string(id), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = i;
      while (i < n) {
        char d = src[i];
        if (std::isalnum(static_cast<unsigned char>(d)) || d == '.') {
          ++i;
          continue;
        }
        // Digit separator: a ' inside a number only when flanked by
        // alphanumerics (1'000'000, 0xfff'f).  A bare trailing ' belongs
        // to the next token (a char literal), not to this number.
        if (d == '\'' && i + 1 < n &&
            std::isalnum(static_cast<unsigned char>(src[i + 1]))) {
          ++i;
          continue;
        }
        break;
      }
      out.tokens.push_back(
          Token{TokKind::number, std::string(src.substr(start, i - start)),
                line});
      continue;
    }
    // Punctuation: greedily match the few multi-char operators the rules
    // care about; everything else is a single character.
    static constexpr std::string_view kMulti[] = {"->*", "<<=", ">>=", "...",
                                                  "::", "->", "[[", "]]",
                                                  "<<", ">>", "<=", ">=",
                                                  "==", "!=", "&&", "||",
                                                  "+=", "-=", "*=", "/=",
                                                  "++", "--"};
    std::string text(1, c);
    for (std::string_view m : kMulti) {
      if (src.substr(i, m.size()) == m) {
        text = std::string(m);
        break;
      }
    }
    i += text.size();
    out.tokens.push_back(Token{TokKind::punct, std::move(text), line});
  }
  out.last_line = line;
  return out;
}

}  // namespace yanclint

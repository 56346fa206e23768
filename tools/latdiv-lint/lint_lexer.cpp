#include "lint_lexer.hpp"

#include <cctype>
#include <cstddef>

namespace latdiv::lint {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Two-character punctuators worth keeping whole.  Deliberately absent:
// ">>" (template closers) and "<<" (so "<" always opens a template when
// the parser balances angle brackets).
constexpr std::string_view kTwoCharPuncts[] = {
    "::", "->", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "[[", "]]",
};

}  // namespace

void lex(std::string_view s, FileModel& out) {
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;

  auto push = [&](Token::Kind k, std::string text, int ln) {
    out.tokens.push_back(Token{k, std::move(text), ln});
  };

  while (i < s.size()) {
    char c = s[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: skip to end of line, honoring continuations.
    if (c == '#' && at_line_start) {
      while (i < s.size()) {
        if (s[i] == '\\' && i + 1 < s.size() && s[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (s[i] == '\n') break;
        ++i;
      }
      continue;
    }
    at_line_start = false;
    // Line comment.
    if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') {
      std::size_t j = i + 2;
      while (j < s.size() && s[j] != '\n') ++j;
      out.comments.push_back(Comment{line, std::string(s.substr(i + 2, j - i - 2))});
      i = j;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < s.size() && s[i + 1] == '*') {
      int start_line = line;
      std::size_t j = i + 2;
      while (j + 1 < s.size() && !(s[j] == '*' && s[j + 1] == '/')) {
        if (s[j] == '\n') ++line;
        ++j;
      }
      out.comments.push_back(
          Comment{start_line, std::string(s.substr(i + 2, j - i - 2))});
      i = (j + 1 < s.size()) ? j + 2 : s.size();
      continue;
    }
    // Raw string literal.
    if (c == 'R' && i + 1 < s.size() && s[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < s.size() && s[j] != '(') delim += s[j++];
      std::string closer = ")" + delim + "\"";
      std::size_t end = s.find(closer, j);
      if (end == std::string_view::npos) end = s.size();
      for (std::size_t k = i; k < end && k < s.size(); ++k) {
        if (s[k] == '\n') ++line;
      }
      push(Token::Kind::kString, "<raw-string>", line);
      i = (end == s.size()) ? end : end + closer.size();
      continue;
    }
    // String literal.
    if (c == '"') {
      std::size_t j = i + 1;
      while (j < s.size() && s[j] != '"') {
        if (s[j] == '\\' && j + 1 < s.size()) ++j;
        ++j;
      }
      push(Token::Kind::kString, "<string>", line);
      i = (j < s.size()) ? j + 1 : j;
      continue;
    }
    // Char literal (only when it cannot be a digit separator context;
    // identifiers/numbers are consumed before we ever see their ').
    if (c == '\'') {
      std::size_t j = i + 1;
      while (j < s.size() && s[j] != '\'') {
        if (s[j] == '\\' && j + 1 < s.size()) ++j;
        ++j;
      }
      push(Token::Kind::kChar, "<char>", line);
      i = (j < s.size()) ? j + 1 : j;
      continue;
    }
    // Identifier / keyword.
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < s.size() && ident_char(s[j])) ++j;
      push(Token::Kind::kIdent, std::string(s.substr(i, j - i)), line);
      i = j;
      continue;
    }
    // Number (accepts digit separators, suffixes, hex, floats).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < s.size() &&
             (ident_char(s[j]) || s[j] == '.' || s[j] == '\'' ||
              ((s[j] == '+' || s[j] == '-') && j > i &&
               (s[j - 1] == 'e' || s[j - 1] == 'E' || s[j - 1] == 'p' ||
                s[j - 1] == 'P')))) {
        ++j;
      }
      push(Token::Kind::kNumber, std::string(s.substr(i, j - i)), line);
      i = j;
      continue;
    }
    // Punctuation: try two-char forms first.
    if (i + 1 < s.size()) {
      std::string_view two = s.substr(i, 2);
      bool matched = false;
      for (std::string_view p : kTwoCharPuncts) {
        if (two == p) {
          push(Token::Kind::kPunct, std::string(two), line);
          i += 2;
          matched = true;
          break;
        }
      }
      if (matched) continue;
    }
    push(Token::Kind::kPunct, std::string(1, c), line);
    ++i;
  }
}

void collect_suppressions(FileModel& out) {
  for (const Comment& c : out.comments) {
    std::size_t pos = c.text.find("lint:");
    if (pos == std::string::npos) continue;
    std::size_t j = pos + 5;
    // Directives: comma-separated kebab-case words after "lint:".
    while (j < c.text.size()) {
      while (j < c.text.size() &&
             (c.text[j] == ' ' || c.text[j] == '\t' || c.text[j] == ',')) {
        ++j;
      }
      std::size_t k = j;
      while (k < c.text.size() &&
             (std::isalnum(static_cast<unsigned char>(c.text[k])) ||
              c.text[k] == '-')) {
        ++k;
      }
      if (k == j) break;
      std::string word = c.text.substr(j, k - j);
      j = k;
      // Only the first directive group is parsed; trailing prose after a
      // space that is not a directive ends the list.
      Suppression sup;
      sup.line = c.line;
      sup.directive = word;
      if (word.size() > 3 && word.ends_with("-ok")) {
        sup.rule = word.substr(0, word.size() - 3);
      } else {
        sup.rule = "";  // unknown directive; reported by unused-suppression
      }
      out.sups.push_back(std::move(sup));
      break;  // one directive per comment (matches tools/lint.sh behavior)
    }
  }
}

}  // namespace latdiv::lint

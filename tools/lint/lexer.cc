#include "lexer.h"

#include <algorithm>
#include <cctype>
#include <set>

namespace picloud::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// Translation phase 2: splice backslash-newline pairs so a macro definition
// (or any token) continued across physical lines lexes as one logical run.
// Positions map each logical char back to its physical line/column so token
// locations stay meaningful.
struct Spliced {
  std::string text;
  std::vector<int> line;
  std::vector<int> col;
};

Spliced splice(const std::string& content) {
  Spliced out;
  out.text.reserve(content.size());
  int line = 1, col = 1;
  for (std::size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    if (c == '\\' && i + 1 < content.size() &&
        (content[i + 1] == '\n' ||
         (content[i + 1] == '\r' && i + 2 < content.size() &&
          content[i + 2] == '\n'))) {
      i += content[i + 1] == '\r' ? 2 : 1;
      ++line;
      col = 1;
      continue;
    }
    out.text.push_back(c);
    out.line.push_back(line);
    out.col.push_back(col);
    if (c == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  return out;
}

// Longest-match punctuator table (only multi-char ones; any single char is
// its own fallback token). "::" and "->" matter most to the rules: receiver
// detection and qualified-name classification key off them.
const char* const kPuncts3[] = {"<<=", ">>=", "->*", "..."};
const char* const kPuncts2[] = {"::", "->", "<<", ">>", "<=", ">=", "==",
                                "!=", "&&", "||", "+=", "-=", "*=", "/=",
                                "%=", "&=", "|=", "^=", "++", "--", ".*",
                                "##"};

const std::set<std::string>& keywords() {
  static const std::set<std::string> kw = {
      "alignas",   "alignof",      "and",        "and_eq",
      "asm",       "auto",         "bitand",     "bitor",
      "bool",      "break",        "case",       "catch",
      "char",      "char8_t",      "char16_t",   "char32_t",
      "class",     "co_await",     "co_return",  "co_yield",
      "compl",     "concept",      "const",      "const_cast",
      "consteval", "constexpr",    "constinit",  "continue",
      "decltype",  "default",      "delete",     "do",
      "double",    "dynamic_cast", "else",       "enum",
      "explicit",  "export",       "extern",     "false",
      "float",     "for",          "friend",     "goto",
      "if",        "inline",       "int",        "long",
      "mutable",   "namespace",    "new",        "noexcept",
      "not",       "not_eq",       "nullptr",    "operator",
      "or",        "or_eq",        "private",    "protected",
      "public",    "register",     "reinterpret_cast",
      "requires",  "return",       "short",      "signed",
      "sizeof",    "static",       "static_assert",
      "static_cast", "struct",     "switch",     "template",
      "this",      "thread_local", "throw",      "true",
      "try",       "typedef",      "typeid",     "typename",
      "union",     "unsigned",     "using",      "virtual",
      "void",      "volatile",     "wchar_t",    "while",
      "xor",       "xor_eq",
  };
  return kw;
}

struct Lexer {
  const Spliced& s;
  std::size_t i = 0;
  bool line_fresh = true;  // nothing but whitespace/comments so far this line
  std::vector<Token> out;

  explicit Lexer(const Spliced& spliced) : s(spliced) {}

  char at(std::size_t k) const {
    return k < s.text.size() ? s.text[k] : '\0';
  }
  bool starts_with(std::size_t k, const char* p) const {
    return s.text.compare(k, std::char_traits<char>::length(p), p) == 0;
  }

  Token make(TokenKind kind, std::size_t begin, std::size_t end) {
    Token t;
    t.kind = kind;
    t.text = s.text.substr(begin, end - begin);
    t.line = s.line[begin];
    t.col = s.col[begin];
    return t;
  }

  void emit(TokenKind kind, std::size_t begin, std::size_t end) {
    out.push_back(make(kind, begin, end));
    if (kind != TokenKind::kComment) line_fresh = false;
    i = end;
  }

  // --- literal scanners ------------------------------------------------------

  std::size_t scan_string_end(std::size_t k) {  // k points at opening '"'
    ++k;
    while (k < s.text.size()) {
      if (s.text[k] == '\\') {
        k += 2;
        continue;
      }
      if (s.text[k] == '"') return k + 1;
      ++k;
    }
    return k;  // unterminated: to EOF
  }

  std::size_t scan_char_end(std::size_t k) {  // k points at opening '\''
    ++k;
    while (k < s.text.size() && s.text[k] != '\n') {
      if (s.text[k] == '\\') {
        k += 2;
        continue;
      }
      if (s.text[k] == '\'') return k + 1;
      ++k;
    }
    return k;  // unterminated: stop at newline (best effort)
  }

  std::size_t scan_raw_string_end(std::size_t k) {  // k at '"' after R
    std::size_t open = s.text.find('(', k);
    if (open == std::string::npos || open - k > 17) return scan_string_end(k);
    std::string close = ")";
    close.append(s.text, k + 1, open - k - 1);
    close += '"';
    std::size_t end = s.text.find(close, open + 1);
    if (end == std::string::npos) return s.text.size();
    return end + close.size();
  }

  std::size_t scan_number_end(std::size_t k) {
    // pp-number: digits, identifier chars, '.', digit separators, and
    // exponent signs directly after e/E/p/P.
    ++k;
    while (k < s.text.size()) {
      char c = s.text[k];
      if (ident_char(c) || c == '.') {
        ++k;
      } else if (c == '\'' && ident_char(at(k + 1))) {
        k += 2;  // 1'000'000
      } else if ((c == '+' || c == '-') &&
                 (at(k - 1) == 'e' || at(k - 1) == 'E' || at(k - 1) == 'p' ||
                  at(k - 1) == 'P')) {
        ++k;
      } else {
        break;
      }
    }
    return k;
  }

  // --- directive handling ----------------------------------------------------

  void lex_directive() {
    std::size_t begin = i;
    std::size_t k = i + 1;
    while (k < s.text.size() && (s.text[k] == ' ' || s.text[k] == '\t')) ++k;
    std::size_t name_begin = k;
    while (k < s.text.size() && ident_char(s.text[k])) ++k;
    std::string name = s.text.substr(name_begin, k - name_begin);
    Token t = make(TokenKind::kPpDirective, begin, k);
    t.text = "#" + name;
    out.push_back(t);
    line_fresh = false;
    i = k;
    if (name != "include") return;
    while (i < s.text.size() && (s.text[i] == ' ' || s.text[i] == '\t')) ++i;
    if (at(i) == '<') {
      std::size_t end = s.text.find('>', i);
      end = end == std::string::npos ? s.text.size() : end + 1;
      emit(TokenKind::kHeaderName, i, end);
    } else if (at(i) == '"') {
      emit(TokenKind::kHeaderName, i, scan_string_end(i));
    }
  }

  // --- main loop -------------------------------------------------------------

  void run() {
    while (i < s.text.size()) {
      char c = s.text[i];
      if (c == '\n') {
        line_fresh = true;
        ++i;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
        ++i;
        continue;
      }
      if (c == '/' && at(i + 1) == '/') {
        std::size_t end = s.text.find('\n', i);
        if (end == std::string::npos) end = s.text.size();
        emit(TokenKind::kComment, i, end);
        continue;
      }
      if (c == '/' && at(i + 1) == '*') {
        std::size_t end = s.text.find("*/", i + 2);
        end = end == std::string::npos ? s.text.size() : end + 2;
        emit(TokenKind::kComment, i, end);
        continue;
      }
      if (c == '#' && line_fresh) {
        lex_directive();
        continue;
      }
      if (c == '"') {
        emit(TokenKind::kString, i, scan_string_end(i));
        continue;
      }
      if (c == '\'') {
        emit(TokenKind::kChar, i, scan_char_end(i));
        continue;
      }
      if (digit(c) || (c == '.' && digit(at(i + 1)))) {
        emit(TokenKind::kNumber, i, scan_number_end(i));
        continue;
      }
      if (ident_start(c)) {
        std::size_t end = i + 1;
        while (end < s.text.size() && ident_char(s.text[end])) ++end;
        std::string ident = s.text.substr(i, end - i);
        // Literal prefixes: R"..., u8"..., L'x', etc. lex as one literal.
        bool raw = !ident.empty() && ident.back() == 'R' &&
                   (ident == "R" || ident == "u8R" || ident == "uR" ||
                    ident == "UR" || ident == "LR");
        bool narrow_prefix =
            ident == "u8" || ident == "u" || ident == "U" || ident == "L";
        if (raw && at(end) == '"') {
          emit(TokenKind::kString, i, scan_raw_string_end(end));
          continue;
        }
        if (narrow_prefix && at(end) == '"') {
          emit(TokenKind::kString, i, scan_string_end(end));
          continue;
        }
        if (narrow_prefix && at(end) == '\'') {
          emit(TokenKind::kChar, i, scan_char_end(end));
          continue;
        }
        emit(TokenKind::kIdentifier, i, end);
        continue;
      }
      // Punctuators, longest match first; anything unknown is a 1-char punct.
      bool matched = false;
      for (const char* p : kPuncts3) {
        if (starts_with(i, p)) {
          emit(TokenKind::kPunct, i, i + 3);
          matched = true;
          break;
        }
      }
      if (matched) continue;
      for (const char* p : kPuncts2) {
        if (starts_with(i, p)) {
          emit(TokenKind::kPunct, i, i + 2);
          matched = true;
          break;
        }
      }
      if (matched) continue;
      emit(TokenKind::kPunct, i, i + 1);
    }
  }
};

}  // namespace

std::vector<Token> tokenize(const std::string& content) {
  Spliced spliced = splice(content);
  Lexer lexer(spliced);
  lexer.run();
  return lexer.out;
}

bool is_keyword(const std::string& ident) {
  return keywords().count(ident) > 0;
}

}  // namespace picloud::lint

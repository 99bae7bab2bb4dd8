#include "analyze/lexer.hpp"

#include <cctype>

namespace elmo_analyze {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Two/three-character operators the passes care about.  Longest match
// first; everything else falls back to single-character punctuation.
const char* const kMultiOps[] = {
    "<<=", ">>=", "->*", "...", "::", "<<", ">>", "->", "==", "!=",
    "<=",  ">=",  "&&",  "||",  "+=", "-=", "*=", "/=", "%=", "&=",
    "|=",  "^=",  "++",  "--",
};

bool raw_string_prefix(const std::string& ident) {
  return ident == "R" || ident == "uR" || ident == "UR" || ident == "LR" ||
         ident == "u8R";
}

// `quote` indexes the '"' of R"delim( ... )delim".  Returns the index just
// past the closing quote (std::string::npos when the opener is not a valid
// raw string), bumping `line` for every newline the body spans.  The
// d-char-seq bound matches strip_noncode's: at most 16 characters, none of
// them parentheses, backslashes, quotes or whitespace.
std::size_t skip_raw_string(const std::string& text, std::size_t quote,
                            std::size_t& line) {
  std::size_t open = std::string::npos;
  for (std::size_t j = quote + 1;
       j < text.size() && j <= quote + 1 + 16; ++j) {
    const char d = text[j];
    if (d == '(') {
      open = j;
      break;
    }
    if (d == ')' || d == '"' || d == '\\' ||
        std::isspace(static_cast<unsigned char>(d)) != 0) {
      return std::string::npos;
    }
  }
  if (open == std::string::npos) return std::string::npos;
  std::string terminator = ")";
  terminator.append(text, quote + 1, open - (quote + 1)).append("\"");
  std::size_t end = text.find(terminator, open + 1);
  const std::size_t stop =
      end == std::string::npos ? text.size() : end + terminator.size();
  for (std::size_t j = quote; j < stop && j < text.size(); ++j) {
    if (text[j] == '\n') ++line;
  }
  return stop;
}

// `quote` indexes the opening '"' or '\''.  Returns the index just past
// the closing quote, or past the newline/EOF that cut the literal short.
std::size_t skip_quoted(const std::string& text, std::size_t quote) {
  const char close = text[quote];
  std::size_t j = quote + 1;
  while (j < text.size()) {
    const char c = text[j];
    if (c == '\\' && j + 1 < text.size() && text[j + 1] != '\n') {
      j += 2;
      continue;
    }
    if (c == close) return j + 1;
    if (c == '\n') return j;  // unterminated: let the caller count the line
    ++j;
  }
  return j;
}

}  // namespace

std::vector<Token> lex(const std::string& stripped) {
  std::vector<Token> toks;
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = stripped.size();
  while (i < n) {
    const char c = stripped[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (c == '#') {
      // Preprocessor directive: skip to end of line, honouring backslash
      // continuations.
      while (i < n) {
        std::size_t nl = stripped.find('\n', i);
        if (nl == std::string::npos) {
          i = n;
          break;
        }
        // Find last non-space character before the newline.
        std::size_t last = nl;
        while (last > i &&
               std::isspace(static_cast<unsigned char>(stripped[last - 1])) !=
                   0) {
          --last;
        }
        const bool continued = last > i && stripped[last - 1] == '\\';
        i = nl + 1;
        ++line;
        if (!continued) break;
      }
      continue;
    }
    // String/char literals normally never reach the lexer — the passes
    // feed stripped text — but unit-level callers (and any future pass
    // lexing raw lines) must not have literal bodies leak through as
    // tokens: `R"(send()"` would otherwise emit a phantom `send(`.  The
    // digit-separator guard mirrors the stripper: `1'000` keeps its `'`
    // in stripped text and must stay a number + punctuation.
    if (c == '"' ||
        (c == '\'' &&
         (i == 0 ||
          std::isdigit(static_cast<unsigned char>(stripped[i - 1])) == 0))) {
      i = skip_quoted(stripped, i);
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(stripped[j])) ++j;
      std::string text = stripped.substr(i, j - i);
      if (j < n && stripped[j] == '"' && raw_string_prefix(text)) {
        const std::size_t after = skip_raw_string(stripped, j, line);
        if (after != std::string::npos) {
          i = after;
          continue;
        }
      }
      toks.push_back({Token::Kind::kIdent, std::move(text), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i + 1;
      while (j < n && (ident_char(stripped[j]) || stripped[j] == '.')) ++j;
      toks.push_back({Token::Kind::kNumber, stripped.substr(i, j - i), line});
      i = j;
      continue;
    }
    bool matched = false;
    for (const char* op : kMultiOps) {
      const std::size_t len = std::char_traits<char>::length(op);
      if (stripped.compare(i, len, op) == 0) {
        toks.push_back({Token::Kind::kPunct, op, line});
        i += len;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    toks.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return toks;
}

std::size_t match_backward(const std::vector<Token>& toks,
                           std::size_t close_idx) {
  if (close_idx >= toks.size()) return std::string::npos;
  const std::string& close = toks[close_idx].text;
  std::string open;
  if (close == ")") {
    open = "(";
  } else if (close == "]") {
    open = "[";
  } else if (close == "}") {
    open = "{";
  } else {
    return std::string::npos;
  }
  int depth = 0;
  for (std::size_t i = close_idx + 1; i-- > 0;) {
    if (toks[i].text == close) {
      ++depth;
    } else if (toks[i].text == open) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

std::size_t match_forward(const std::vector<Token>& toks,
                          std::size_t open_idx) {
  if (open_idx >= toks.size()) return std::string::npos;
  const std::string& open = toks[open_idx].text;
  std::string close;
  if (open == "(") {
    close = ")";
  } else if (open == "[") {
    close = "]";
  } else if (open == "{") {
    close = "}";
  } else {
    return std::string::npos;
  }
  int depth = 0;
  for (std::size_t i = open_idx; i < toks.size(); ++i) {
    if (toks[i].text == open) {
      ++depth;
    } else if (toks[i].text == close) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

}  // namespace elmo_analyze

#include "analyze/source.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>

namespace elmo_analyze {

std::string strip_noncode(const std::string& text) {
  std::string out = text;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_terminator;  // e.g. )delim" for R"delim(
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   text[i - 1])) &&
                               text[i - 1] != '_'))) {
          // Raw string: R"delim( ... )delim".  The d-char-seq is at most
          // 16 characters and may not contain parentheses, backslashes,
          // quotes or whitespace — searching for '(' without that bound
          // could cross the literal's own closing quote (or a newline) on
          // a malformed opener, manufacture a garbage terminator, and
          // swallow every line of real code up to its accidental match.
          std::size_t open = std::string::npos;
          for (std::size_t j = i + 2; j < text.size() && j <= i + 2 + 16;
               ++j) {
            const char d = text[j];
            if (d == '(') {
              open = j;
              break;
            }
            if (d == ')' || d == '"' || d == '\\' ||
                std::isspace(static_cast<unsigned char>(d)) != 0) {
              break;  // not a valid d-char: this is no raw string
            }
          }
          if (open != std::string::npos) {
            std::string terminator(1, ')');
            terminator.append(text, i + 2, open - (i + 2)).append("\"");
            raw_terminator = std::move(terminator);
            for (std::size_t j = i; j <= open && j < text.size(); ++j) {
              if (text[j] != '\n') out[j] = ' ';
            }
            i = open;
            state = State::kRawString;
          } else {
            // Invalid opener: treat the quote as an ordinary string so the
            // following characters cannot leak through as code.
            out[i] = ' ';
            out[i + 1] = ' ';
            ++i;
            state = State::kString;
          }
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          // Digit separators (1'000'000) are not char literals.
          if (i > 0 && std::isdigit(static_cast<unsigned char>(text[i - 1]))) {
            break;
          }
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < text.size() && text[i + 1] != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < text.size() && text[i + 1] != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          state = State::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          for (std::size_t j = 0; j < raw_terminator.size(); ++j) {
            out[i + j] = ' ';
          }
          i += raw_terminator.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t find_word(const std::string& text, const std::string& word,
                      std::size_t from) {
  std::size_t pos = from;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return pos;
    pos = end;
  }
  return std::string::npos;
}

std::size_t line_of_offset(const std::string& text, std::size_t offset) {
  std::size_t line = 1;
  for (std::size_t i = 0; i < offset && i < text.size(); ++i) {
    if (text[i] == '\n') ++line;
  }
  return line;
}

bool SourceFile::allows(std::size_t line, const std::string& rule) const {
  const std::string tag = "lint:allow(" + rule + ")";
  if (line == 0 || line > raw_lines.size()) return false;
  const std::size_t idx = line - 1;
  if (raw_lines[idx].find(tag) != std::string::npos) return true;
  return idx > 0 && raw_lines[idx - 1].find(tag) != std::string::npos;
}

bool load_source(const std::string& abs_path, const std::string& report_path,
                 SourceFile& out) {
  std::ifstream in(abs_path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out.path = report_path;
  out.abs_path = abs_path;
  out.raw = buffer.str();
  out.stripped = strip_noncode(out.raw);
  out.raw_lines = split_lines(out.raw);
  out.stripped_lines = split_lines(out.stripped);
  out.is_header = report_path.size() >= 4 &&
                  report_path.compare(report_path.size() - 4, 4, ".hpp") == 0;
  // Module: first directory component after a leading "src/".
  out.module.clear();
  std::size_t src_pos = report_path.rfind("src/");
  if (src_pos != std::string::npos &&
      (src_pos == 0 || report_path[src_pos - 1] == '/')) {
    const std::size_t mod_start = src_pos + 4;
    const std::size_t mod_end = report_path.find('/', mod_start);
    if (mod_end != std::string::npos) {
      out.module = report_path.substr(mod_start, mod_end - mod_start);
    }
  }
  // Tree: which walked top-level tree the path lives under.  Paths outside
  // all of them (fixtures, ad-hoc files) stay "", which the module-gated
  // passes treat as "analyze unconditionally".
  out.tree.clear();
  for (const char* tree : {"src", "tools", "bench", "examples"}) {
    const std::string needle = std::string(tree) + "/";
    const std::size_t pos = report_path.rfind(needle);
    if (pos != std::string::npos &&
        (pos == 0 || report_path[pos - 1] == '/')) {
      out.tree = tree;
      break;
    }
  }
  return true;
}

}  // namespace elmo_analyze

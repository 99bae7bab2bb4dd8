#include "io/efm_writer.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <iterator>

#include "bigint/bigint.hpp"
#include "io/mode_set.hpp"
#include "support/assert.hpp"

namespace elmo {

namespace {

/// Characters std::to_chars writes for `value`.
std::size_t decimal_length(std::int64_t value) {
  std::uint64_t magnitude = value < 0 ? 0 - static_cast<std::uint64_t>(value)
                                      : static_cast<std::uint64_t>(value);
  std::size_t length = value < 0 ? 2 : 1;
  for (; magnitude >= 10; magnitude /= 10) ++length;
  return length;
}

/// Characters append_entry writes for entry `r` of row `i`.
std::size_t entry_length(const ModeSet& modes, std::size_t i, std::size_t r) {
  return modes.is_wide(i) ? modes.wide_row(i)[r].to_string().size()
                          : decimal_length(modes.row(i)[r]);
}

void append_entry(std::string& out, const ModeSet& modes, std::size_t i,
                  std::size_t r) {
  if (modes.is_wide(i)) {
    out += modes.wide_row(i)[r].to_string();
    return;
  }
  char digits[20];  // "-9223372036854775808"
  out.append(std::begin(digits),
             std::to_chars(std::begin(digits), std::end(digits),
                           modes.row(i)[r])
                 .ptr);
}

/// The output size, counted up front so the string never regrows:
/// `per_line` separator bytes on each of `lines` lines, the names, and
/// every entry.
std::size_t output_size(const ModeSet& modes,
                        const std::vector<std::string>& reaction_names,
                        std::size_t lines, std::size_t per_line) {
  ELMO_REQUIRE(modes.empty() || modes.width() == reaction_names.size(),
               "mode dimension mismatch");
  std::size_t size = lines * per_line;
  for (const auto& name : reaction_names) size += name.size();
  for (std::size_t i = 0; i < modes.size(); ++i)
    for (std::size_t r = 0; r < modes.width(); ++r)
      size += entry_length(modes, i, r);
  return size;
}

}  // namespace

std::string efms_to_text(const ModeSet& modes,
                         const std::vector<std::string>& reaction_names) {
  // A line per reaction: a tab before each mode's entry, then a newline.
  std::string out;
  out.reserve(output_size(modes, reaction_names, reaction_names.size(),
                          modes.size() + 1));
  for (std::size_t r = 0; r < reaction_names.size(); ++r) {
    out += reaction_names[r];
    for (std::size_t i = 0; i < modes.size(); ++i) {
      out += '\t';
      append_entry(out, modes, i, r);
    }
    out += '\n';
  }
  return out;
}

std::string efms_to_csv(const ModeSet& modes,
                        const std::vector<std::string>& reaction_names) {
  // A header and a line per mode: width - 1 commas, then a newline.
  const std::size_t width = reaction_names.size();
  std::string out;
  out.reserve(output_size(modes, reaction_names, modes.size() + 1,
                          std::max<std::size_t>(width, 1)));
  for (std::size_t r = 0; r < width; ++r) {
    if (r) out += ',';
    out += reaction_names[r];
  }
  out += '\n';
  for (std::size_t i = 0; i < modes.size(); ++i) {
    for (std::size_t r = 0; r < width; ++r) {
      if (r) out += ',';
      append_entry(out, modes, i, r);
    }
    out += '\n';
  }
  return out;
}

std::string efms_to_text(const std::vector<std::vector<BigInt>>& modes,
                         const std::vector<std::string>& reaction_names) {
  return efms_to_text(ModeSet(modes, reaction_names.size()), reaction_names);
}

std::string efms_to_csv(const std::vector<std::vector<BigInt>>& modes,
                        const std::vector<std::string>& reaction_names) {
  return efms_to_csv(ModeSet(modes, reaction_names.size()), reaction_names);
}

}  // namespace elmo

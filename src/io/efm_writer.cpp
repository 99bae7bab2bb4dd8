#include "io/efm_writer.hpp"

#include "bigint/bigint.hpp"
#include "support/assert.hpp"

namespace elmo {

namespace {

/// A guess at the output size (about four bytes per entry) so that the
/// string grows few times.
std::size_t size_hint(const std::vector<std::vector<BigInt>>& modes,
                      const std::vector<std::string>& reaction_names) {
  return (modes.size() + 1) * reaction_names.size() * 4;
}

}  // namespace

std::string efms_to_text(const std::vector<std::vector<BigInt>>& modes,
                         const std::vector<std::string>& reaction_names) {
  std::string out;
  out.reserve(size_hint(modes, reaction_names));
  for (std::size_t r = 0; r < reaction_names.size(); ++r) {
    out += reaction_names[r];
    for (const auto& mode : modes) {
      ELMO_REQUIRE(mode.size() == reaction_names.size(),
                   "mode dimension mismatch");
      out += '\t';
      out += mode[r].to_string();
    }
    out += '\n';
  }
  return out;
}

std::string efms_to_csv(const std::vector<std::vector<BigInt>>& modes,
                        const std::vector<std::string>& reaction_names) {
  std::string out;
  out.reserve(size_hint(modes, reaction_names));
  for (std::size_t r = 0; r < reaction_names.size(); ++r) {
    if (r) out += ',';
    out += reaction_names[r];
  }
  out += '\n';
  for (const auto& mode : modes) {
    ELMO_REQUIRE(mode.size() == reaction_names.size(),
                 "mode dimension mismatch");
    for (std::size_t r = 0; r < mode.size(); ++r) {
      if (r) out += ',';
      out += mode[r].to_string();
    }
    out += '\n';
  }
  return out;
}

}  // namespace elmo

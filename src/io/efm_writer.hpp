// Writers for computed EFM sets.
#pragma once

#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "io/mode_set.hpp"

namespace elmo {

/// Tab-separated matrix like the paper's Eq (7): one row per reaction, one
/// column per mode, with reaction names as the first column.
std::string efms_to_text(const ModeSet& modes,
                         const std::vector<std::string>& reaction_names);

/// CSV with a header row of reaction names and one row per mode.
std::string efms_to_csv(const ModeSet& modes,
                        const std::vector<std::string>& reaction_names);

/// The same layouts for a list of BigInt rows (through ModeSet).
std::string efms_to_text(const std::vector<std::vector<BigInt>>& modes,
                         const std::vector<std::string>& reaction_names);
std::string efms_to_csv(const std::vector<std::vector<BigInt>>& modes,
                        const std::vector<std::string>& reaction_names);

}  // namespace elmo

// Final-result postprocessing: canonicalisation and set comparison.
//
// EFMs are rays: any positive multiple is the same mode, and a mode whose
// support touches only reversible reactions is the same mode as its
// negation.  Canonical form therefore is: primitive integer entries, and —
// only for fully-reversible supports — first nonzero entry positive.
// Canonical mode LISTS are sorted and duplicate-free, which makes results
// of different algorithms (serial / combinatorial parallel / combined)
// directly comparable with operator==.
#pragma once

#include <cstdint>
#include <vector>

#include "bigint/bigint.hpp"
#include "io/mode_set.hpp"
#include "nullspace/flux_column.hpp"

namespace elmo {

/// Convert solver columns to BigInt flux vectors (reduced reaction space).
template <typename Scalar, typename Support>
std::vector<std::vector<BigInt>> columns_to_bigint(
    const std::vector<FluxColumn<Scalar, Support>>& columns) {
  std::vector<std::vector<BigInt>> out;
  out.reserve(columns.size());
  for (const auto& column : columns) {
    std::vector<BigInt> mode;
    mode.reserve(column.values.size());
    for (const auto& value : column.values) {
      if constexpr (std::is_same_v<Scalar, BigInt>) {
        mode.push_back(value);
      } else {
        mode.push_back(BigInt(value.value()));
      }
    }
    out.push_back(std::move(mode));
  }
  return out;
}

/// Canonicalise, sort and dedup a mode list in place (ModeSet::canonicalize:
/// the same order std::sort gives the rows).
inline void canonicalize_modes(std::vector<std::vector<BigInt>>& modes,
                               const std::vector<bool>& reversible) {
  ModeSet set(modes, modes.empty() ? 0 : modes.front().size());
  modes.clear();
  set.canonicalize(reversible);
  modes = set.to_bigint();
}

/// Bring an externally supplied mode list (e.g. the paper's Eq (7) matrix)
/// to canonical form for comparison.
inline std::vector<std::vector<BigInt>> canonical_modes_from_i64(
    const std::vector<std::vector<std::int64_t>>& raw,
    const std::vector<bool>& reversible) {
  ModeSet set(raw.empty() ? 0 : raw.front().size());
  for (const auto& row : raw) set.push_back(row);
  set.canonicalize(reversible);
  return set.to_bigint();
}

}  // namespace elmo

// A column of the evolving nullspace matrix: one (candidate) flux mode.
//
// Each column stores its dense value vector over the reduced reactions plus
// a cached support bitset (the zero/nonzero pattern).  Columns are kept in
// primitive form — integer entries with gcd 1 — so that duplicate modes
// compare equal exactly.  The sign is NOT canonicalised: orientation is
// semantically meaningful while irreversible rows are still unprocessed.
#pragma once

#include <compare>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/scalar.hpp"
#include "bitset/bitset.hpp"
#include "linalg/scale.hpp"

namespace elmo {

template <typename Scalar, typename Support>
struct FluxColumn {
  Support support;
  std::vector<Scalar> values;

  FluxColumn() = default;

  /// Build from a value vector: normalise to primitive form and compute the
  /// support.  The vector length is the number of reduced reactions.
  static FluxColumn from_values(std::vector<Scalar> v) {
    FluxColumn column;
    make_primitive(v);
    column.support = make_support<Support>(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (!scalar_is_zero(v[i])) column.support.set(i);
    }
    column.values = std::move(v);
    return column;
  }

  [[nodiscard]] int sign_at(std::size_t row) const {
    return scalar_sign(values[row]);
  }

  /// Approximate heap bytes held by this column (memory accounting); the
  /// support is inline.
  [[nodiscard]] std::size_t storage_bytes() const {
    std::size_t bytes = values.capacity() * sizeof(Scalar);
    if constexpr (std::is_same_v<Scalar, BigInt>) {
      for (const auto& v : values) bytes += v.storage_bytes();
    }
    return bytes;
  }

  /// Ordering for sort-based duplicate removal: by support pattern first
  /// (the paper's "sort by binary representation"), then by values so the
  /// comparison is a strict weak order even for non-proportional twins.
  friend std::strong_ordering operator<=>(const FluxColumn& a,
                                          const FluxColumn& b) {
    if (auto cmp = a.support <=> b.support; cmp != 0) return cmp;
    for (std::size_t i = 0; i < a.values.size(); ++i) {
      if (auto cmp = a.values[i] <=> b.values[i]; cmp != 0) return cmp;
    }
    return std::strong_ordering::equal;
  }
  friend bool operator==(const FluxColumn& a, const FluxColumn& b) {
    return a.support == b.support && a.values == b.values;
  }
};

/// Compute the combination values of `combine_columns` into `out`,
/// normalised to primitive form, reusing out's capacity.  Duplicate
/// detection compares many transient combinations against existing
/// columns; this entry point avoids materialising a FluxColumn (and its
/// support) per probe.
template <typename Scalar, typename Support>
void combine_values_into(const FluxColumn<Scalar, Support>& positive,
                         const FluxColumn<Scalar, Support>& negative,
                         std::size_t k, std::vector<Scalar>& out) {
  const Scalar a = -negative.values[k];  // > 0
  const Scalar b = positive.values[k];   // > 0
  out.assign(positive.values.size(), scalar_from_i64<Scalar>(0));
  // Only rows in either support can be nonzero.
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool in_p = positive.support.test(i);
    const bool in_n = negative.support.test(i);
    if (!in_p && !in_n) continue;
    if (in_p && in_n) {
      out[i] = a * positive.values[i] + b * negative.values[i];
    } else if (in_p) {
      out[i] = a * positive.values[i];
    } else {
      out[i] = b * negative.values[i];
    }
  }
  make_primitive(out);
}

/// Convex combination of a positive and a negative column that annihilates
/// row `k`:  w = (-v[k]) * u + (u[k]) * v, both coefficients positive.
/// Returns the primitive form.  Throws OverflowError with CheckedI64 when
/// entries exceed 64 bits (the solver retries with BigInt).
template <typename Scalar, typename Support>
FluxColumn<Scalar, Support> combine_columns(
    const FluxColumn<Scalar, Support>& positive,
    const FluxColumn<Scalar, Support>& negative, std::size_t k) {
  std::vector<Scalar> w;
  combine_values_into(positive, negative, k, w);
  return FluxColumn<Scalar, Support>::from_values(std::move(w));
}

}  // namespace elmo

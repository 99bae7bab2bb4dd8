// The final EFM set: one flat int64 store from reconstruction to output.
//
// A mode list has one row per mode and `width` entries per row (the
// original reactions).  Rows whose values all fit int64 live in one dense
// row-major arena; a row holding a value beyond int64 lives in a BigInt
// side table and keeps an all-zero slot in the arena, so row r is always
// arena row r.  Dense beats a sparse (CSC) layout here: more than half of
// the entries of a yeast mode set are nonzero, so an index per nonzero
// would cost more than the zeros it skips.
//
// Canonical form (see canonicalize) is the one of nullspace/efm.hpp:
// fully reversible rows oriented with a positive first nonzero, rows in
// ascending lexicographic order of their values, no two rows equal.  The
// order is exactly the one std::sort gives a std::vector of BigInt rows,
// so a ModeSet and its to_bigint() list print the same bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bigint/bigint.hpp"

namespace elmo {

class ModeSet {
 public:
  /// An empty set of zero-width rows.
  ModeSet() = default;
  /// An empty set of `width`-entry rows.
  explicit ModeSet(std::size_t width) : width_(width) {}
  /// The given BigInt rows; throws InvalidArgumentError ("mode dimension
  /// mismatch") unless every row has `width` entries.
  ModeSet(const std::vector<std::vector<BigInt>>& rows, std::size_t width);

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t size() const { return rows_; }
  [[nodiscard]] bool empty() const { return rows_ == 0; }

  /// Make room in the arena for `rows` rows in total.
  void reserve(std::size_t rows);
  /// Append a row of `width` int64 values.
  void push_back(std::span<const std::int64_t> row);
  /// Append a row of `width` BigInt values: into the arena when every value
  /// fits int64, into the side table otherwise.
  void push_back(const std::vector<BigInt>& row);

  /// True iff row `i` lives in the BigInt side table.
  [[nodiscard]] bool is_wide(std::size_t i) const {
    return !wide_slot_.empty() && wide_slot_[i] != 0;
  }
  /// Row `i`'s arena values (all zero for a side-table row).
  [[nodiscard]] std::span<const std::int64_t> row(std::size_t i) const {
    return {values_.data() + i * width_, width_};
  }
  /// Row `i`'s values when it lives in the side table.
  [[nodiscard]] const std::vector<BigInt>& wide_row(std::size_t i) const {
    return wide_[wide_slot_[i] - 1];
  }

  /// Row `i` as BigInt values.
  [[nodiscard]] std::vector<BigInt> operator[](std::size_t i) const;
  /// Every row as BigInt values, in order.
  [[nodiscard]] std::vector<std::vector<BigInt>> to_bigint() const;

  /// Bytes the arena has allocated (what the result store costs).
  [[nodiscard]] std::size_t arena_bytes() const {
    return values_.capacity() * sizeof(std::int64_t);
  }

  /// Bring the set to canonical form in place: orient every row whose
  /// nonzero entries are all on reversible reactions so that its first
  /// nonzero is positive, sort the rows and drop duplicates.
  /// `reversible` holds one flag per column.
  void canonicalize(const std::vector<bool>& reversible);

  /// Same width and the same rows in the same order (a row compares by
  /// value, wherever it is stored).
  friend bool operator==(const ModeSet& a, const ModeSet& b);

 private:
  /// Move row `i` (which must be in the arena) to the side table.
  void make_wide(std::size_t i, std::vector<BigInt> values);

  std::size_t width_ = 0;
  std::size_t rows_ = 0;
  std::vector<std::int64_t> values_;
  std::vector<std::vector<BigInt>> wide_;
  /// Per row: 0 for an arena row, k for wide_[k - 1].  Empty while no row
  /// is wide, so an all-int64 set pays nothing for it.
  std::vector<std::size_t> wide_slot_;
};

}  // namespace elmo

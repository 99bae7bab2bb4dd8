#include "io/mode_set.hpp"

#include <algorithm>
#include <compare>
#include <limits>
#include <numeric>
#include <utility>

#include "bigint/bigint.hpp"
#include "support/assert.hpp"

namespace elmo {

namespace {

int sign_of(std::int64_t value) { return (value > 0) - (value < 0); }
int sign_of(const BigInt& value) { return value.sign(); }

/// The sign of a row's first nonzero entry when every nonzero entry sits on
/// a reversible column (the row may then be negated); 0 otherwise.
template <typename Value>
int reversible_lead_sign(std::span<const Value> row,
                         const std::vector<bool>& reversible) {
  int lead = 0;
  for (std::size_t j = 0; j < row.size(); ++j) {
    const int sign = sign_of(row[j]);
    if (sign == 0) continue;
    if (!reversible[j]) return 0;
    if (lead == 0) lead = sign;
  }
  return lead;
}

}  // namespace

ModeSet::ModeSet(const std::vector<std::vector<BigInt>>& rows,
                 std::size_t width)
    : width_(width) {
  reserve(rows.size());
  for (const auto& row : rows) push_back(row);
}

void ModeSet::reserve(std::size_t rows) { values_.reserve(rows * width_); }

void ModeSet::push_back(std::span<const std::int64_t> row) {
  ELMO_REQUIRE(row.size() == width_, "mode dimension mismatch");
  values_.insert(values_.end(), row.begin(), row.end());
  ++rows_;
  if (!wide_slot_.empty()) wide_slot_.push_back(0);
}

void ModeSet::push_back(const std::vector<BigInt>& row) {
  ELMO_REQUIRE(row.size() == width_, "mode dimension mismatch");
  const bool fits = std::all_of(row.begin(), row.end(), [](const BigInt& v) {
    return v.fits_i64();
  });
  if (fits) {
    for (const auto& value : row) values_.push_back(value.to_i64());
  } else {
    values_.resize(values_.size() + width_);
  }
  ++rows_;
  if (!wide_slot_.empty()) wide_slot_.push_back(0);
  if (!fits) make_wide(rows_ - 1, row);
}

void ModeSet::make_wide(std::size_t i, std::vector<BigInt> values) {
  if (wide_slot_.empty()) wide_slot_.assign(rows_, 0);
  wide_.push_back(std::move(values));
  wide_slot_[i] = wide_.size();
  std::fill_n(values_.begin() + static_cast<std::ptrdiff_t>(i * width_),
              width_, 0);
}

std::vector<BigInt> ModeSet::operator[](std::size_t i) const {
  if (is_wide(i)) return wide_row(i);
  const auto values = row(i);
  return {values.begin(), values.end()};
}

std::vector<std::vector<BigInt>> ModeSet::to_bigint() const {
  std::vector<std::vector<BigInt>> rows;
  rows.reserve(rows_);
  for (std::size_t i = 0; i < rows_; ++i) rows.push_back((*this)[i]);
  return rows;
}

void ModeSet::canonicalize(const std::vector<bool>& reversible) {
  ELMO_REQUIRE(reversible.size() >= width_,
               "canonicalize: one reversibility flag per column");

  // Orient.  Negating INT64_MIN leaves int64, so such a row moves to the
  // side table first.
  for (std::size_t i = 0; i < rows_; ++i) {
    if (is_wide(i)) {
      auto& values = wide_[wide_slot_[i] - 1];
      if (reversible_lead_sign(std::span<const BigInt>(values), reversible) < 0)
        for (auto& value : values) value = -value;
      continue;
    }
    const std::span<std::int64_t> values(values_.data() + i * width_,
                                         width_);
    if (reversible_lead_sign(std::span<const std::int64_t>(values),
                             reversible) >= 0)
      continue;
    if (std::find(values.begin(), values.end(),
                  std::numeric_limits<std::int64_t>::min()) != values.end()) {
      std::vector<BigInt> negated;
      negated.reserve(width_);
      for (const std::int64_t value : values) negated.push_back(-BigInt(value));
      make_wide(i, std::move(negated));
      continue;
    }
    for (auto& value : values) value = -value;
  }

  // Sort a permutation of row ids.  All-arena sets compare int64 values
  // only; a side-table row compares as BigInt values.
  std::vector<std::size_t> order(rows_);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto arena_less = [this](std::size_t a, std::size_t b) {
    const auto x = row(a);
    const auto y = row(b);
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                        y.end());
  };
  const auto same = [this](std::size_t a, std::size_t b) {
    if (!is_wide(a) && !is_wide(b)) {
      const auto x = row(a);
      return std::equal(x.begin(), x.end(), row(b).begin());
    }
    return (*this)[a] == (*this)[b];
  };
  if (wide_.empty()) {
    std::sort(order.begin(), order.end(), arena_less);
  } else {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (!is_wide(a) && !is_wide(b)) return arena_less(a, b);
      return (*this)[a] < (*this)[b];
    });
  }

  // Apply the permutation in place, one cycle at a time: row p becomes the
  // old row order[p].
  if (!wide_slot_.empty()) {
    std::vector<std::size_t> slots(rows_);
    for (std::size_t p = 0; p < rows_; ++p) slots[p] = wide_slot_[order[p]];
    wide_slot_ = std::move(slots);
  }
  std::vector<std::int64_t> held(width_);
  const auto at = [this](std::size_t i) {
    return values_.begin() + static_cast<std::ptrdiff_t>(i * width_);
  };
  for (std::size_t start = 0; start < rows_; ++start) {
    if (order[start] == start) continue;
    std::copy_n(at(start), width_, held.begin());
    std::size_t hole = start;
    while (order[hole] != start) {
      const std::size_t next = order[hole];
      std::copy_n(at(next), width_, at(hole));
      order[hole] = hole;
      hole = next;
    }
    std::copy(held.begin(), held.end(), at(hole));
    order[hole] = hole;
  }

  // Drop adjacent duplicates.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < rows_; ++i) {
    if (kept > 0 && same(kept - 1, i)) continue;
    if (kept != i) {
      std::copy_n(at(i), width_, at(kept));
      if (!wide_slot_.empty()) wide_slot_[kept] = wide_slot_[i];
    }
    ++kept;
  }
  rows_ = kept;
  values_.resize(rows_ * width_);

  // Renumber the side table in row order, without the dropped rows.
  if (!wide_slot_.empty()) {
    wide_slot_.resize(rows_);
    std::vector<std::vector<BigInt>> wide;
    for (auto& slot : wide_slot_) {
      if (slot == 0) continue;
      wide.push_back(std::move(wide_[slot - 1]));
      slot = wide.size();
    }
    wide_ = std::move(wide);
    if (wide_.empty()) wide_slot_.clear();
  }
}

bool operator==(const ModeSet& a, const ModeSet& b) {
  if (a.width_ != b.width_ || a.rows_ != b.rows_) return false;
  for (std::size_t i = 0; i < a.rows_; ++i) {
    if (!a.is_wide(i) && !b.is_wide(i)) {
      const auto x = a.row(i);
      if (!std::equal(x.begin(), x.end(), b.row(i).begin())) return false;
    } else if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace elmo

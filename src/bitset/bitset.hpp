// Support set of a flux mode: its zero/nonzero pattern over at most 64 * W
// reactions, held in W inline machine words.
//
// The reduced yeast networks in the paper have 55 and 61 reactions, so a
// support fits one word and the combinatorial pre-test in the
// candidate-generation inner loop is an OR + popcount — this is what makes
// probing 1e8+ candidate pairs per second (and the paper's 159e9 generated
// candidates) feasible.  W is a compile-time constant, so the word loops
// unroll and a support never touches the heap; core/api.cpp picks W from
// the width of the prepared (reversible-split) problem.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <string>

#include "support/assert.hpp"

namespace elmo {

template <std::size_t W>
class Bitset {
  static_assert(W > 0, "a support holds at least one word");

 public:
  using Words = std::array<std::uint64_t, W>;
  static constexpr std::size_t kWords = W;

  /// Maximum number of usable bit positions.
  static constexpr std::size_t capacity() { return 64 * W; }

  void set(std::size_t i) {
    ELMO_DCHECK(i < capacity(), "Bitset index out of range");
    words_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  [[nodiscard]] bool test(std::size_t i) const {
    ELMO_DCHECK(i < capacity(), "Bitset index out of range");
    return ((words_[i / 64] >> (i % 64)) & 1U) != 0;
  }

  [[nodiscard]] std::size_t count() const {
    std::size_t total = 0;
    for (const std::uint64_t word : words_)
      total += static_cast<std::size_t>(std::popcount(word));
    return total;
  }

  /// True iff every set bit of *this is also set in `other`.
  [[nodiscard]] bool is_subset_of(const Bitset& other) const {
    for (std::size_t w = 0; w < W; ++w)
      if ((words_[w] & ~other.words_[w]) != 0) return false;
    return true;
  }

  /// The words, least significant first: the pre-test kernels flatten them,
  /// the candidate engine writes survivor supports into them, and mpsim
  /// serialises them.
  [[nodiscard]] const Words& words() const { return words_; }
  [[nodiscard]] Words& words() { return words_; }

  friend bool operator==(const Bitset& a, const Bitset& b) = default;
  /// Most significant word first, i.e. the numeric order of the whole
  /// pattern; used to sort candidates for the paper's
  /// sort-and-remove-duplicates step.
  friend std::strong_ordering operator<=>(const Bitset& a, const Bitset& b) {
    for (std::size_t w = W; w-- > 0;) {
      if (auto cmp = a.words_[w] <=> b.words_[w]; cmp != 0) return cmp;
    }
    return std::strong_ordering::equal;
  }

  /// Append the indices of set bits, in increasing order.
  template <typename IndexVector>
  void append_indices(IndexVector& out) const {
    for (std::size_t w = 0; w < W; ++w) {
      for (std::uint64_t rest = words_[w]; rest != 0; rest &= rest - 1) {
        out.push_back(static_cast<typename IndexVector::value_type>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(rest))));
      }
    }
  }

 private:
  Words words_{};
};

/// An empty support for `bits` reactions.  Throws InvalidArgumentError when
/// they do not fit, so a support type sized too small fails loudly instead
/// of dropping bits.
template <typename Support>
Support make_support(std::size_t bits) {
  ELMO_REQUIRE(bits <= Support::capacity(),
               std::to_string(bits) + " reactions do not fit a " +
                   std::to_string(Support::capacity()) + "-bit support");
  return Support{};
}

}  // namespace elmo

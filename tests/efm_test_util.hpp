// Shared helpers for EFM test suites: expansion to the original reaction
// space, canonicalisation, and the invariant battery every EFM set must
// satisfy.
#pragma once

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "bigint/bigint.hpp"
#include "bitset/bitset.hpp"
#include "compress/compression.hpp"
#include "network/network.hpp"
#include "nullspace/efm.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/rank_test.hpp"

namespace elmo {

/// A one-word support with the given bit pattern.
inline Bitset<1> word_support(std::uint64_t bits) {
  Bitset<1> support;
  support.words()[0] = bits;
  return support;
}

/// Expand reduced-space solver columns through the compression record and
/// canonicalise in the original reaction space.
template <typename Scalar, typename Support>
std::vector<std::vector<BigInt>> expand_and_canonicalize(
    const std::vector<FluxColumn<Scalar, Support>>& columns,
    const CompressedProblem& compressed, const Network& network) {
  auto reduced = columns_to_bigint(columns);
  std::vector<std::vector<BigInt>> modes;
  modes.reserve(reduced.size());
  for (const auto& mode : reduced) modes.push_back(compressed.expand(mode));
  canonicalize_modes(modes, network.reversibility());
  return modes;
}

/// The invariant battery:
///   1. every mode is nonzero and satisfies N * e == 0,
///   2. irreversible reactions never carry negative flux,
///   3. entries are primitive integers (gcd == 1),
///   4. supports are pairwise distinct and support-minimal,
///   5. every mode passes the algebraic rank test (nullity == 1) on the
///      original network.
inline void check_efm_invariants(const Network& network,
                                 const std::vector<std::vector<BigInt>>& modes) {
  auto n = network.stoichiometry<BigInt>();
  auto reversible = network.reversibility();
  RankTester<BigInt> tester(n);

  std::set<std::vector<bool>> supports;
  for (const auto& mode : modes) {
    ASSERT_EQ(mode.size(), network.num_reactions());
    // 1. steady state & nonzero.
    bool nonzero = false;
    for (const auto& v : mode) nonzero = nonzero || !v.is_zero();
    EXPECT_TRUE(nonzero);
    for (const auto& residual : n.multiply(mode))
      EXPECT_TRUE(residual.is_zero());
    // 2. irreversibility.
    for (std::size_t j = 0; j < mode.size(); ++j) {
      if (!reversible[j]) {
        EXPECT_GE(mode[j].sign(), 0) << "reaction " << j;
      }
    }
    // 3. primitive.
    BigInt g(0);
    for (const auto& v : mode) g = BigInt::gcd(g, v);
    EXPECT_EQ(g, BigInt(1));
    // 4a. distinct supports.
    std::vector<bool> support(mode.size());
    for (std::size_t j = 0; j < mode.size(); ++j)
      support[j] = !mode[j].is_zero();
    EXPECT_TRUE(supports.insert(support).second)
        << "duplicate support in EFM set";
    // 5. rank test on the original network.
    auto bits = make_support<Bitset<4>>(mode.size());
    for (std::size_t j = 0; j < mode.size(); ++j)
      if (!mode[j].is_zero()) bits.set(j);
    EXPECT_TRUE(tester.is_elementary(bits));
  }

  // 4b. support minimality across the set.
  std::vector<std::vector<bool>> all(supports.begin(), supports.end());
  for (std::size_t a = 0; a < all.size(); ++a) {
    for (std::size_t b = 0; b < all.size(); ++b) {
      if (a == b) continue;
      bool subset = true;
      bool strict = false;
      for (std::size_t j = 0; j < all[a].size(); ++j) {
        if (all[a][j] && !all[b][j]) subset = false;
        if (!all[a][j] && all[b][j]) strict = true;
      }
      EXPECT_FALSE(subset && strict)
          << "support " << a << " strictly inside support " << b;
    }
  }
}

}  // namespace elmo

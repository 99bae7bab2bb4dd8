// Tests for the modular rank tester: primitive arithmetic, agreement with
// the exact Bareiss backend, and end-to-end solver equivalence.
#include "nullspace/modular_rank.hpp"

#include <gtest/gtest.h>

#include "bitset/bitset.hpp"
#include "compress/compression.hpp"
#include "efm_test_util.hpp"
#include "models/random_network.hpp"
#include "models/toy.hpp"
#include "models/yeast.hpp"
#include "nullspace/solver.hpp"
#include "support/random.hpp"

namespace elmo {
namespace {

using modular::kPrime;

TEST(ModularArithmetic, MulmodMatchesBigInt) {
  Rng rng(2);
  for (int iter = 0; iter < 500; ++iter) {
    std::uint64_t a = rng.next() % kPrime;
    std::uint64_t b = rng.next() % kPrime;
    BigInt expected =
        (BigInt(static_cast<std::int64_t>(a)) *
         BigInt(static_cast<std::int64_t>(b))) %
        BigInt(static_cast<std::int64_t>(kPrime));
    EXPECT_EQ(modular::mulmod(a, b),
              static_cast<std::uint64_t>(expected.to_i64()));
  }
}

TEST(ModularArithmetic, EdgeValues) {
  EXPECT_EQ(modular::mulmod(kPrime - 1, kPrime - 1), 1u);  // (-1)^2
  EXPECT_EQ(modular::mulmod(0, kPrime - 1), 0u);
  EXPECT_EQ(modular::submod(0, 1), kPrime - 1);
  EXPECT_EQ(modular::from_i64(-1), kPrime - 1);
  EXPECT_EQ(modular::from_i64(INT64_MIN),
            kPrime - (static_cast<std::uint64_t>(1) << 63) % kPrime);
  EXPECT_EQ(modular::from_scalar(BigInt::from_string(
                "2305843009213693951")),  // == p
            0u);
  EXPECT_EQ(modular::from_scalar(BigInt::from_string("-2305843009213693952")),
            kPrime - 1);
}

TEST(ModularArithmetic, InverseIsInverse) {
  Rng rng(5);
  for (int iter = 0; iter < 200; ++iter) {
    std::uint64_t a = 1 + rng.next() % (kPrime - 1);
    EXPECT_EQ(modular::mulmod(a, modular::invmod(a)), 1u);
  }
}

TEST(ModularRank, AgreesWithBareissOnRandomMatrices) {
  Rng rng(7);
  for (int iter = 0; iter < 300; ++iter) {
    std::size_t rows = 1 + rng.below(6);
    std::size_t cols = 1 + rng.below(6);
    Matrix<CheckedI64> m(rows, cols);
    std::vector<std::uint64_t> flat(rows * cols);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j) {
        std::int64_t v = rng.range(-5, 5);
        m(i, j) = CheckedI64(v);
        flat[i * cols + j] = modular::from_i64(v);
      }
    auto outcome = modular::rank_mod_p(flat, rows, cols, cols);  // no abort
    EXPECT_EQ(outcome.rank, rank_bareiss(m)) << "iter " << iter;
  }
}

TEST(ModularRank, EarlyAbortDetectsDeficiency) {
  // 3x4 matrix of rank 2: two deficient columns.
  std::vector<std::int64_t> vals = {1, 2, 3, 4,  //
                                    2, 4, 6, 8,  //
                                    0, 0, 0, 1};
  std::vector<std::uint64_t> flat;
  for (auto v : vals) flat.push_back(modular::from_i64(v));
  auto outcome = modular::rank_mod_p(flat, 3, 4, 1);
  EXPECT_TRUE(outcome.deficiency_exceeded);
}

TEST(ModularRankTester, MatchesExactTesterOnToyCandidates) {
  auto compressed = compress(models::toy_network());
  auto problem = to_problem<CheckedI64>(compressed);
  auto basis = compute_initial_basis<CheckedI64, Bitset<1>>(problem);
  ModularRankTester<CheckedI64> fast(problem.stoichiometry, basis.columns);
  RankTester<CheckedI64> exact(problem.stoichiometry);

  // Enumerate all supports over the 8 reduced reactions and compare both
  // testers where the exact one's verdict is defined.
  for (std::uint64_t bits = 1; bits < 256; ++bits) {
    const auto support = word_support(bits);
    EXPECT_EQ(fast.is_elementary(support), exact.is_elementary(support))
        << "support " << bits;
  }
}

TEST(ModularRankTester, MatchesExactTesterOnYeastSupports) {
  auto compressed = compress(models::yeast_network_1());
  // Network I contains a fully reversible cycle (R90r & friends), so the
  // solver works on the split problem; test the tester on exactly that.
  auto prepared = prepare_problem(to_problem<CheckedI64>(compressed));
  const auto& problem = prepared.problem;
  auto basis = compute_initial_basis<CheckedI64, Bitset<2>>(problem);
  ModularRankTester<CheckedI64> fast(problem.stoichiometry, basis.columns);
  RankTester<CheckedI64> exact(problem.stoichiometry);

  // Random supports around the interesting size (rank +/- 2).
  Rng rng(11);
  const std::size_t q = problem.num_reactions();
  for (int iter = 0; iter < 300; ++iter) {
    Bitset<2> support;
    std::size_t size = basis.stoichiometry_rank - 2 + rng.below(5);
    while (support.count() < size) support.set(rng.below(q));
    EXPECT_EQ(fast.is_elementary(support), exact.is_elementary(support))
        << "iter " << iter;
  }
}

TEST(ModularRankTester, SolverBackendsAgree) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  SolverOptions exact;
  exact.rank_backend = RankTestBackend::kExact;
  SolverOptions fast;
  fast.rank_backend = RankTestBackend::kModular;
  auto a = solve_efms<CheckedI64, Bitset<1>>(problem, exact);
  auto b = solve_efms<CheckedI64, Bitset<1>>(problem, fast);
  EXPECT_EQ(expand_and_canonicalize(a.columns, compressed, net),
            expand_and_canonicalize(b.columns, compressed, net));

  for (std::uint64_t seed = 60; seed < 70; ++seed) {
    models::RandomNetworkSpec spec;
    spec.seed = seed;
    spec.num_metabolites = 5 + seed % 3;
    Network random_net = models::random_network(spec);
    auto c = compress(random_net);
    auto p = to_problem<CheckedI64>(c);
    auto x = solve_efms<CheckedI64, Bitset<1>>(p, exact);
    auto y = solve_efms<CheckedI64, Bitset<1>>(p, fast);
    EXPECT_EQ(expand_and_canonicalize(x.columns, c, random_net),
              expand_and_canonicalize(y.columns, c, random_net))
        << "seed " << seed;
  }
}

TEST(ModularRankTester, WorksWithBigIntScalars) {
  auto compressed = compress(models::toy_network());
  auto problem = to_problem<BigInt>(compressed);
  auto basis = compute_initial_basis<BigInt, Bitset<1>>(problem);
  ModularRankTester<BigInt> fast(problem.stoichiometry, basis.columns);
  RankTester<BigInt> exact(problem.stoichiometry);
  for (std::uint64_t bits = 1; bits < 256; ++bits) {
    const auto support = word_support(bits);
    EXPECT_EQ(fast.is_elementary(support), exact.is_elementary(support));
  }
}

}  // namespace
}  // namespace elmo

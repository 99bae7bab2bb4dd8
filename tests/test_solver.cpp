// Algorithm 1 (serial Nullspace Algorithm) validation.
//
// The toy network's full trace is worked in the paper (Fig. 2, Eqs (4)-(7));
// these tests reproduce it exactly, then property-test the solver on random
// networks against the EFM invariants.
#include "nullspace/solver.hpp"

#include <gtest/gtest.h>

#include <set>

#include "bitset/bitset.hpp"
#include "compress/compression.hpp"
#include "models/random_network.hpp"
#include "models/toy.hpp"
#include "nullspace/efm.hpp"
#include "efm_test_util.hpp"

namespace elmo {
namespace {

using Col64 = FluxColumn<CheckedI64, Bitset<1>>;

TEST(InitialBasis, ToyMatchesPaperShape) {
  auto problem = to_problem<CheckedI64>(compress(models::toy_network()));
  auto basis = compute_initial_basis<CheckedI64, Bitset<1>>(problem);
  // Paper Eq (5): 8 x 4 nullspace matrix, identity on rows r2, r4, r5, r7.
  ASSERT_EQ(basis.columns.size(), 4u);
  EXPECT_EQ(basis.stoichiometry_rank, 4u);
  // Processing order is the paper's: r1, r3, r6r, r8r (indices 0, 2, 5, 7).
  EXPECT_EQ(basis.processing_order,
            (std::vector<std::size_t>{0, 2, 5, 7}));
  // The free rows carry an identity: each of r2, r4, r5, r7 is 1 in exactly
  // one column and 0 elsewhere.
  const std::size_t free_rows[] = {1, 3, 4, 6};
  for (std::size_t k = 0; k < 4; ++k) {
    int ones = 0;
    for (std::size_t c = 0; c < 4; ++c) {
      auto v = basis.columns[c].values[free_rows[k]].value();
      EXPECT_TRUE(v == 0 || v == 1);
      if (v == 1) ++ones;
    }
    EXPECT_EQ(ones, 1);
  }
}

TEST(InitialBasis, ToyColumnsMatchPaperEq5) {
  auto problem = to_problem<CheckedI64>(compress(models::toy_network()));
  auto basis = compute_initial_basis<CheckedI64, Bitset<1>>(problem);
  // Eq (5) columns over rows r1, r2, r3, r4, r5, r6r, r7, r8r (reduced
  // reaction order).  Column order may differ; compare as a set.
  std::set<std::vector<std::int64_t>> expected = {
      {1, 1, 0, 0, 0, -1, 0, 1},
      {0, 0, 1, 1, 0, 1, 0, -1},
      {1, 0, 0, 0, 1, 0, 0, 1},
      {0, 0, -2, 0, 0, -2, 1, 1},
  };
  std::set<std::vector<std::int64_t>> actual;
  for (const auto& column : basis.columns) {
    std::vector<std::int64_t> v;
    for (const auto& value : column.values) v.push_back(value.value());
    actual.insert(v);
  }
  EXPECT_EQ(actual, expected);
}

TEST(Solver, ToyIterationTraceMatchesFig2) {
  auto problem = to_problem<CheckedI64>(compress(models::toy_network()));
  std::vector<IterationStats> trace;
  SolverOptions options;
  options.on_iteration = [&](const IterationStats& s) { trace.push_back(s); };
  auto result = solve_efms<CheckedI64, Bitset<1>>(problem, options);

  ASSERT_EQ(trace.size(), 4u);
  // Iteration 1 (row r1): all entries positive or zero — no candidates.
  EXPECT_EQ(trace[0].row, 0u);
  EXPECT_EQ(trace[0].negatives, 0u);
  EXPECT_EQ(trace[0].pairs_probed, 0u);
  EXPECT_EQ(trace[0].columns_after, 4u);
  // Iteration 2 (row r3): 1 pos x 1 neg, candidate accepted, negative
  // column removed (r3 irreversible): still 4 columns.
  EXPECT_EQ(trace[1].row, 2u);
  EXPECT_EQ(trace[1].pairs_probed, 1u);
  EXPECT_EQ(trace[1].accepted, 1u);
  EXPECT_EQ(trace[1].columns_after, 4u);
  // Iteration 3 (row r6r): 1 pos x 1 neg, accepted, negatives kept: 5.
  EXPECT_EQ(trace[2].row, 5u);
  EXPECT_EQ(trace[2].pairs_probed, 1u);
  EXPECT_EQ(trace[2].accepted, 1u);
  EXPECT_EQ(trace[2].columns_after, 5u);
  // Iteration 4 (row r8r): 2 pos x 2 neg = 4 candidates, 1 duplicate
  // removed, 3 rank-tested, all accepted: 8 final columns.
  EXPECT_EQ(trace[3].row, 7u);
  EXPECT_EQ(trace[3].pairs_probed, 4u);
  EXPECT_EQ(trace[3].duplicates_removed, 1u);
  EXPECT_EQ(trace[3].rank_tests, 3u);
  EXPECT_EQ(trace[3].accepted, 3u);
  EXPECT_EQ(trace[3].columns_after, 8u);

  EXPECT_EQ(result.columns.size(), 8u);
  EXPECT_EQ(result.stats.total_pairs_probed, 6u);
}

TEST(Solver, ToyEfmsMatchPaperEq7) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto result = solve_efms<CheckedI64, Bitset<1>>(problem);

  auto modes = expand_and_canonicalize(result.columns, compressed, net);
  auto expected =
      canonical_modes_from_i64(models::toy_efms_paper(), net.reversibility());
  EXPECT_EQ(modes, expected);
}

TEST(Solver, ToyAgreesAcrossScalarKernels) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto i64 = solve_efms<CheckedI64, Bitset<1>>(
      to_problem<CheckedI64>(compressed));
  auto big =
      solve_efms<BigInt, Bitset<1>>(to_problem<BigInt>(compressed));
  EXPECT_EQ(expand_and_canonicalize(i64.columns, compressed, net),
            expand_and_canonicalize(big.columns, compressed, net));
}

TEST(Solver, ToyAgreesWithTwoWordSupports) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto small = solve_efms<CheckedI64, Bitset<1>>(
      to_problem<CheckedI64>(compressed));
  auto dyn = solve_efms<CheckedI64, Bitset<2>>(
      to_problem<CheckedI64>(compressed));
  EXPECT_EQ(expand_and_canonicalize(small.columns, compressed, net),
            expand_and_canonicalize(dyn.columns, compressed, net));
}

TEST(Solver, CombinatorialTestAgreesWithRankTestOnToy) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  SolverOptions comb;
  comb.test = ElementarityTest::kCombinatorial;
  auto a = solve_efms<CheckedI64, Bitset<1>>(problem);
  auto b = solve_efms<CheckedI64, Bitset<1>>(problem, comb);
  EXPECT_EQ(expand_and_canonicalize(a.columns, compressed, net),
            expand_and_canonicalize(b.columns, compressed, net));
}

TEST(Solver, OrderingHeuristicsDoNotChangeTheResult) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto reference = expand_and_canonicalize(
      solve_efms<CheckedI64, Bitset<1>>(problem).columns, compressed,
      net);
  for (bool nnz : {false, true}) {
    for (bool rev_last : {false, true}) {
      SolverOptions options;
      options.ordering.sort_by_nonzeros = nnz;
      options.ordering.reversible_last = rev_last;
      auto result = solve_efms<CheckedI64, Bitset<1>>(problem, options);
      EXPECT_EQ(expand_and_canonicalize(result.columns, compressed, net),
                reference)
          << "nnz=" << nnz << " rev_last=" << rev_last;
    }
  }
}

TEST(Solver, CompressionDoesNotChangeTheResult) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto raw = no_compression(net);
  auto a = expand_and_canonicalize(
      solve_efms<CheckedI64, Bitset<1>>(to_problem<CheckedI64>(compressed))
          .columns,
      compressed, net);
  auto b = expand_and_canonicalize(
      solve_efms<CheckedI64, Bitset<1>>(to_problem<CheckedI64>(raw))
          .columns,
      raw, net);
  EXPECT_EQ(a, b);
}

// ---- Property tests on random networks ----

class SolverRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverRandomTest, EfmInvariantsHold) {
  models::RandomNetworkSpec spec;
  spec.seed = GetParam();
  spec.num_metabolites = 4 + GetParam() % 4;
  spec.num_extra_reactions = 3 + GetParam() % 3;
  spec.num_exchanges = 2 + GetParam() % 3;
  Network net = models::random_network(spec);
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto result = solve_efms<CheckedI64, Bitset<1>>(problem);
  auto modes = expand_and_canonicalize(result.columns, compressed, net);
  check_efm_invariants(net, modes);
}

TEST_P(SolverRandomTest, CombinatorialAgreesWithRank) {
  models::RandomNetworkSpec spec;
  spec.seed = GetParam() * 31 + 7;
  spec.num_metabolites = 4 + GetParam() % 3;
  Network net = models::random_network(spec);
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  SolverOptions comb;
  comb.test = ElementarityTest::kCombinatorial;
  auto a = solve_efms<CheckedI64, Bitset<1>>(problem);
  auto b = solve_efms<CheckedI64, Bitset<1>>(problem, comb);
  EXPECT_EQ(expand_and_canonicalize(a.columns, compressed, net),
            expand_and_canonicalize(b.columns, compressed, net));
}

TEST_P(SolverRandomTest, CompressedAndUncompressedAgree) {
  models::RandomNetworkSpec spec;
  spec.seed = GetParam() * 17 + 3;
  spec.num_metabolites = 4 + GetParam() % 3;
  Network net = models::random_network(spec);
  auto compressed = compress(net);
  auto raw = no_compression(net);
  auto a = expand_and_canonicalize(
      solve_efms<CheckedI64, Bitset<1>>(to_problem<CheckedI64>(compressed))
          .columns,
      compressed, net);
  auto b = expand_and_canonicalize(
      solve_efms<CheckedI64, Bitset<1>>(to_problem<CheckedI64>(raw))
          .columns,
      raw, net);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverRandomTest,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace elmo

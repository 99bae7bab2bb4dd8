// Algorithm 2 (combinatorial parallel Nullspace Algorithm) validation:
// exact agreement with Algorithm 1 for every rank count, candidate-count
// conservation, and the memory-budget failure mode.
#include "core/combinatorial_parallel.hpp"

#include <gtest/gtest.h>

#include "compress/compression.hpp"
#include "efm_test_util.hpp"
#include "models/random_network.hpp"
#include "models/toy.hpp"
#include "nullspace/efm.hpp"

namespace elmo {
namespace {

TEST(ParallelSolver, SingleRankMatchesSerialExactly) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = solve_efms<CheckedI64, Bitset<1>>(problem);
  ParallelOptions options;
  options.num_ranks = 1;
  auto parallel =
      solve_combinatorial_parallel<CheckedI64, Bitset<1>>(problem, options);
  EXPECT_EQ(expand_and_canonicalize(serial.columns, compressed, net),
            expand_and_canonicalize(parallel.columns, compressed, net));
  EXPECT_EQ(parallel.stats.total_pairs_probed,
            serial.stats.total_pairs_probed);
  EXPECT_EQ(parallel.stats.total_accepted, serial.stats.total_accepted);
}

class RankCountTest : public ::testing::TestWithParam<int> {};

TEST_P(RankCountTest, ToyAgreesWithSerial) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = expand_and_canonicalize(
      solve_efms<CheckedI64, Bitset<1>>(problem).columns, compressed, net);

  ParallelOptions options;
  options.num_ranks = GetParam();
  auto parallel =
      solve_combinatorial_parallel<CheckedI64, Bitset<1>>(problem, options);
  EXPECT_EQ(expand_and_canonicalize(parallel.columns, compressed, net),
            serial);
}

TEST_P(RankCountTest, PairCountIndependentOfRanks) {
  // The paper's "total # candidate modes" is invariant: the pair space is
  // partitioned, never changed (Table II shows one number for all core
  // counts).
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = solve_efms<CheckedI64, Bitset<1>>(problem);
  ParallelOptions options;
  options.num_ranks = GetParam();
  auto parallel =
      solve_combinatorial_parallel<CheckedI64, Bitset<1>>(problem, options);
  EXPECT_EQ(parallel.stats.total_pairs_probed,
            serial.stats.total_pairs_probed);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankCountTest, ::testing::Values(1, 2, 3, 4, 7, 16));

TEST(ParallelSolver, RandomNetworksAgreeWithSerial) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    models::RandomNetworkSpec spec;
    spec.seed = seed;
    spec.num_metabolites = 4 + seed % 4;
    spec.num_extra_reactions = 3 + seed % 3;
    Network net = models::random_network(spec);
    auto compressed = compress(net);
    auto problem = to_problem<CheckedI64>(compressed);
    auto serial = expand_and_canonicalize(
        solve_efms<CheckedI64, Bitset<1>>(problem).columns, compressed, net);
    ParallelOptions options;
    options.num_ranks = 3;
    auto parallel =
        solve_combinatorial_parallel<CheckedI64, Bitset<1>>(problem, options);
    EXPECT_EQ(expand_and_canonicalize(parallel.columns, compressed, net),
              serial)
        << "seed " << seed;
  }
}

TEST(ParallelSolver, ReportsTrafficForMultiRankRuns) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  ParallelOptions options;
  options.num_ranks = 4;
  auto result =
      solve_combinatorial_parallel<CheckedI64, Bitset<1>>(problem, options);
  // Each iteration all-gathers on 4 ranks; traffic must be visible.
  EXPECT_GT(result.ranks.total_bytes_sent(), 0u);
  EXPECT_EQ(result.ranks.ranks.size(), 4u);
  EXPECT_GT(result.ranks.max_memory_peak(), 0u);
}

TEST(ParallelSolver, MemoryBudgetAbortsLikeNetworkII) {
  // A tiny per-rank budget reproduces the paper's Algorithm-2 failure on
  // Network II: the replicated matrix outgrows a rank's memory mid-run.
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  ParallelOptions options;
  options.num_ranks = 2;
  options.memory_budget_per_rank = 64;  // absurdly small
  EXPECT_THROW((solve_combinatorial_parallel<CheckedI64, Bitset<1>>(problem,
                                                                   options)),
               MemoryBudgetError);
}

TEST(ParallelSolver, CombinatorialTestWorksInParallelToo) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  ParallelOptions options;
  options.num_ranks = 3;
  options.solver.test = ElementarityTest::kCombinatorial;
  auto parallel =
      solve_combinatorial_parallel<CheckedI64, Bitset<1>>(problem, options);
  auto serial = expand_and_canonicalize(
      solve_efms<CheckedI64, Bitset<1>>(problem).columns, compressed, net);
  EXPECT_EQ(expand_and_canonicalize(parallel.columns, compressed, net),
            serial);
}

}  // namespace
}  // namespace elmo

// Cross-algorithm consistency on a real mid-size network (E. coli core,
// 857 EFMs): all four algorithms, several configurations, one answer.
#include <gtest/gtest.h>

#include "core/api.hpp"
#include "efm_test_util.hpp"
#include "models/ecoli_core.hpp"

namespace elmo {
namespace {

const EfmResult& reference() {
  static const EfmResult result = compute_efms(models::ecoli_core());
  return result;
}

TEST(CrossAlgorithm, ReferenceSatisfiesInvariants) {
  Network net = models::ecoli_core();
  EXPECT_EQ(reference().num_modes(), 857u);
  check_efm_invariants(net, reference().modes.to_bigint());
}

TEST(CrossAlgorithm, CombinatorialParallelMatches) {
  for (int ranks : {2, 5}) {
    EfmOptions options;
    options.algorithm = Algorithm::kCombinatorialParallel;
    options.num_ranks = ranks;
    auto result = compute_efms(models::ecoli_core(), options);
    EXPECT_EQ(result.modes, reference().modes) << "ranks " << ranks;
  }
}

TEST(CrossAlgorithm, HybridMatches) {
  EfmOptions options;
  options.algorithm = Algorithm::kCombinatorialParallel;
  options.num_ranks = 2;
  options.threads_per_rank = 3;
  auto result = compute_efms(models::ecoli_core(), options);
  EXPECT_EQ(result.modes, reference().modes);
}

TEST(CrossAlgorithm, CombinedMatchesAcrossQsub) {
  for (std::size_t qsub : {1u, 2u, 3u}) {
    EfmOptions options;
    options.algorithm = Algorithm::kCombined;
    options.num_ranks = 2;
    options.qsub = qsub;
    auto result = compute_efms(models::ecoli_core(), options);
    EXPECT_EQ(result.modes, reference().modes) << "qsub " << qsub;
    EXPECT_EQ(result.subsets.size(), std::size_t{1} << qsub);
  }
}

TEST(CrossAlgorithm, PartitionedMatches) {
  EfmOptions options;
  options.algorithm = Algorithm::kPartitioned;
  options.num_ranks = 3;
  auto result = compute_efms(models::ecoli_core(), options);
  EXPECT_EQ(result.modes, reference().modes);
}

TEST(CrossAlgorithm, ExactRankBackendMatches) {
  EfmOptions options;
  options.rank_backend = RankTestBackend::kExact;
  auto result = compute_efms(models::ecoli_core(), options);
  EXPECT_EQ(result.modes, reference().modes);
}

TEST(CrossAlgorithm, CombinatorialElementarityTestMatches) {
  EfmOptions options;
  options.test = ElementarityTest::kCombinatorial;
  auto result = compute_efms(models::ecoli_core(), options);
  EXPECT_EQ(result.modes, reference().modes);
}

TEST(CrossAlgorithm, BigIntKernelMatches) {
  EfmOptions options;
  options.force_bigint = true;
  auto result = compute_efms(models::ecoli_core(), options);
  EXPECT_EQ(result.modes, reference().modes);
}

TEST(CrossAlgorithm, OrderingVariantsMatch) {
  for (bool nnz : {false, true}) {
    for (bool rev_last : {false, true}) {
      EfmOptions options;
      options.ordering.sort_by_nonzeros = nnz;
      options.ordering.reversible_last = rev_last;
      auto result = compute_efms(models::ecoli_core(), options);
      EXPECT_EQ(result.modes, reference().modes)
          << "nnz=" << nnz << " rev_last=" << rev_last;
    }
  }
}

TEST(CrossAlgorithm, CompressionVariantsMatch) {
  // Disabling individual compression passes must never change the answer.
  for (int variant = 0; variant < 4; ++variant) {
    EfmOptions options;
    options.compression.couple_two_reaction_metabolites = variant & 1;
    options.compression.kernel_coupling = variant & 2;
    auto result = compute_efms(models::ecoli_core(), options);
    EXPECT_EQ(result.modes, reference().modes) << "variant " << variant;
  }
}

}  // namespace
}  // namespace elmo

// Algorithm 3 (combined divide-and-conquer x combinatorial parallel)
// validation: the paper's §III.A worked example, disjointness of subsets,
// exact agreement with Algorithm 1, adaptive re-splitting under a memory
// budget, and the automatic choice of partition reactions.
#include "core/combined.hpp"

#include <gtest/gtest.h>

#include "compress/compression.hpp"
#include "efm_test_util.hpp"
#include "models/random_network.hpp"
#include "models/toy.hpp"
#include "models/yeast.hpp"
#include "nullspace/efm.hpp"

namespace elmo {
namespace {

CombinedOptions toy_partition_r6r_r8r() {
  CombinedOptions options;
  options.partition_reactions = {"r6r", "r8r"};
  options.num_ranks = 2;
  return options;
}

TEST(CombinedSolver, ToyPartitionMatchesPaperSectionIIIA) {
  // §III.A partitions the toy network across {r6r, r8r}: each of the four
  // zero/nonzero patterns holds exactly two EFMs.
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto result = solve_combined<CheckedI64, Bitset<1>>(
      problem, toy_partition_r6r_r8r());

  ASSERT_EQ(result.subsets.size(), 4u);
  for (const auto& subset : result.subsets)
    EXPECT_EQ(subset.num_efms, 2u) << subset.label;
  EXPECT_EQ(result.columns.size(), 8u);
}

TEST(CombinedSolver, ToyUnionEqualsSerialResult) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = expand_and_canonicalize(
      solve_efms<CheckedI64, Bitset<1>>(problem).columns, compressed, net);
  auto combined = solve_combined<CheckedI64, Bitset<1>>(
      problem, toy_partition_r6r_r8r());
  EXPECT_EQ(expand_and_canonicalize(combined.columns, compressed, net),
            serial);
  // Matches the paper's Eq (7) as well.
  EXPECT_EQ(expand_and_canonicalize(combined.columns, compressed, net),
            canonical_modes_from_i64(models::toy_efms_paper(),
                                     net.reversibility()));
}

TEST(CombinedSolver, SubsetsAreDisjoint) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto result = solve_combined<CheckedI64, Bitset<1>>(
      problem, toy_partition_r6r_r8r());
  // Union size equals the sum of subset sizes: no EFM in two subsets.
  std::size_t sum = 0;
  for (const auto& subset : result.subsets) sum += subset.num_efms;
  EXPECT_EQ(sum, result.columns.size());
}

TEST(CombinedSolver, SinglePartitionReaction) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  CombinedOptions options;
  options.partition_reactions = {"r8r"};
  options.num_ranks = 1;
  auto result = solve_combined<CheckedI64, Bitset<1>>(problem, options);
  ASSERT_EQ(result.subsets.size(), 2u);
  // r8r == 0 in 4 of the paper's 8 modes (columns 5-8 of Eq (7)).
  EXPECT_EQ(result.subsets[0].num_efms + result.subsets[1].num_efms, 8u);
  EXPECT_EQ(result.columns.size(), 8u);
}

TEST(CombinedSolver, AutomaticPartitionSelection) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = expand_and_canonicalize(
      solve_efms<CheckedI64, Bitset<1>>(problem).columns, compressed, net);
  CombinedOptions options;
  options.qsub = 2;  // auto-select the two trailing reversible reactions
  options.num_ranks = 2;
  auto result = solve_combined<CheckedI64, Bitset<1>>(problem, options);
  EXPECT_EQ(result.subsets.size(), 4u);
  EXPECT_EQ(expand_and_canonicalize(result.columns, compressed, net),
            serial);
}

TEST(CombinedSolver, IrreversiblePartitionReactionRejected) {
  Network net = models::toy_network();
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  CombinedOptions options;
  options.partition_reactions = {"r2"};  // irreversible
  EXPECT_THROW((solve_combined<CheckedI64, Bitset<1>>(problem, options)),
               InvalidArgumentError);
}

TEST(CombinedSolver, CandidateCountDropsVersusUnsplit) {
  // §IV.A: divide-and-conquer usually lowers the cumulative number of
  // intermediate candidates (159.6e9 -> 81.7e9 on Network I).  The toy
  // network is too small to show it meaningfully, so use a random network
  // large enough to have real candidate traffic and check the counter
  // plumbing: the combined run reports its cumulative pairs and they are
  // comparable to (not wildly above) the serial count.
  models::RandomNetworkSpec spec;
  spec.seed = 5;
  spec.num_metabolites = 8;
  spec.num_extra_reactions = 6;
  spec.num_exchanges = 4;
  Network net = models::random_network(spec);
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = solve_efms<CheckedI64, Bitset<1>>(problem);

  CombinedOptions options;
  options.qsub = 1;
  options.num_ranks = 1;
  auto combined = solve_combined<CheckedI64, Bitset<1>>(problem, options);
  EXPECT_EQ(expand_and_canonicalize(combined.columns, compressed, net),
            expand_and_canonicalize(serial.columns, compressed, net));
  EXPECT_GT(combined.total.total_pairs_probed, 0u);
}

/// The random networks of RandomNetworksAgreeWithSerial, seeds 1 to 10.
models::RandomNetworkSpec random_spec(std::uint64_t seed) {
  models::RandomNetworkSpec spec;
  spec.seed = seed * 13 + 1;
  spec.num_metabolites = 5 + seed % 3;
  spec.num_extra_reactions = 4;
  spec.num_exchanges = 3;
  spec.reversible_probability = 0.5;  // ensure partition candidates exist
  return spec;
}

TEST(CombinedSolver, RandomNetworksAgreeWithSerial) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto spec = random_spec(seed);
    Network net = models::random_network(spec);
    auto compressed = compress(net);
    auto problem = to_problem<CheckedI64>(compressed);

    // Count trailing reversible reactions; skip networks without any.
    std::size_t reversible = 0;
    for (bool r : problem.reversible) reversible += r ? 1 : 0;
    if (reversible < 1) continue;

    auto serial = expand_and_canonicalize(
        solve_efms<CheckedI64, Bitset<1>>(problem).columns, compressed, net);
    CombinedOptions options;
    options.num_ranks = 2;
    options.qsub = 1;
    try {
      auto combined = solve_combined<CheckedI64, Bitset<1>>(problem, options);
      EXPECT_EQ(expand_and_canonicalize(combined.columns, compressed, net),
                serial)
          << "seed " << spec.seed;
    } catch (const InvalidArgumentError&) {
      // Network had no trailing reversible reaction to partition on.
    }
  }
}

TEST(CombinedSolver, AdaptiveResplitUnderMemoryBudget) {
  // Force a budget small enough that unsplit subsets fail but fine ones
  // succeed; with re-splitting enabled the run must complete and agree.
  models::RandomNetworkSpec spec;
  spec.seed = 8;
  spec.num_metabolites = 7;
  spec.num_extra_reactions = 5;
  spec.num_exchanges = 4;
  spec.reversible_probability = 0.6;
  Network net = models::random_network(spec);
  auto compressed = compress(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto serial = solve_efms<CheckedI64, Bitset<1>>(problem);
  auto serial_modes =
      expand_and_canonicalize(serial.columns, compressed, net);

  // A budget below the serial peak but above what fine subsets need.
  CombinedOptions options;
  options.qsub = 1;
  options.num_ranks = 1;
  options.memory_budget_per_rank = serial.stats.peak_matrix_bytes * 9 / 10;
  options.max_extra_splits = 3;
  auto combined = solve_combined<CheckedI64, Bitset<1>>(problem, options);
  EXPECT_EQ(expand_and_canonicalize(combined.columns, compressed, net),
            serial_modes);
  // Without re-splitting the same budget must fail (sanity check that the
  // budget actually binds) OR already fit; only assert when it binds.
  bool resplit_happened = false;
  for (const auto& subset : combined.subsets)
    resplit_happened = resplit_happened || subset.extra_splits > 0;
  if (resplit_happened) {
    CombinedOptions no_resplit = options;
    no_resplit.max_extra_splits = 0;
    EXPECT_THROW(
        (solve_combined<CheckedI64, Bitset<1>>(problem, no_resplit)),
        MemoryBudgetError);
  }
}

/// Every Algorithm 3 subset of `problem` with qsub 1 to 3 prepares no wider
/// than the whole problem, so the support width chosen for the whole
/// problem holds every subset.
void expect_subsets_no_wider(const EfmProblem<CheckedI64>& problem) {
  const std::size_t full = prepare_problem(problem).problem.num_reactions();
  for (std::size_t qsub = 1; qsub <= 3; ++qsub) {
    const auto rows = select_partition_rows_up_to<CheckedI64, Bitset<2>>(
        problem, OrderingOptions{}, qsub);
    if (rows.size() < qsub) break;
    for (std::uint64_t id = 0; id < (1ULL << qsub); ++id) {
      SubsetSpec spec;
      for (std::size_t k = 0; k < qsub; ++k)
        spec.pattern.emplace_back(rows[k], ((id >> k) & 1) != 0);
      const auto sub = detail::make_subproblem(problem, spec);
      EXPECT_LE(prepare_problem(sub.problem).problem.num_reactions(), full)
          << spec.label(problem.reaction_names);
    }
  }
}

TEST(SubsetSelect, SubsetsAreNoWiderThanTheWholeProblem) {
  for (const auto& knockouts : std::vector<std::vector<const char*>>{
           {"R15", "R33", "R41", "R46", "R92r", "R98", "R100"},  // demo
           {"R15", "R46", "R92r"}}) {                           // ko3
    Network net = models::yeast_network_1();
    std::vector<ReactionId> ids;
    for (const char* name : knockouts) ids.push_back(*net.find_reaction(name));
    SCOPED_TRACE(std::to_string(ids.size()) + " knockouts");
    expect_subsets_no_wider(
        to_problem<CheckedI64>(compress(net.without_reactions(ids))));
  }
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_subsets_no_wider(to_problem<CheckedI64>(
        compress(models::random_network(random_spec(seed)))));
  }
}

TEST(SubsetSelect, ToyTrailingReversibles) {
  auto problem = to_problem<CheckedI64>(compress(models::toy_network()));
  // Processing order is r1, r3, r6r, r8r; the two trailing reversibles are
  // r6r (reduced row 5) and r8r (row 7), outer-first.
  auto rows = select_partition_rows<CheckedI64, Bitset<1>>(
      problem, OrderingOptions{}, 2);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(problem.reaction_names[rows[0]], "r6r");
  EXPECT_EQ(problem.reaction_names[rows[1]], "r8r");
}

TEST(SubsetSelect, RequestingTooManyThrows) {
  auto problem = to_problem<CheckedI64>(compress(models::toy_network()));
  EXPECT_THROW((select_partition_rows<CheckedI64, Bitset<1>>(
                   problem, OrderingOptions{}, 3)),
               InvalidArgumentError);
}

}  // namespace
}  // namespace elmo

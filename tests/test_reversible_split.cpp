// Direct tests for the reversible-split preprocessing (prepare_problem /
// unsplit_columns): duplicated reversible reactions and fully reversible
// cycles must be handled without losing or inventing modes.
#include "nullspace/reversible_split.hpp"

#include <gtest/gtest.h>

#include "bitset/bitset.hpp"
#include "compress/compression.hpp"
#include "core/api.hpp"
#include "efm_test_util.hpp"
#include "models/toy.hpp"
#include "network/parser.hpp"
#include "nullspace/solver.hpp"

namespace elmo {
namespace {

TEST(ReversibleSplit, NoSplitNeededForToy) {
  auto problem = to_problem<CheckedI64>(compress(models::toy_network()));
  auto prepared = prepare_problem(problem);
  EXPECT_FALSE(prepared.has_splits());
  EXPECT_EQ(prepared.problem.num_reactions(), problem.num_reactions());
}

Network duplicated_reversible_network() {
  // Two identical reversible transporters: their columns are linearly
  // dependent, so one cannot become a pivot.
  return parse_network(R"(
    R1  : Aext => A
    T1r : A <=> B
    T2r : A <=> B
    R2  : B => Bext
  )");
}

TEST(ReversibleSplit, DuplicateReversibleGetsSplit) {
  auto problem =
      to_problem<CheckedI64>(no_compression(duplicated_reversible_network()));
  auto prepared = prepare_problem(problem);
  ASSERT_TRUE(prepared.has_splits());
  EXPECT_EQ(prepared.backward_of.size(), 1u);
  // The forward copy becomes irreversible; the backward copy is appended.
  const std::size_t split_col = prepared.backward_of[0];
  EXPECT_FALSE(prepared.problem.reversible[split_col]);
  EXPECT_FALSE(prepared.problem.reversible.back());
  EXPECT_EQ(prepared.problem.num_reactions(), problem.num_reactions() + 1);
  EXPECT_NE(prepared.problem.reaction_names.back().find("__rev"),
            std::string::npos);
  // The appended column is the negation of the original.
  for (std::size_t i = 0; i < prepared.problem.stoichiometry.rows(); ++i) {
    EXPECT_EQ(prepared.problem.stoichiometry(
                  i, prepared.problem.num_reactions() - 1),
              -problem.stoichiometry(i, split_col));
  }
}

TEST(ReversibleSplit, SolveFindsAllModesIncludingBackwardUse) {
  // EFMs of the duplicated-transporter network: Aext->A-T1->B->Bext,
  // Aext->A-T2->B->Bext, and the fully reversible futile cycle T1 forward
  // + T2 backward.  (The T1-backward/T2-forward cycle is its negation —
  // one canonical representative.)
  Network net = duplicated_reversible_network();
  auto compressed = no_compression(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto result = solve_efms<CheckedI64, Bitset<1>>(problem);
  auto modes = expand_and_canonicalize(result.columns, compressed, net);
  ASSERT_EQ(modes.size(), 3u);
  check_efm_invariants(net, modes);
  // The futile cycle: T1 and T2 with opposite signs, exchanges zero.
  bool found_cycle = false;
  for (const auto& mode : modes) {
    if (mode[0].is_zero() && mode[3].is_zero() && !mode[1].is_zero() &&
        mode[1] == -mode[2])
      found_cycle = true;
  }
  EXPECT_TRUE(found_cycle);
}

TEST(ReversibleSplit, TwoCycleModeIsDropped) {
  // The split problem contains the spurious fwd+bwd two-cycle; unsplit
  // must drop it, not map it to the zero vector.
  Network net = duplicated_reversible_network();
  auto compressed = no_compression(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto prepared = prepare_problem(problem);
  ASSERT_TRUE(prepared.has_splits());
  const std::size_t fwd = prepared.backward_of[0];
  const std::size_t bwd = prepared.original_reactions;

  // Hand-build the two-cycle column of the split problem.
  std::vector<CheckedI64> values(prepared.problem.num_reactions(),
                                 CheckedI64(0));
  values[fwd] = CheckedI64(1);
  values[bwd] = CheckedI64(1);
  std::vector<FluxColumn<CheckedI64, Bitset<1>>> columns;
  columns.push_back(
      FluxColumn<CheckedI64, Bitset<1>>::from_values(std::move(values)));
  auto unsplit = unsplit_columns(std::move(columns), prepared);
  EXPECT_TRUE(unsplit.empty());
}

TEST(ReversibleSplit, FullyReversibleTriangleCycle) {
  // Three reversible reactions forming a cycle A->B->C->A: the cycle space
  // is 1-dimensional and fully reversible.  Exactly one canonical cycle
  // EFM plus the two chain modes through the exchanges.
  Network net = parse_network(R"(
    R1  : Aext => A
    E1r : A <=> B
    E2r : B <=> C
    E3r : C <=> A
    R2  : C => Cext
  )");
  auto compressed = no_compression(net);
  auto problem = to_problem<CheckedI64>(compressed);
  auto result = solve_efms<CheckedI64, Bitset<1>>(problem);
  auto modes = expand_and_canonicalize(result.columns, compressed, net);
  check_efm_invariants(net, modes);
  // Modes: cycle (E1,E2,E3), chain via E1+E2, chain via -E3 (A->C direct),
  // = 3 modes.
  EXPECT_EQ(modes.size(), 3u);
}

TEST(ReversibleSplit, AgreesAcrossAllAlgorithmsOnSplitNetwork) {
  Network net = duplicated_reversible_network();
  EfmOptions serial;
  auto a = compute_efms(net, serial);
  EfmOptions parallel;
  parallel.algorithm = Algorithm::kCombinatorialParallel;
  parallel.num_ranks = 3;
  auto b = compute_efms(net, parallel);
  EfmOptions partitioned;
  partitioned.algorithm = Algorithm::kPartitioned;
  partitioned.num_ranks = 2;
  auto c = compute_efms(net, partitioned);
  EXPECT_EQ(a.modes, b.modes);
  EXPECT_EQ(a.modes, c.modes);
}

}  // namespace
}  // namespace elmo

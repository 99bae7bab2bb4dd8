// Tests for network compression and the exact reconstruction map.
#include "compress/compression.hpp"

#include <gtest/gtest.h>

#include "models/toy.hpp"
#include "models/yeast.hpp"
#include "network/parser.hpp"

namespace elmo {
namespace {

TEST(Compress, ToyMatchesPaperReduction) {
  // Paper Eq (2) -> Eq (4): metabolite D and reaction r9 disappear (r9 is
  // coupled to r3), leaving a 4 x 8 problem.
  auto problem = compress(models::toy_network());
  EXPECT_EQ(problem.num_metabolites(), 4u);
  EXPECT_EQ(problem.num_reactions(), 8u);
  EXPECT_EQ(problem.reaction_names,
            (std::vector<std::string>{"r1", "r2", "r3", "r4", "r5", "r6r",
                                      "r7", "r8r"}));
  EXPECT_EQ(problem.metabolite_names,
            (std::vector<std::string>{"A", "B", "C", "P"}));

  auto expected = Matrix<BigInt>::from_rows({
      {1, -1, 0, 0, -1, 0, 0, 0},
      {0, 0, 0, 0, 1, -1, -1, -1},
      {0, 1, -1, 0, 0, 1, 0, 0},
      {0, 0, 1, -1, 0, 0, 2, 0},
  });
  EXPECT_EQ(problem.stoichiometry, expected);
  EXPECT_EQ(problem.stats.merged_reactions, 1u);
}

TEST(Compress, ToyReconstructionReAddsR9) {
  auto problem = compress(models::toy_network());
  // A reduced flux using r3 must expand with r9 == r3 (the coupled pair).
  std::vector<BigInt> reduced(8, BigInt(0));
  reduced[2] = BigInt(3);  // r3
  auto original = problem.expand(reduced);
  ASSERT_EQ(original.size(), 9u);
  EXPECT_EQ(original[2], original[8]);  // r9 == r3
  EXPECT_EQ(original[2], BigInt(1));    // primitive scaling
}

TEST(Compress, ToyIntegerMapExpandsToEq7) {
  // The toy's reduced columns are r1..r8r unscaled, and r9 rides on r3
  // with the same coefficient: the map is the identity plus one r9 entry.
  auto problem = compress(models::toy_network());
  const ReconstructionMap& map = problem.reconstruction;
  EXPECT_EQ(map.scale, BigInt(1));
  EXPECT_EQ(map.rows(), 9u);
  EXPECT_EQ(map.row_start,
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(map.column,
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 2}));
  EXPECT_EQ(map.numerator, std::vector<BigInt>(9, BigInt(1)));
  // Every Eq (7) mode, dropped to the reduced reactions, expands back to
  // itself with R9 re-added.
  for (const auto& mode : models::toy_efms_paper()) {
    std::vector<BigInt> reduced(mode.begin(), mode.begin() + 8);
    std::vector<BigInt> expected(mode.begin(), mode.end());
    EXPECT_EQ(problem.expand(reduced), expected);
  }
}

TEST(Compress, ColumnForMapsMergedAndRemovedReactions) {
  auto problem = compress(models::toy_network());
  EXPECT_EQ(problem.column_for("r3"), std::size_t{2});
  // r9 was merged into r3's column.
  EXPECT_EQ(problem.column_for("r9"), std::size_t{2});
  EXPECT_EQ(problem.column_for("r8r"), std::size_t{7});
  EXPECT_THROW((void)problem.column_for("bogus"), InvalidArgumentError);
}

TEST(Compress, ForcedZeroDeadEnd) {
  // B is produced but never consumed: R2 (and then R1, A) must die.
  Network net = parse_network(R"(
    R1 : Aext => A
    R2 : A => B
  )");
  auto problem = compress(net);
  EXPECT_EQ(problem.num_reactions(), 0u);
  EXPECT_EQ(problem.stats.forced_zero_reactions, 2u);
  EXPECT_FALSE(problem.column_for("R1").has_value());
  // Expansion of the empty flux vector is all zeros.
  auto original = problem.expand({});
  for (const auto& v : original) EXPECT_TRUE(v.is_zero());
}

TEST(Compress, SingleReactionMetaboliteForcedZero) {
  // B touched by exactly one (reversible!) reaction: flux still forced to 0.
  Network net = parse_network(R"(
    R1 : Aext <=> A
    R2r : A <=> B
    R3 : A => Xout
    external Xout
  )");
  auto problem = compress(net);
  EXPECT_FALSE(problem.column_for("R2r").has_value());
}

TEST(Compress, CouplingConflictKillsBothReactions) {
  // M: R1 produces (irreversible), R2 produces (irreversible): same sign,
  // forced zero by the sign rule.
  Network net = parse_network(R"(
    R1 : Aext => M
    R2 : Bext => M
  )");
  auto problem = compress(net);
  EXPECT_EQ(problem.num_reactions(), 0u);
}

TEST(Compress, CouplingFlipsOrientationWhenNeeded) {
  // M produced by reversible R1, consumed by irreversible R2; coupling on M
  // keeps the merged reaction irreversible in the forward direction.
  Network net = parse_network(R"(
    R1r : Aext <=> M
    R2 : M => Bext
  )");
  auto problem = compress(net);
  ASSERT_EQ(problem.num_reactions(), 1u);
  EXPECT_FALSE(problem.reversible[0]);
  // Unit flux on the merged column expands to R1 = R2 = 1 (both forward).
  auto original = problem.expand({BigInt(1)});
  EXPECT_EQ(original[0], BigInt(1));
  EXPECT_EQ(original[1], BigInt(1));
}

TEST(Compress, CouplingWithCoefficients) {
  // 2 A per R1 unit; R2 consumes 3 A: v2 = (2/3) v1.
  Network net = parse_network(R"(
    R1 : Xext => 2 A
    R2 : 3 A => Yext
  )");
  auto problem = compress(net);
  ASSERT_EQ(problem.num_reactions(), 1u);
  auto original = problem.expand({BigInt(1)});
  // Primitive integer expansion of (1, 2/3) is (3, 2).
  EXPECT_EQ(original[0], BigInt(3));
  EXPECT_EQ(original[1], BigInt(2));
  // The map stores (1, 2/3) as numerators (3, 2) over the common scale 3.
  EXPECT_EQ(problem.reconstruction.scale, BigInt(3));
  EXPECT_EQ(problem.reconstruction.numerator,
            (std::vector<BigInt>{BigInt(3), BigInt(2)}));
  // Scaling the reduced flux scales nothing: the expansion is primitive.
  EXPECT_EQ(problem.expand({BigInt(-6)}),
            (std::vector<BigInt>{BigInt(-3), BigInt(-2)}));
}

TEST(Compress, LargeCouplingCoefficientStaysExact) {
  // M couples R1 and R2 with v2 = v1 / K, so R1's map numerator is K.  The
  // reduced mode (R1 2, R3 1, R5 3) carries flux 2 on the merged column,
  // and 2 K no longer fits int64: the expansion must still be exact.
  Network net = parse_network(R"(
    R1 : Xext => M
    R2 : 5000000000000000000 M => B + 2 C
    R3 : 2 B + C => Yext
    R4 : Zext => B
    R5 : C => Wext
  )");
  auto problem = compress(net);
  ASSERT_EQ(problem.reaction_names,
            (std::vector<std::string>{"R1", "R3", "R4", "R5"}));
  const ReconstructionMap& map = problem.reconstruction;
  EXPECT_EQ(map.scale, BigInt(1));
  EXPECT_EQ(map.column, (std::vector<std::size_t>{0, 0, 1, 2, 3}));
  EXPECT_EQ(map.numerator.front(), BigInt(5000000000000000000));
  EXPECT_EQ(problem.expand({BigInt(2), BigInt(1), BigInt(0), BigInt(3)}),
            (std::vector<BigInt>{BigInt::from_string("10000000000000000000"),
                                 BigInt(2), BigInt(1), BigInt(0), BigInt(3)}));
}

TEST(Compress, RedundantRowsDropped) {
  // Duplicate metabolite constraint: B row equals A row doubled.
  Network net = parse_network(R"(
    R1 : Xext => A + 2 B
    R2 : A + 2 B => Yext
    R3r : A + 2 B <=> C
    R4 : C => Zext
  )");
  auto with_rows = compress(net, {.remove_forced_zero = true,
                                  .couple_two_reaction_metabolites = false,
                                  .drop_redundant_rows = false});
  auto without_rows = compress(net, {.remove_forced_zero = true,
                                     .couple_two_reaction_metabolites = false,
                                     .drop_redundant_rows = true});
  EXPECT_GT(with_rows.num_metabolites(), without_rows.num_metabolites());
  EXPECT_EQ(without_rows.stats.redundant_rows,
            with_rows.num_metabolites() - without_rows.num_metabolites());
}

TEST(Compress, NoCompressionIsIdentity) {
  Network net = models::toy_network();
  auto problem = no_compression(net);
  EXPECT_EQ(problem.num_reactions(), 9u);
  EXPECT_EQ(problem.num_metabolites(), 5u);
  std::vector<BigInt> flux(9, BigInt(0));
  flux[0] = BigInt(5);
  auto original = problem.expand(flux);
  EXPECT_EQ(original[0], BigInt(1));  // primitive
  for (std::size_t i = 1; i < 9; ++i) EXPECT_TRUE(original[i].is_zero());
  // The identity map: one unit entry per reaction, on its own column.
  const ReconstructionMap& map = problem.reconstruction;
  EXPECT_EQ(map.scale, BigInt(1));
  for (std::size_t r = 0; r < 9; ++r) {
    ASSERT_EQ(map.row_start[r + 1], r + 1);
    EXPECT_EQ(map.column[r], r);
    EXPECT_EQ(map.numerator[r], BigInt(1));
  }
  // Eq (7) modes expand to themselves.
  for (const auto& mode : models::toy_efms_paper()) {
    std::vector<BigInt> values(mode.begin(), mode.end());
    EXPECT_EQ(problem.expand(values), values);
  }
}

TEST(Compress, YeastNetwork1ReducesNearPaperSize) {
  // Paper: 62 x 78 reduces to 35 x 55.  Our operation set is the standard
  // one but not necessarily identical to the authors'; sizes should land in
  // the same neighbourhood and never below (a smaller reduction is sound,
  // a larger one would indicate a missing rule firing).
  // Our pass reaches 40 x 65: the remaining gap to the paper's size is
  // duplicate-column and opposite-irreversible-pair merging, which change
  // the EFM count (nonlinear expansion) and are intentionally not applied —
  // the EFM total is the quantity validated against the paper instead.
  Network net = models::yeast_network_1();
  EXPECT_EQ(net.num_internal_metabolites(), 62u);
  EXPECT_EQ(net.num_reactions(), 78u);
  auto problem = compress(net);
  EXPECT_LE(problem.num_reactions(), 66u);
  EXPECT_GE(problem.num_reactions(), 55u);
  EXPECT_LE(problem.num_metabolites(), 40u);
}

TEST(Compress, YeastNetwork2Dimensions) {
  Network net = models::yeast_network_2();
  EXPECT_EQ(net.num_internal_metabolites(), 63u);
  EXPECT_EQ(net.num_reactions(), 83u);
  auto problem = compress(net);
  EXPECT_LE(problem.num_reactions(), 72u);
  // The paper's divide-and-conquer partition reactions must survive
  // compression (they are chosen from the reduced network).
  for (const char* name : {"R54r", "R90r", "R60r", "R22r"}) {
    EXPECT_TRUE(problem.column_for(name).has_value()) << name;
  }
}

TEST(Compress, ReducedStoichiometryAnnihilatesExpandedFluxes) {
  // For any reduced kernel vector v, the ORIGINAL stoichiometry must
  // annihilate expand(v).  Check with the toy network's known kernel.
  Network net = models::toy_network();
  auto problem = compress(net);
  // v = unit flux through r1..r4 chain + r9 via reconstruction: use the
  // reduced vector for the mode r1,r2,r3,r4 (indices 0..3 in reduced).
  std::vector<BigInt> reduced(8, BigInt(0));
  reduced[0] = BigInt(1);
  reduced[1] = BigInt(1);
  reduced[2] = BigInt(1);
  reduced[3] = BigInt(1);
  auto original = problem.expand(reduced);
  auto n = net.stoichiometry<BigInt>();
  auto y = n.multiply(original);
  for (const auto& value : y) EXPECT_TRUE(value.is_zero());
}

}  // namespace
}  // namespace elmo

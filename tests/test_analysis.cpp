// Tests for the analysis module: flux decomposition, knockout screening,
// minimal cut sets, and yield analysis — the EFM applications the paper's
// introduction motivates.
#include <gtest/gtest.h>

#include "analysis/decompose.hpp"
#include "analysis/knockout.hpp"
#include "analysis/yield.hpp"
#include "core/api.hpp"
#include "models/toy.hpp"
#include "support/random.hpp"

namespace elmo {
namespace {

struct ToyFixture {
  ToyFixture() : network(models::toy_network()) {
    result = compute_efms(network);
  }
  Network network;
  EfmResult result;
};

ToyFixture& toy() {
  static ToyFixture fixture;
  return fixture;
}

// ---- decomposition ----

TEST(Decompose, SingleModeIsRecoveredExactly) {
  auto& f = toy();
  // The flux IS mode 3 scaled by 5.
  std::vector<BigRational> flux;
  for (const auto& v : f.result.modes[3])
    flux.push_back(BigRational(v * BigInt(5)));
  auto decomposition =
      decompose_flux(flux, f.result.modes, f.network.reversibility());
  EXPECT_TRUE(decomposition.exact);
  ASSERT_EQ(decomposition.terms.size(), 1u);
  EXPECT_EQ(decomposition.terms[0].mode_index, 3u);
  EXPECT_EQ(decomposition.terms[0].weight, BigRational::from_i64(5));
}

TEST(Decompose, RandomConvexCombinationsAreExplainedExactly) {
  auto& f = toy();
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    // Random nonnegative integer combination of 3 modes.
    std::vector<BigRational> flux(f.result.modes[0].size());
    for (int pick = 0; pick < 3; ++pick) {
      std::size_t m = rng.below(f.result.modes.size());
      std::int64_t w = rng.range(1, 4);
      for (std::size_t j = 0; j < flux.size(); ++j)
        flux[j] += BigRational(f.result.modes[m][j] * BigInt(w));
    }
    auto decomposition =
        decompose_flux(flux, f.result.modes, f.network.reversibility());
    EXPECT_TRUE(decomposition.exact) << "trial " << trial;
    EXPECT_LE(decomposition.terms.size(), flux.size());
    // Verify the reconstruction term by term.
    std::vector<BigRational> rebuilt(flux.size());
    for (const auto& term : decomposition.terms) {
      for (std::size_t j = 0; j < flux.size(); ++j)
        rebuilt[j] += term.weight *
                      BigRational(f.result.modes[term.mode_index][j]);
    }
    EXPECT_EQ(rebuilt, flux);
  }
}

TEST(Decompose, InfeasibleFluxLeavesResidual) {
  auto& f = toy();
  // A vector violating steady state cannot be explained.
  std::vector<BigRational> flux(f.result.modes[0].size());
  flux[0] = BigRational::from_i64(1);  // r1 alone
  auto decomposition =
      decompose_flux(flux, f.result.modes, f.network.reversibility());
  EXPECT_FALSE(decomposition.exact);
  EXPECT_GT(decomposition.residual_l1(), 0.0);
}

TEST(Decompose, MaxTermsRespected) {
  auto& f = toy();
  std::vector<BigRational> flux(f.result.modes[0].size());
  for (std::size_t m = 0; m < 4; ++m)
    for (std::size_t j = 0; j < flux.size(); ++j)
      flux[j] += BigRational(f.result.modes[m][j]);
  DecomposeOptions options;
  options.max_terms = 1;
  auto decomposition =
      decompose_flux(flux, f.result.modes, f.network.reversibility(),
                     options);
  EXPECT_LE(decomposition.terms.size(), 1u);
}

// ---- knockouts ----

TEST(Knockout, SurvivingModesFilterBySupport) {
  auto& f = toy();
  ReactionId r7 = f.network.reaction_id("r7");
  auto survivors = surviving_modes(f.result.modes, {r7});
  // Eq (7): r7 is nonzero in exactly 3 of the 8 modes.
  EXPECT_EQ(survivors.size(), 5u);
  for (std::size_t m : survivors)
    EXPECT_TRUE(f.result.modes[m][r7].is_zero());
  // Knocking out nothing keeps everything.
  EXPECT_EQ(surviving_modes(f.result.modes, {}).size(), 8u);
}

TEST(Knockout, ScreenFindsEssentialReactions) {
  auto& f = toy();
  ReactionId r9 = f.network.reaction_id("r9");
  auto report = knockout_screen(f.network, f.result.modes, r9);
  EXPECT_EQ(report.wild_type_modes, 8u);
  // Modes producing Dext: those with nonzero r9 — 3 of them (Eq (7)).
  EXPECT_EQ(report.wild_type_producing, 3u);
  // Every D-producing mode runs r3 (the only D source) AND r4 (the P made
  // alongside D must leave the cell): both are essential for r9.
  auto essential = report.essential_reactions();
  ASSERT_EQ(essential.size(), 2u);
  EXPECT_EQ(essential[0], "r3");
  EXPECT_EQ(essential[1], "r4");
}

TEST(Knockout, MinimalCutSets) {
  auto& f = toy();
  ReactionId r9 = f.network.reaction_id("r9");
  auto cuts = minimal_cut_sets_2(f.result.modes, r9,
                                 f.network.num_reactions());
  // {r3} is a singleton cut; no pair containing r3 may appear (minimality).
  bool has_r3 = false;
  ReactionId r3 = f.network.reaction_id("r3");
  for (const auto& cut : cuts) {
    if (cut.size() == 1 && cut[0] == r3) has_r3 = true;
    if (cut.size() == 2) {
      EXPECT_TRUE(cut[0] != r3 && cut[1] != r3);
    }
    // Every cut actually cuts: no producing mode survives.
    auto survivors = surviving_modes(f.result.modes, cut);
    for (std::size_t m : survivors)
      EXPECT_TRUE(f.result.modes[m][r9].is_zero());
  }
  EXPECT_TRUE(has_r3);
  // {r1, r8r} must be a pair cut: every D-producing mode imports A or B.
  bool has_r1_r8 = false;
  ReactionId r1 = f.network.reaction_id("r1");
  ReactionId r8 = f.network.reaction_id("r8r");
  for (const auto& cut : cuts) {
    if (cut.size() == 2 && ((cut[0] == r1 && cut[1] == r8) ||
                            (cut[0] == r8 && cut[1] == r1)))
      has_r1_r8 = true;
  }
  EXPECT_TRUE(has_r1_r8);
}

TEST(Knockout, NoProducingModesMeansNoCuts) {
  // A fresh network copy with r3 removed has no Dext production at all.
  std::vector<std::vector<BigInt>> none;
  EXPECT_TRUE(minimal_cut_sets_2(none, 0, 9).empty());
}

// ---- yields ----

TEST(Yield, ToyPentoseYields) {
  auto& f = toy();
  ReactionId r1 = f.network.reaction_id("r1");  // Aext uptake
  ReactionId r4 = f.network.reaction_id("r4");  // Pext production
  auto yields = mode_yields(f.result.modes, r1, r4);
  // 6 of the 8 modes import A (r1 nonzero in Eq (7)).
  EXPECT_EQ(yields.size(), 6u);
  auto best = optimal_yield(f.result.modes, r1, r4);
  ASSERT_TRUE(best.has_value());
  // The best P yield per A is 2 (via r7: A -> B -> 2 P).
  EXPECT_EQ(best->yield, BigRational::from_i64(2));
}

TEST(Yield, HistogramBucketsCoverAllModes) {
  auto& f = toy();
  ReactionId r1 = f.network.reaction_id("r1");
  ReactionId r4 = f.network.reaction_id("r4");
  auto yields = mode_yields(f.result.modes, r1, r4);
  auto histogram = yield_histogram(yields, 4);
  std::size_t total = 0;
  for (auto count : histogram) total += count;
  EXPECT_EQ(total, yields.size());
  EXPECT_THROW(yield_histogram(yields, 0), InvalidArgumentError);
}

TEST(Yield, NoSubstrateUseGivesNullopt) {
  std::vector<std::vector<BigInt>> modes = {{BigInt(0), BigInt(1)}};
  EXPECT_FALSE(optimal_yield(modes, 0, 1).has_value());
}

}  // namespace
}  // namespace elmo

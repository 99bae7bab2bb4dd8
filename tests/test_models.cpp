// Tests for the built-in model networks.
#include <gtest/gtest.h>

#include <set>

#include "bigint/bigint.hpp"
#include "models/random_network.hpp"
#include "models/ecoli_core.hpp"
#include "models/toy.hpp"
#include "models/yeast.hpp"
#include "network/parser.hpp"
#include "network/validate.hpp"
#include "core/api.hpp"

namespace elmo {
namespace {

TEST(ToyModel, PaperEfmsSatisfySteadyState) {
  Network net = models::toy_network();
  auto n = net.stoichiometry<BigInt>();
  for (const auto& efm : models::toy_efms_paper()) {
    std::vector<BigInt> flux;
    for (auto v : efm) flux.emplace_back(v);
    auto y = n.multiply(flux);
    for (const auto& value : y) EXPECT_TRUE(value.is_zero());
  }
}

TEST(ToyModel, PaperEfmsRespectIrreversibility) {
  Network net = models::toy_network();
  auto rev = net.reversibility();
  for (const auto& efm : models::toy_efms_paper()) {
    for (std::size_t j = 0; j < efm.size(); ++j) {
      if (!rev[j]) {
        EXPECT_GE(efm[j], 0) << "reaction " << j;
      }
    }
  }
}

TEST(ToyModel, PaperEfmsHaveMinimalSupports) {
  // No EFM's support is a strict subset of another's (elementarity).
  const auto& efms = models::toy_efms_paper();
  auto support = [](const std::vector<std::int64_t>& e) {
    std::set<std::size_t> s;
    for (std::size_t i = 0; i < e.size(); ++i)
      if (e[i] != 0) s.insert(i);
    return s;
  };
  for (std::size_t a = 0; a < efms.size(); ++a) {
    for (std::size_t b = 0; b < efms.size(); ++b) {
      if (a == b) continue;
      auto sa = support(efms[a]);
      auto sb = support(efms[b]);
      bool subset = std::includes(sb.begin(), sb.end(), sa.begin(), sa.end());
      EXPECT_FALSE(subset && sa != sb)
          << "mode " << a << " support inside mode " << b;
    }
  }
}

TEST(ToyModel, PaperDncPartitionSizes) {
  // Paper §II.E: partitioning the 8 EFMs across (r8r, r9) gives subsets of
  // sizes {2, 3, 2, 1} for patterns (0,0), (n,0), (0,n), (n,n).
  const auto& efms = models::toy_efms_paper();
  int counts[2][2] = {{0, 0}, {0, 0}};
  for (const auto& e : efms) {
    int has_r8 = e[7] != 0;
    int has_r9 = e[8] != 0;
    ++counts[has_r8][has_r9];
  }
  EXPECT_EQ(counts[0][0], 2);  // {6, 8}
  EXPECT_EQ(counts[1][0], 3);  // {1, 3, 4}
  EXPECT_EQ(counts[0][1], 2);  // {5, 7}
  EXPECT_EQ(counts[1][1], 1);  // {2}
}

TEST(YeastModels, DimensionsMatchPaper) {
  Network n1 = models::yeast_network_1();
  EXPECT_EQ(n1.num_internal_metabolites(), 62u);
  EXPECT_EQ(n1.num_reactions(), 78u);
  EXPECT_EQ(n1.num_reversible_reactions(), 31u);

  Network n2 = models::yeast_network_2();
  EXPECT_EQ(n2.num_internal_metabolites(), 63u);
  EXPECT_EQ(n2.num_reactions(), 83u);
  // Network I's 31 reversibles + R54r/R60r/R63r made reversible = 34.
  EXPECT_EQ(n2.num_reversible_reactions(), 34u);
}

TEST(YeastModels, Network2Modifications) {
  Network n2 = models::yeast_network_2();
  // Added reactions exist.
  for (const char* name : {"R1", "R14", "R56", "R57", "R61"})
    EXPECT_TRUE(n2.find_reaction(name).has_value()) << name;
  // Reversibility flips.
  EXPECT_TRUE(n2.reaction(n2.reaction_id("R54r")).reversible);
  EXPECT_TRUE(n2.reaction(n2.reaction_id("R60r")).reversible);
  EXPECT_TRUE(n2.reaction(n2.reaction_id("R63r")).reversible);
  EXPECT_FALSE(n2.find_reaction("R54").has_value());
  // R62 now consumes internal GLC.
  auto glc = n2.find_metabolite("GLC");
  ASSERT_TRUE(glc.has_value());
  EXPECT_FALSE(n2.metabolite(*glc).external);
  EXPECT_EQ(n2.reaction(n2.reaction_id("R62")).coefficient_of(*glc), -1);
}

TEST(YeastModels, BiomassIsExternalSink) {
  Network n1 = models::yeast_network_1();
  auto bio = n1.find_metabolite("BIO");
  ASSERT_TRUE(bio.has_value());
  EXPECT_TRUE(n1.metabolite(*bio).external);
}

TEST(EcoliCore, ParsesCleanAndComputesQuickly) {
  Network net = models::ecoli_core();
  EXPECT_EQ(net.num_reactions(), 46u);
  EXPECT_GT(net.num_reversible_reactions(), 15u);
  EXPECT_TRUE(validate(net).clean());
  // Round-trips through its own text form.
  Network again = parse_network(models::ecoli_core_text());
  EXPECT_EQ(again.stoichiometry<BigInt>(), net.stoichiometry<BigInt>());
}

TEST(EcoliCore, KnownEfmCount) {
  // Regression anchor: 857 elementary flux modes (validated against the
  // invariant battery in test_api's random sweep machinery).
  auto result = compute_efms(models::ecoli_core());
  EXPECT_EQ(result.num_modes(), 857u);
  // Futile/internal cycles exist (e.g. SDH + FRD): at least one mode with
  // no exchange flux.
  Network net = models::ecoli_core();
  std::size_t internal_cycles = 0;
  for (const auto& mode : result.modes.to_bigint()) {
    bool touches_exchange = false;
    for (std::size_t j = 0; j < mode.size(); ++j) {
      if (mode[j].is_zero()) continue;
      for (const auto& term : net.reaction(j).terms) {
        if (net.metabolite(term.metabolite).external)
          touches_exchange = true;
      }
    }
    if (!touches_exchange) ++internal_cycles;
  }
  EXPECT_GE(internal_cycles, 1u);
}

TEST(RandomNetwork, DeterministicPerSeed) {
  models::RandomNetworkSpec spec;
  spec.seed = 17;
  Network a = models::random_network(spec);
  Network b = models::random_network(spec);
  EXPECT_EQ(a.stoichiometry<BigInt>(), b.stoichiometry<BigInt>());
  EXPECT_EQ(a.reversibility(), b.reversibility());
  spec.seed = 18;
  Network c = models::random_network(spec);
  EXPECT_TRUE(a.stoichiometry<BigInt>() != c.stoichiometry<BigInt>() ||
              a.reversibility() != c.reversibility());
}

TEST(RandomNetwork, RespectsSpecSizes) {
  models::RandomNetworkSpec spec;
  spec.num_metabolites = 10;
  spec.num_extra_reactions = 5;
  spec.num_exchanges = 4;
  spec.seed = 3;
  Network net = models::random_network(spec);
  EXPECT_EQ(net.num_internal_metabolites(), 10u);
  // Backbone: 1 import + 9 chain + 1 export = 11, plus extras + exchanges.
  EXPECT_EQ(net.num_reactions(), 11u + 5u + 4u);
}

}  // namespace
}  // namespace elmo

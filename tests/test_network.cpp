// Tests for the network model, parser, writer and validation.
#include "network/network.hpp"

#include <gtest/gtest.h>

#include "bigint/checked.hpp"
#include "models/toy.hpp"
#include "network/parser.hpp"
#include "network/validate.hpp"
#include "support/error.hpp"

namespace elmo {
namespace {

TEST(Network, AddAndLookup) {
  Network net;
  auto a = net.add_metabolite("A");
  auto xext = net.add_metabolite("Xext", true);
  EXPECT_EQ(net.num_metabolites(), 2u);
  EXPECT_EQ(net.num_internal_metabolites(), 1u);
  EXPECT_EQ(net.find_metabolite("A"), a);
  EXPECT_EQ(net.find_metabolite("Xext"), xext);
  EXPECT_FALSE(net.find_metabolite("B").has_value());

  auto r = net.add_reaction("r1", false, {{"Xext", -1}, {"A", 1}});
  EXPECT_EQ(net.find_reaction("r1"), r);
  EXPECT_EQ(net.reaction_id("r1"), r);
  EXPECT_THROW((void)net.reaction_id("nope"), InvalidArgumentError);
}

TEST(Network, DuplicateNamesRejected) {
  Network net;
  net.add_metabolite("A");
  EXPECT_THROW(net.add_metabolite("A"), InvalidArgumentError);
  net.add_reaction("r", false, {{"A", 1}});
  EXPECT_THROW(net.add_reaction("r", false, {{"A", 1}}),
               InvalidArgumentError);
}

TEST(Network, UnknownMetaboliteInReactionRejected) {
  Network net;
  net.add_metabolite("A");
  EXPECT_THROW(net.add_reaction("r", false, {{"B", 1}}),
               InvalidArgumentError);
}

TEST(Network, TermsSummedAndZeroDropped) {
  Network net;
  net.add_metabolite("A");
  net.add_metabolite("B");
  // A appears with +2 and -2 (cancels); B nets to +1.
  net.add_reaction("r", false, {{"A", 2}, {"A", -2}, {"B", -1}, {"B", 2}});
  const auto& reaction = net.reaction(0);
  ASSERT_EQ(reaction.terms.size(), 1u);
  EXPECT_EQ(reaction.coefficient_of(net.find_metabolite("B").value()), 1);
  EXPECT_EQ(reaction.coefficient_of(net.find_metabolite("A").value()), 0);
}

TEST(Network, StoichiometryMatrixMatchesPaperEq2) {
  Network net = models::toy_network();
  EXPECT_EQ(net.num_internal_metabolites(), 5u);
  EXPECT_EQ(net.num_reactions(), 9u);
  EXPECT_EQ(net.num_reversible_reactions(), 2u);

  auto n = net.stoichiometry<CheckedI64>();
  // Eq (2): rows A, B, C, D, P; columns r1..r9.
  auto expected = Matrix<CheckedI64>::from_rows({
      {1, -1, 0, 0, -1, 0, 0, 0, 0},
      {0, 0, 0, 0, 1, -1, -1, -1, 0},
      {0, 1, -1, 0, 0, 1, 0, 0, 0},
      {0, 0, 1, 0, 0, 0, 0, 0, -1},
      {0, 0, 1, -1, 0, 0, 2, 0, 0},
  });
  EXPECT_EQ(n, expected);
}

TEST(Network, WithoutReactionsRenumbersDensely) {
  Network net = models::toy_network();
  auto cut = net.without_reactions({net.reaction_id("r7")});
  EXPECT_EQ(cut.num_reactions(), 8u);
  EXPECT_FALSE(cut.find_reaction("r7").has_value());
  EXPECT_EQ(cut.reaction(6).name, "r8r");  // shifted down by one
  EXPECT_THROW(net.without_reactions({99}), InvalidArgumentError);
}

TEST(Parser, ParsesCoefficientsArrowsAndComments) {
  const char* text = R"(
    # a comment
    external Zext
    R1 : Aext => A          // exchange
    R2r : A + 2 B <=> 3 C
    R3 : C =>
    R4 : => B
  )";
  Network net = parse_network(text);
  EXPECT_EQ(net.num_reactions(), 4u);
  EXPECT_FALSE(net.reaction(0).reversible);
  EXPECT_TRUE(net.reaction(1).reversible);
  // Suffix rule: Aext external; A, B, C internal; Zext declared external.
  EXPECT_TRUE(net.metabolite(net.find_metabolite("Aext").value()).external);
  EXPECT_FALSE(net.metabolite(net.find_metabolite("A").value()).external);
  EXPECT_TRUE(net.metabolite(net.find_metabolite("Zext").value()).external);
  // Coefficients.
  auto r2 = net.reaction(1);
  EXPECT_EQ(r2.coefficient_of(net.find_metabolite("B").value()), -2);
  EXPECT_EQ(r2.coefficient_of(net.find_metabolite("C").value()), 3);
  // Empty sides allowed.
  EXPECT_EQ(net.reaction(2).terms.size(), 1u);
  EXPECT_EQ(net.reaction(3).terms.size(), 1u);
}

TEST(Parser, MetaboliteDirectiveOverridesSuffixRule) {
  Network net = parse_network("metabolite Fooext\nR1 : Fooext => Bar\n");
  EXPECT_FALSE(
      net.metabolite(net.find_metabolite("Fooext").value()).external);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_network("R1 : A => B\nR2 A => B\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(parse_network("R1 : A B => C\n"), ParseError);
  EXPECT_THROW(parse_network("R1 : A -> B\n"), ParseError);
  EXPECT_THROW(parse_network(" : A => B\n"), ParseError);
  EXPECT_THROW(parse_network("R1 : =>\n"), ParseError);
  EXPECT_THROW(parse_network("R1 : A => B\nR1 : A => B\n"), ParseError);
}

TEST(Parser, RoundTripThroughWriter) {
  Network net = models::toy_network();
  std::string text = write_network(net);
  Network again = parse_network(text);
  EXPECT_EQ(again.num_reactions(), net.num_reactions());
  EXPECT_EQ(again.num_internal_metabolites(),
            net.num_internal_metabolites());
  EXPECT_EQ(again.stoichiometry<CheckedI64>(),
            net.stoichiometry<CheckedI64>());
  EXPECT_EQ(again.reversibility(), net.reversibility());
}

TEST(Validate, CleanNetworkHasNoWarnings) {
  EXPECT_TRUE(validate(models::toy_network()).clean());
}

TEST(Validate, FlagsDeadMetabolites) {
  Network net = parse_network(R"(
    R1 : Aext => A
    R2 : A => B
  )");
  auto report = validate(net);
  ASSERT_FALSE(report.clean());
  bool found = false;
  for (const auto& w : report.warnings)
    if (w.find("B") != std::string::npos &&
        w.find("never consumed") != std::string::npos)
      found = true;
  EXPECT_TRUE(found);
}

TEST(Validate, FlagsExternalOnlyReaction) {
  Network net = parse_network("R1 : Aext => Bext\n");
  auto report = validate(net);
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("only external"), std::string::npos);
}

}  // namespace
}  // namespace elmo

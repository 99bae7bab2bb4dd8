// Gene-knockout study — one of the EFM applications motivating the paper
// (§I cites knockout-strategy work by Haus et al., Trinh & Srienc).
//
// For every single-reaction knockout of a network this example recomputes
// the elementary flux modes and reports how the organism's pathway
// repertoire shrinks — in total and for the modes that still produce a
// target product.  Reactions whose loss leaves no producing mode are the
// essential set for that product.
//
//   $ ./examples/knockout_study              # toy network, target r4 (Pext)
//   $ ./examples/knockout_study R70          # yeast (small scale), biomass
#include <cstdio>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "models/toy.hpp"
#include "models/yeast.hpp"
#include "support/format.hpp"

namespace {

std::size_t modes_using(const elmo::EfmResult& result,
                        const std::string& reaction) {
  std::size_t index = result.reaction_names.size();
  for (std::size_t j = 0; j < result.reaction_names.size(); ++j) {
    if (result.reaction_names[j] == reaction) index = j;
  }
  if (index == result.reaction_names.size()) return 0;
  std::size_t count = 0;
  for (const auto& mode : result.modes.to_bigint())
    if (!mode[index].is_zero()) ++count;
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace elmo;

  Network network;
  std::string target;
  if (argc > 1) {
    // Yeast Network I at demo scale; argv[1] is the target reaction.
    network = models::yeast_network_1();
    std::vector<ReactionId> trim;
    for (const char* name : {"R15", "R33", "R41", "R46", "R92r", "R98",
                             "R100"}) {
      if (auto id = network.find_reaction(name)) trim.push_back(*id);
    }
    network = network.without_reactions(trim);
    target = argv[1];
  } else {
    network = models::toy_network();
    target = "r4";  // export of P
  }
  ELMO_REQUIRE(network.find_reaction(target).has_value(),
               "unknown target reaction: " + target);

  EfmOptions options;
  auto wild_type = compute_efms(network, options);
  const std::size_t wt_total = wild_type.num_modes();
  const std::size_t wt_producing = modes_using(wild_type, target);
  std::printf("wild type: %s EFMs, %s producing via %s\n\n",
              with_commas(wt_total).c_str(),
              with_commas(wt_producing).c_str(), target.c_str());
  std::printf("%-10s %12s %14s %10s\n", "knockout", "EFMs", "producing",
              "essential?");

  std::vector<std::string> essential;
  for (ReactionId id = 0; id < network.num_reactions(); ++id) {
    const std::string& name = network.reaction(id).name;
    if (name == target) continue;
    Network mutant = network.without_reactions({id});
    auto result = compute_efms(mutant, options);
    std::size_t producing = modes_using(result, target);
    bool is_essential = producing == 0 && wt_producing > 0;
    if (is_essential) essential.push_back(name);
    std::printf("%-10s %12s %14s %10s\n", name.c_str(),
                with_commas(result.num_modes()).c_str(),
                with_commas(producing).c_str(), is_essential ? "YES" : "");
  }

  std::printf("\nessential for %s: ", target.c_str());
  if (essential.empty()) std::printf("(none)");
  for (const auto& name : essential) std::printf("%s ", name.c_str());
  std::printf("\n");
  return 0;
}

#include "models/random_network.hpp"

#include <string>

#include "network/network.hpp"
#include "support/random.hpp"

namespace elmo::models {

namespace {

/// `prefix` followed by the decimal `index` ("M3", "R12").
std::string numbered(char prefix, std::size_t index) {
  std::string name(1, prefix);
  name += std::to_string(index);
  return name;
}

}  // namespace

Network random_network(const RandomNetworkSpec& spec) {
  Rng rng(spec.seed);
  Network net;

  for (std::size_t i = 0; i < spec.num_metabolites; ++i)
    net.add_metabolite(numbered('M', i), /*external=*/false);
  net.add_metabolite("Xin", /*external=*/true);
  net.add_metabolite("Xout", /*external=*/true);

  std::size_t reaction_counter = 0;
  auto next_name = [&] { return numbered('R', reaction_counter++); };

  // Backbone: Xin -> M0 -> M1 -> ... -> M(n-1) -> Xout keeps every
  // metabolite reachable so the network is rarely entirely dead.
  net.add_reaction(next_name(), false, {{"Xin", -1}, {"M0", 1}});
  for (std::size_t i = 0; i + 1 < spec.num_metabolites; ++i) {
    net.add_reaction(next_name(), rng.chance(spec.reversible_probability),
                     {{numbered('M', i), -1}, {numbered('M', i + 1), 1}});
  }
  net.add_reaction(
      next_name(), false,
      {{numbered('M', spec.num_metabolites - 1), -1}, {"Xout", 1}});

  // Random internal reactions: 1-2 substrates, 1-2 products, distinct.
  for (std::size_t k = 0; k < spec.num_extra_reactions; ++k) {
    std::vector<std::pair<std::string, std::int64_t>> terms;
    std::size_t num_subs = 1 + rng.below(2);
    std::size_t num_prods = 1 + rng.below(2);
    std::vector<bool> used(spec.num_metabolites, false);
    auto pick_unused = [&]() -> std::size_t {
      for (int attempts = 0; attempts < 32; ++attempts) {
        std::size_t m = rng.below(spec.num_metabolites);
        if (!used[m]) {
          used[m] = true;
          return m;
        }
      }
      return rng.below(spec.num_metabolites);
    };
    for (std::size_t s = 0; s < num_subs; ++s)
      terms.emplace_back(numbered('M', pick_unused()),
                         -rng.range(1, spec.max_coefficient));
    for (std::size_t p = 0; p < num_prods; ++p)
      terms.emplace_back(numbered('M', pick_unused()),
                         rng.range(1, spec.max_coefficient));
    net.add_reaction(next_name(), rng.chance(spec.reversible_probability),
                     terms);
  }

  // Random exchanges.
  for (std::size_t k = 0; k < spec.num_exchanges; ++k) {
    std::size_t m = rng.below(spec.num_metabolites);
    bool import = rng.chance(0.5);
    std::vector<std::pair<std::string, std::int64_t>> terms;
    if (import) {
      terms = {{"Xin", -1}, {numbered('M', m), 1}};
    } else {
      terms = {{numbered('M', m), -1}, {"Xout", 1}};
    }
    net.add_reaction(next_name(), rng.chance(spec.reversible_probability),
                     terms);
  }
  return net;
}

}  // namespace elmo::models

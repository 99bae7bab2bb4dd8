// Strain design on the E. coli core model — the Trinh & Srienc use case
// the paper's introduction cites (refs [5]-[6]): engineer a cell whose
// remaining pathways favour ethanol production.
//
// Work flow, entirely on top of the computed EFM set:
//   1. compute all elementary flux modes,
//   2. yield analysis: ethanol per glucose, per mode,
//   3. find the single/double knockouts that REMOVE low-yield competing
//      modes while keeping the top-yield modes alive,
//   4. report the best designs and the yield spectrum before/after,
//   5. decompose an example measured flux onto the surviving modes.
//
//   $ ./examples/strain_design
#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/decompose.hpp"
#include "analysis/knockout.hpp"
#include "analysis/yield.hpp"
#include "core/api.hpp"
#include "models/ecoli_core.hpp"

int main() {
  using namespace elmo;

  Network net = models::ecoli_core();
  auto result = compute_efms(net);
  const auto modes = result.modes.to_bigint();
  const ReactionId uptake = net.reaction_id("GLCpts");
  const ReactionId ethanol = net.reaction_id("EXetoh");

  std::printf("E. coli core: %zu EFMs\n", result.num_modes());
  auto yields = mode_yields(modes, uptake, ethanol);
  auto best = optimal_yield(modes, uptake, ethanol);
  if (!best) {
    std::printf("no glucose-consuming mode produces ethanol\n");
    return 1;
  }
  std::printf("glucose-consuming modes: %zu; best ethanol yield: %s "
              "(mode %zu)\n\n",
              yields.size(), best->yield.to_string().c_str(),
              best->mode_index);

  // Wild-type yield spectrum.
  auto spectrum = yield_histogram(yields, 6);
  std::printf("wild-type yield spectrum (6 bins up to max):");
  for (auto count : spectrum) std::printf(" %zu", count);
  std::printf("\n\n");

  // Score every single knockout: kill competing fermentation while keeping
  // the champion mode alive.
  struct Design {
    std::vector<ReactionId> knockouts;
    double mean_yield = 0;
    std::size_t surviving = 0;
    std::size_t producing = 0;
  };
  auto evaluate = [&](std::vector<ReactionId> ko) -> Design {
    Design d;
    d.knockouts = std::move(ko);
    auto survivors = surviving_modes(modes, d.knockouts);
    d.surviving = survivors.size();
    double total = 0;
    for (std::size_t m : survivors) {
      if (modes[m][uptake].is_zero()) continue;
      BigRational y(modes[m][ethanol].abs(), modes[m][uptake].abs());
      total += y.to_double();
      ++d.producing;
    }
    d.mean_yield = d.producing ? total / static_cast<double>(d.producing) : 0;
    return d;
  };

  std::vector<Design> designs;
  for (ReactionId a = 0; a < net.num_reactions(); ++a) {
    if (a == uptake || a == ethanol) continue;
    auto d = evaluate({a});
    if (d.producing > 0) designs.push_back(std::move(d));
  }
  for (ReactionId a = 0; a < net.num_reactions(); ++a) {
    for (ReactionId b = a + 1; b < net.num_reactions(); ++b) {
      if (a == uptake || a == ethanol || b == uptake || b == ethanol)
        continue;
      auto d = evaluate({a, b});
      if (d.producing > 0) designs.push_back(std::move(d));
    }
  }
  std::sort(designs.begin(), designs.end(),
            [](const Design& x, const Design& y) {
              return x.mean_yield > y.mean_yield;
            });

  std::printf("top knockout designs by mean ethanol yield of surviving "
              "glucose modes:\n");
  std::printf("%-24s %12s %12s %12s\n", "knockouts", "mean yield",
              "surviving", "producing");
  for (std::size_t k = 0; k < std::min<std::size_t>(8, designs.size()); ++k) {
    const auto& d = designs[k];
    std::string names;
    for (ReactionId r : d.knockouts) {
      if (!names.empty()) names += '+';
      names += net.reaction(r).name;
    }
    std::printf("%-24s %12.3f %12zu %12zu\n", names.c_str(), d.mean_yield,
                d.surviving, d.producing);
  }

  // Decompose a plausible "measured" flux (the champion mode plus a bit of
  // acetate overflow) onto the wild-type EFM basis.
  std::vector<BigRational> measured(modes[0].size());
  for (std::size_t j = 0; j < measured.size(); ++j)
    measured[j] = BigRational(modes[best->mode_index][j] * BigInt(3));
  // Mix in another producing mode if one exists.
  if (yields.size() > 1) {
    std::size_t other = yields[0].mode_index == best->mode_index
                            ? yields[1].mode_index
                            : yields[0].mode_index;
    for (std::size_t j = 0; j < measured.size(); ++j)
      measured[j] += BigRational(modes[other][j]);
  }
  auto decomposition = decompose_flux(measured, modes, net.reversibility());
  std::printf("\nflux decomposition of a mixed 'measured' state: %zu terms, "
              "%s\n",
              decomposition.terms.size(),
              decomposition.exact ? "exact" : "residual left");
  for (const auto& term : decomposition.terms)
    std::printf("  %s x mode %zu\n", term.weight.to_string().c_str(),
                term.mode_index);
  return 0;
}

// Table II: the combinatorial parallel Nullspace Algorithm (Algorithm 2) on
// S. cerevisiae Network I across core counts.
//
// Paper reference (Intel Xeon Clovertown, 2011):
//   cores        1        2        4       8      16     32     64
//   total (s) 2894.40  1490.85  761.29  404.33  208.98 115.46  61.87
//   total # candidate modes: 159,599,700,951; total # EFM: 1,515,314
//
// This driver reruns the experiment on the simulated message-passing
// machine, printing the same row structure (gen cand / rank test /
// communicate / merge / total) plus the per-rank candidate-pair share,
// which is the quantity that actually scales with the core count.
#include <cstdio>

#include "bench_common.hpp"
#include "core/combinatorial_parallel.hpp"
#include "nullspace/efm.hpp"

int main(int argc, char** argv) {
  using namespace elmo;
  const bool full = bench::full_scale(argc, argv);
  bench::print_scale_banner(full, "Table II: Algorithm 2 on Network I");

  Network network = bench::network_1(full);
  auto compressed = compress(network);
  std::printf("network: %zu x %zu, reduced %zu x %zu\n\n",
              network.num_internal_metabolites(), network.num_reactions(),
              compressed.num_metabolites(), compressed.num_reactions());

  // The paper's node x cores-per-node configurations (Table II header).
  struct Config {
    int nodes;
    int cores_per_node;
  };
  const std::vector<Config> configs =
      full ? std::vector<Config>{{1, 1}, {2, 1}, {1, 4}, {1, 8}, {4, 4}}
           : std::vector<Config>{{1, 1}, {2, 1}, {1, 4}, {1, 8},
                                 {4, 4},  {8, 4}, {16, 4}};

  Table table({"# nodes", "cores/node", "total # cores", "gen cand (s)",
               "rank test (s)", "communicate (s)", "merge (s)",
               "total time (s)", "pairs per core (max)"});
  std::uint64_t total_candidates = 0;
  std::size_t total_efms = 0;

  for (const auto& config : configs) {
    const int total_cores = config.nodes * config.cores_per_node;
    auto problem = to_problem<CheckedI64>(compressed);
    ParallelOptions options;
    options.num_ranks = config.nodes;
    options.threads_per_rank = config.cores_per_node;
    Stopwatch watch;
    auto solved =
        solve_combinatorial_parallel<CheckedI64, Bitset<2>>(problem, options);
    const double total = watch.seconds();
    auto modes = columns_to_bigint(solved.columns);
    canonicalize_modes(modes, problem.reversible);
    total_candidates = solved.stats.total_pairs_probed;
    total_efms = modes.size();

    // Largest pair share any core processed: the combinatorial split's
    // balance metric (contiguous slices are equal within one pair).
    const std::uint64_t per_core_share =
        (solved.stats.total_pairs_probed + total_cores - 1) / total_cores;

    table.add_row({std::to_string(config.nodes),
                   std::to_string(config.cores_per_node),
                   std::to_string(total_cores),
                   seconds_str(solved.stats.phases.seconds("gen cand")),
                   seconds_str(solved.stats.phases.seconds("rank test")),
                   seconds_str(solved.stats.phases.seconds("communicate")),
                   seconds_str(solved.stats.phases.seconds("merge")),
                   seconds_str(total), with_commas(per_core_share)});
  }

  std::fputs(table.render("Algorithm 2 (measured)").c_str(), stdout);
  std::printf("\nTotal # candidate modes: %s\n",
              with_commas(total_candidates).c_str());
  std::printf("Total # EFM: %s\n", with_commas(total_efms).c_str());
  if (full) {
    std::printf("\npaper reference: 159,599,700,951 candidates / 1,515,314 "
                "EFMs on the authors' 35x55 reduction\n"
                "(this build keeps duplicate reactions unmerged -> 40x65 "
                "reduction; see EXPERIMENTS.md)\n");
  }
  return 0;
}

// Ablation: the paper's two row-ordering heuristics (SII.C) — sort
// processed rows by increasing nonzeros, and process reversible reactions
// last — measured by total candidate pairs and wall time on the demo
// Network I instance.  "a heuristic proven to often improve the efficiency
// of Nullspace Algorithm".
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace elmo;
  const bool full = bench::full_scale(argc, argv);
  bench::print_scale_banner(full, "Ablation: row-ordering heuristics");

  Network network = bench::network_1(full);
  auto compressed = compress(network);

  Table table({"nnz-sorted", "reversible-last", "# candidate pairs",
               "# rank tests", "peak columns", "time (s)", "# EFM"});
  ModeSet reference;
  bool all_equal = true;
  for (bool nnz : {true, false}) {
    for (bool rev_last : {true, false}) {
      EfmOptions options;
      options.ordering.sort_by_nonzeros = nnz;
      options.ordering.reversible_last = rev_last;
      Stopwatch watch;
      auto result = compute_efms(compressed, network.reversibility(), options);
      double seconds = watch.seconds();
      if (reference.empty())
        reference = result.modes;
      else
        all_equal = all_equal && reference == result.modes;
      table.add_row({nnz ? "yes" : "no", rev_last ? "yes" : "no",
                     with_commas(result.stats.total_pairs_probed),
                     with_commas(result.stats.total_rank_tests),
                     with_commas(result.stats.peak_columns),
                     seconds_str(seconds), with_commas(result.num_modes())});
    }
  }
  std::fputs(table.render("Algorithm 1 under ordering variants").c_str(),
             stdout);
  std::printf("\nEFM sets identical across variants: %s\n",
              all_equal ? "yes" : "NO - BUG");
  return all_equal ? 0 : 1;
}

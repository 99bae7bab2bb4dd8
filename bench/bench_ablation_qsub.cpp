// Ablation: divide-and-conquer partition choice (§IV.C).
//
// For every subset of the four trailing reversible reactions (size 1..3),
// runs Algorithm 3 on one rank and prints the measured cumulative candidate
// count, time and EFM count, then the partition with the fewest candidate
// pairs.  The EFM count is the same in every row: the partition changes
// the cost, never the result.  Choosing the partition automatically is
// still open, as the paper says.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "bitset/bitset.hpp"
#include "core/combined.hpp"
#include "nullspace/efm.hpp"
#include "nullspace/problem.hpp"

int main(int argc, char** argv) {
  using namespace elmo;
  const bool full = bench::full_scale(argc, argv);
  bench::print_scale_banner(full, "Ablation: partition-subset selection");

  Network network = bench::network_1(full);
  auto compressed = compress(network);
  auto problem = to_problem<CheckedI64>(compressed);

  std::vector<std::size_t> pool =
      select_partition_rows<CheckedI64, Bitset<2>>(problem, OrderingOptions{}, 4);
  std::printf("candidate pool (trailing reversibles):");
  for (auto row : pool)
    std::printf(" %s", problem.reaction_names[row].c_str());
  std::printf("\n\n");

  struct Entry {
    std::string label;
    std::uint64_t measured = 0;
  };
  std::vector<Entry> entries;

  Table table({"partition", "measured pairs", "time (s)", "# EFM"});
  for (std::uint64_t mask = 1; mask < (1ULL << pool.size()); ++mask) {
    std::vector<std::size_t> rows;
    for (std::size_t k = 0; k < pool.size(); ++k)
      if ((mask >> k) & 1) rows.push_back(pool[k]);
    if (rows.size() > 3) continue;

    Entry entry;
    CombinedOptions combined;
    for (auto row : rows) {
      if (!entry.label.empty()) entry.label += ',';
      entry.label += problem.reaction_names[row];
      combined.partition_reactions.push_back(problem.reaction_names[row]);
    }
    combined.num_ranks = 1;
    Stopwatch watch;
    auto run = solve_combined<CheckedI64, Bitset<2>>(problem, combined);
    const double seconds = watch.seconds();
    entry.measured = run.total.total_pairs_probed;
    auto modes = columns_to_bigint(run.columns);
    canonicalize_modes(modes, problem.reversible);
    table.add_row({entry.label, with_commas(entry.measured),
                   seconds_str(seconds), with_commas(modes.size())});
    entries.push_back(std::move(entry));
  }
  std::fputs(table.render("partition sweep (1 rank)").c_str(), stdout);

  auto best = std::min_element(entries.begin(), entries.end(),
                               [](const Entry& a, const Entry& b) {
                                 return a.measured < b.measured;
                               });
  std::printf("\nmeasured best: %s (%s pairs)\n", best->label.c_str(),
              with_commas(best->measured).c_str());
  return 0;
}

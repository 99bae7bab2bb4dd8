// Microbenchmark: elementarity-test backends on realistic yeast supports.
//
// Compares the exact Bareiss rank test (paper's reference), the modular
// Z_(2^61-1) test (this library's default), and the combinatorial
// support-subset test at several column counts — the data behind the
// choice of default backend.
#include <benchmark/benchmark.h>

#include "bitset/bitset.hpp"
#include "compress/compression.hpp"
#include "models/yeast.hpp"
#include "nullspace/initial_basis.hpp"
#include "nullspace/modular_rank.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/rank_test.hpp"
#include "nullspace/reversible_split.hpp"
#include "support/random.hpp"

namespace {

using namespace elmo;

struct Fixture {
  Fixture()
      : prepared(prepare_problem(
            to_problem<CheckedI64>(compress(models::yeast_network_1())))),
        basis(compute_initial_basis<CheckedI64, Bitset<2>>(prepared.problem)),
        exact(prepared.problem.stoichiometry),
        modular_tester(prepared.problem.stoichiometry, basis.columns) {
    // Supports near the accept/reject boundary (size ~ rank +- 1).
    Rng rng(33);
    const std::size_t q = prepared.problem.num_reactions();
    for (int i = 0; i < 256; ++i) {
      Bitset<2> support;
      std::size_t size = basis.stoichiometry_rank - 1 + rng.below(3);
      while (support.count() < size) support.set(rng.below(q));
      supports.push_back(std::move(support));
    }
  }

  PreparedProblem<CheckedI64> prepared;
  InitialBasis<CheckedI64, Bitset<2>> basis;
  RankTester<CheckedI64> exact;
  ModularRankTester<CheckedI64> modular_tester;
  std::vector<Bitset<2>> supports;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_RankTestExactBareiss(benchmark::State& state) {
  auto& f = fixture();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.exact.is_elementary(f.supports[i++ % f.supports.size()]));
  }
}
BENCHMARK(BM_RankTestExactBareiss);

void BM_RankTestModular(benchmark::State& state) {
  auto& f = fixture();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.modular_tester.is_elementary(f.supports[i++ % f.supports.size()]));
  }
}
BENCHMARK(BM_RankTestModular);

void BM_CombinatorialSubsetTest(benchmark::State& state) {
  auto& f = fixture();
  // Snapshot of `columns` current matrices at various widths.
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  std::vector<Bitset<2>> columns;
  Rng rng(7);
  const std::size_t q = f.prepared.problem.num_reactions();
  for (std::size_t c = 0; c < width; ++c) {
    Bitset<2> s;
    std::size_t size = 8 + rng.below(20);
    while (s.count() < size) s.set(rng.below(q));
    columns.push_back(std::move(s));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& candidate = f.supports[i++ % f.supports.size()];
    bool elementary = true;
    for (const auto& support : columns) {
      if (support != candidate && support.is_subset_of(candidate)) {
        elementary = false;
        break;
      }
    }
    benchmark::DoNotOptimize(elementary);
  }
}
BENCHMARK(BM_CombinatorialSubsetTest)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();

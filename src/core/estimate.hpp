// Candidate-count estimation for divide-and-conquer planning.
//
// The paper (§IV.C) leaves open how to pick the partition subset: "An
// automated method to select the subset and estimate the approximate number
// of elementary modes for a given reaction partition would be helpful to
// make the combined parallel Nullspace Algorithm a fully automated
// procedure."  This module implements that future-work item with a
// prefix-run estimator: the Nullspace Algorithm runs normally until a pair
// budget is exhausted, then the remaining iterations are extrapolated
// geometrically from the observed growth of the per-iteration pair counts.
// (A thinning/sampling estimator was tried first and rejected: truncating
// the column set changes the quadratic growth trajectory and produced
// anti-correlated rankings.)
//
// Estimates are meant for RANKING candidate partitions; the ablation bench
// bench_ablation_qsub measures how well the ranking matches reality.
#pragma once

#include <algorithm>
#include <cmath>

#include "core/combined.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/initial_basis.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/rank_test.hpp"
#include "nullspace/stats.hpp"
#include "support/timer.hpp"

namespace elmo {

struct EstimateOptions {
  /// Stop the exact prefix once this many pairs have been probed.
  std::uint64_t pair_budget = 2'000'000;
  /// Safety cap on the prefix's column count.
  std::size_t max_columns = 20'000;
  /// Growth-ratio clamp for the geometric tail.
  double max_growth = 6.0;
};

struct SubsetEstimate {
  /// Projected total positive x negative pairs (the paper's "candidate
  /// modes" count, the time proxy).
  double estimated_pairs = 0.0;
  /// Projected number of EFM columns surviving Proposition 1.
  double estimated_efms = 0.0;
  /// True if the prefix covered the whole run (the estimate is exact).
  bool exact = true;
};

/// Estimate the cost of one divide-and-conquer subset.
template <typename Scalar, typename Support>
SubsetEstimate estimate_subset(const EfmProblem<Scalar>& problem,
                               const SubsetSpec& spec,
                               const EstimateOptions& options = {}) {
  auto sub = detail::make_subproblem<Scalar>(problem, spec);
  auto prepared = prepare_problem(sub.problem);
  const auto exclude = prepared.with_backward_copies(sub.nzf_sub_rows);
  auto basis = compute_initial_basis<Scalar, Support>(prepared.problem,
                                                      OrderingOptions{},
                                                      exclude);
  auto columns = basis.columns;
  RankTester<Scalar> tester(prepared.problem.stoichiometry);
  auto is_elementary = [&](const Support& support) {
    return tester.is_elementary(support);
  };

  SubsetEstimate estimate;
  PhaseTimer phases;
  std::uint64_t pairs_so_far = 0;
  // Per-iteration pair counts and column counts of the exact prefix.
  std::vector<double> pair_history;
  std::vector<double> column_history;
  std::size_t iterations_done = 0;
  const std::size_t total_iterations = basis.processing_order.size();

  for (std::size_t row : basis.processing_order) {
    if (pairs_so_far > options.pair_budget ||
        columns.size() > options.max_columns) {
      estimate.exact = false;
      break;
    }
    IterationStats iteration;
    auto cls = classify_row(columns, row);
    std::vector<FluxColumn<Scalar, Support>> accepted;
    process_pair_range(columns, row, cls, basis.stoichiometry_rank, 0,
                       cls.pair_count(), std::size_t{1} << 20, is_elementary,
                       iteration, phases, accepted);
    pairs_so_far += iteration.pairs_probed;
    pair_history.push_back(static_cast<double>(iteration.pairs_probed));
    columns = merge_next(std::move(columns), cls,
                         prepared.problem.reversible[row],
                         std::move(accepted));
    column_history.push_back(static_cast<double>(columns.size()));
    ++iterations_done;
  }

  estimate.estimated_pairs = static_cast<double>(pairs_so_far);
  double projected_columns = static_cast<double>(columns.size());

  if (!estimate.exact) {
    // Geometric tail: growth ratio of the pair counts over the last few
    // prefix iterations (iterations with zero pairs are skipped).
    double ratio = 2.0;
    {
      std::vector<double> nonzero;
      for (double pairs : pair_history)
        if (pairs > 0) nonzero.push_back(pairs);
      if (nonzero.size() >= 3) {
        double acc = 0;
        int terms = 0;
        for (std::size_t k = nonzero.size() - 1;
             k > 0 && terms < 3; --k, ++terms)
          acc += nonzero[k] / nonzero[k - 1];
        ratio = acc / std::max(terms, 1);
      }
      ratio = std::clamp(ratio, 1.0, options.max_growth);
    }
    double last_pairs =
        pair_history.empty() ? 0.0 : pair_history.back();
    double column_ratio = 1.3;
    if (column_history.size() >= 2 && column_history[column_history.size() - 2] > 0) {
      column_ratio = column_history.back() /
                     column_history[column_history.size() - 2];
      column_ratio = std::clamp(column_ratio, 1.0, options.max_growth);
    }
    // The growth ratio decays toward 1 as the run progresses (real
    // per-iteration pair counts peak and then shrink as irreversible rows
    // cull columns); damping keeps long tails from exploding.
    constexpr double kDamping = 0.7;
    double term = last_pairs;
    double step = ratio;
    double column_step = column_ratio;
    for (std::size_t k = iterations_done; k < total_iterations; ++k) {
      term *= step;
      estimate.estimated_pairs += term;
      projected_columns *= column_step;
      step = 1.0 + (step - 1.0) * kDamping;
      column_step = 1.0 + (column_step - 1.0) * kDamping;
    }
  }

  // EFM projection: the fraction of final columns passing Proposition 1 is
  // approximated by the fraction in the CURRENT matrix with nonzero values
  // in all nzf rows.
  double fraction = 1.0;
  if (!sub.nzf_sub_rows.empty() && !columns.empty()) {
    std::size_t passing = 0;
    for (const auto& column : columns) {
      bool ok = true;
      for (std::size_t nzf : sub.nzf_sub_rows)
        ok = ok && column.support.test(nzf);
      if (ok) ++passing;
    }
    fraction = static_cast<double>(passing) /
               static_cast<double>(columns.size());
  }
  estimate.estimated_efms = projected_columns * fraction;
  return estimate;
}

/// Score a candidate partition (set of reactions) by its estimated total
/// pair count across all 2^qsub subsets; lower is better.
template <typename Scalar, typename Support>
double estimate_partition_cost(const EfmProblem<Scalar>& problem,
                               const std::vector<std::size_t>& rows,
                               const EstimateOptions& options = {}) {
  double total = 0.0;
  const std::size_t qsub = rows.size();
  for (std::uint64_t id = 0; id < (1ULL << qsub); ++id) {
    SubsetSpec spec;
    for (std::size_t k = 0; k < qsub; ++k)
      spec.pattern.emplace_back(rows[k], (id >> k) & 1);
    total += estimate_subset<Scalar, Support>(problem, spec, options)
                 .estimated_pairs;
  }
  return total;
}

}  // namespace elmo

#include "core/api.hpp"

#include <optional>

#include "bigint/bigint.hpp"
#include "bigint/checked.hpp"
#include "bitset/bitset.hpp"
#include "compress/compression.hpp"
#include "core/combinatorial_parallel.hpp"
#include "core/combined.hpp"
#include "core/partitioned_parallel.hpp"
#include "mpsim/communicator.hpp"
#include "network/network.hpp"
#include "nullspace/efm.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "nullspace/stats.hpp"
#include "obs/obs.hpp"
#include "resource/governor.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace elmo {

namespace {

/// Zip mpsim traffic counters with the matching per-rank solver ledgers
/// into report entries (either side may be shorter; missing data stays 0).
std::vector<obs::RankEntry> make_rank_entries(
    const mpsim::RunReport& report,
    const std::vector<SolveStats>& rank_stats) {
  std::vector<obs::RankEntry> entries;
  const std::size_t n = std::max(report.ranks.size(), rank_stats.size());
  entries.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    obs::RankEntry entry;
    entry.rank = static_cast<int>(r);
    if (r < report.ranks.size()) {
      const auto& counters = report.ranks[r];
      entry.messages_sent = counters.messages_sent;
      entry.messages_received = counters.messages_received;
      entry.bytes_sent = counters.bytes_sent;
      entry.collectives = counters.collectives;
      entry.memory_peak_bytes = counters.memory_peak;
      entry.wait_data_us = counters.wait_data_us;
      entry.wait_barrier_us = counters.wait_barrier_us;
      entry.wait_straggler_us = counters.wait_straggler_us;
      entry.max_queue_depth = counters.max_queue_depth;
    }
    if (r < rank_stats.size()) {
      entry.phase_seconds = rank_stats[r].phases.totals();
      entry.spill_bytes = rank_stats[r].total_spilled_bytes;
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

/// Map ORIGINAL partition reaction names to reduced-problem names.
std::vector<std::string> reduced_partition_names(
    const CompressedProblem& compressed,
    const std::vector<std::string>& original_names) {
  std::vector<std::string> reduced;
  reduced.reserve(original_names.size());
  for (const auto& name : original_names) {
    auto column = compressed.column_for(name);
    ELMO_REQUIRE(column.has_value(),
                 "partition reaction " + name +
                     " was removed by compression (forced zero flux)");
    reduced.push_back(compressed.reaction_names[*column]);
  }
  return reduced;
}

/// The reconstruction map's numerators as int64, or nullopt when one does
/// not fit (then every mode takes the BigInt expand).
std::optional<std::vector<CheckedI64>> i64_numerators(
    const ReconstructionMap& map) {
  std::vector<CheckedI64> numerators;
  numerators.reserve(map.numerator.size());
  for (const auto& numerator : map.numerator) {
    if (!numerator.fits_i64()) return std::nullopt;
    numerators.emplace_back(numerator.to_i64());
  }
  return numerators;
}

/// Expand one int64 solver column to the original reaction space: checked
/// multiply-adds over the integer reconstruction map, one gcd and one exact
/// divide.  Throws OverflowError when the arithmetic leaves int64.
std::vector<BigInt> expand_i64(const ReconstructionMap& map,
                               const std::vector<CheckedI64>& numerators,
                               const std::vector<CheckedI64>& values,
                               std::vector<CheckedI64>& original) {
  original.assign(map.rows(), CheckedI64(0));
  CheckedI64 g;
  for (std::size_t r = 0; r < map.rows(); ++r) {
    for (std::size_t k = map.row_start[r]; k < map.row_start[r + 1]; ++k)
      original[r] += numerators[k] * values[map.column[k]];
    g = CheckedI64::gcd(g, original[r]);
  }
  std::vector<BigInt> mode;
  mode.reserve(original.size());
  for (const CheckedI64 flux : original)
    mode.emplace_back(g.value() > 1 ? flux.exact_div(g).value() : flux.value());
  return mode;
}

/// Expand every int64 solver column, releasing each column's values once it
/// is expanded.  A mode that overflows int64 is redone alone through the
/// BigInt CompressedProblem::expand over the same map.
template <typename Support>
std::vector<std::vector<BigInt>> expand_columns(
    const CompressedProblem& compressed,
    std::vector<FluxColumn<CheckedI64, Support>>& columns) {
  const ReconstructionMap& map = compressed.reconstruction;
  const auto numerators = i64_numerators(map);
  std::vector<std::vector<BigInt>> modes;
  modes.reserve(columns.size());
  std::vector<CheckedI64> scratch;
  for (auto& column : columns) {
    std::optional<std::vector<BigInt>> mode;
    if (numerators) {
      try {
        mode = expand_i64(map, *numerators, column.values, scratch);
      } catch (const OverflowError&) {
        // Redone in BigInt below.
      }
    }
    if (!mode) {
      std::vector<BigInt> reduced;
      reduced.reserve(column.values.size());
      for (const CheckedI64 value : column.values)
        reduced.emplace_back(value.value());
      mode = compressed.expand(reduced);
    }
    modes.push_back(std::move(*mode));
    column = {};
  }
  return modes;
}

template <typename Scalar, typename Support>
EfmResult run_with(const CompressedProblem& compressed,
                   const EfmProblem<Scalar>& problem,
                   const std::vector<bool>& original_reversibility,
                   const EfmOptions& options) {
  EfmResult result;
  Stopwatch watch;

  SolverOptions solver;
  solver.ordering = options.ordering;
  solver.test = options.test;
  solver.rank_backend = options.rank_backend;
  solver.on_iteration = options.on_iteration;
  solver.record_history = options.record_history;
  solver.audit = options.audit;
  solver.spill = options.spill;
  // A governed run always takes the chunked spill driver, which decides per
  // chunk from the live headroom whether to hit disk; an explicit
  // spill.enabled also works without any --mem-limit.
  if (options.mem_limit_bytes > 0) solver.spill.enabled = true;

  std::vector<FluxColumn<Scalar, Support>> columns;
  switch (options.algorithm) {
    case Algorithm::kSerial: {
      auto solved =
          solve_efms<Scalar, Support>(problem, solver, options.threads_per_rank);
      columns = std::move(solved.columns);
      result.stats = std::move(solved.stats);
      break;
    }
    case Algorithm::kCombinatorialParallel:
    case Algorithm::kPartitioned: {
      ParallelSolveResult<Scalar, Support> solved;
      if (options.algorithm == Algorithm::kPartitioned) {
        PartitionedOptions partitioned;
        partitioned.num_ranks = options.num_ranks;
        partitioned.threads_per_rank = options.threads_per_rank;
        partitioned.solver = solver;
        partitioned.memory_budget_per_rank = options.memory_budget_per_rank;
        partitioned.fault_plan = options.fault_plan;
        solved =
            solve_partitioned_parallel<Scalar, Support>(problem, partitioned);
      } else {
        ParallelOptions parallel;
        parallel.num_ranks = options.num_ranks;
        parallel.threads_per_rank = options.threads_per_rank;
        parallel.solver = solver;
        parallel.memory_budget_per_rank = options.memory_budget_per_rank;
        parallel.fault_plan = options.fault_plan;
        parallel.deadlines = options.subset_deadlines;
        solved =
            solve_combinatorial_parallel<Scalar, Support>(problem, parallel);
      }
      columns = std::move(solved.columns);
      result.stats = std::move(solved.stats);
      result.message_bytes = solved.ranks.total_bytes_sent();
      result.peak_rank_memory = solved.ranks.max_memory_peak();
      result.ranks = make_rank_entries(solved.ranks, solved.per_rank);
      break;
    }
    case Algorithm::kCombined: {
      CombinedOptions combined;
      if (!options.partition_reactions.empty()) {
        combined.partition_reactions =
            reduced_partition_names(compressed, options.partition_reactions);
      }
      combined.qsub = options.qsub;
      combined.num_ranks = options.num_ranks;
      combined.threads_per_rank = options.threads_per_rank;
      combined.solver = solver;
      combined.memory_budget_per_rank = options.memory_budget_per_rank;
      combined.max_extra_splits = options.max_extra_splits;
      combined.retry = options.retry;
      combined.fault_plan = options.fault_plan;
      combined.checkpoint_path = options.checkpoint_path;
      combined.resume_from = options.resume_from;
      combined.subset_deadlines = options.subset_deadlines;
      combined.on_subset = options.on_subset;
      auto solved = solve_combined<Scalar, Support>(problem, combined);
      columns = std::move(solved.columns);
      result.stats = std::move(solved.total);
      result.total_retries = solved.total_retries;
      result.simulated_backoff_seconds = solved.simulated_backoff_seconds;
      result.events = std::move(solved.events);
      for (const auto& subset : solved.subsets) {
        SubsetSummary summary;
        summary.label = subset.label;
        summary.num_efms = subset.num_efms;
        summary.candidate_pairs = subset.stats.total_pairs_probed;
        summary.seconds = subset.seconds;
        summary.gen_cand_seconds =
            subset.stats.phases.seconds(Phase::kGenCand);
        summary.rank_test_seconds =
            subset.stats.phases.seconds(Phase::kRankTest);
        summary.communicate_seconds =
            subset.stats.phases.seconds(Phase::kCommunicate);
        summary.merge_seconds = subset.stats.phases.seconds(Phase::kMerge);
        summary.extra_splits = subset.extra_splits;
        summary.attempts = subset.attempts;
        summary.backoff_seconds = subset.backoff_seconds;
        summary.resumed = subset.resumed;
        summary.ranks = make_rank_entries(subset.ranks, subset.rank_stats);
        result.subsets.push_back(std::move(summary));
        result.message_bytes += subset.ranks.total_bytes_sent();
        result.peak_rank_memory =
            std::max(result.peak_rank_memory, subset.ranks.max_memory_peak());
      }
      break;
    }
  }

  {
    ScopedPhase phase(result.stats.phases, Phase::kExpand);
    if constexpr (std::is_same_v<Scalar, CheckedI64>) {
      result.modes = expand_columns(compressed, columns);
    } else {
      auto reduced_modes = columns_to_bigint(columns);
      result.modes.reserve(reduced_modes.size());
      for (const auto& mode : reduced_modes)
        result.modes.push_back(compressed.expand(mode));
    }
    canonicalize_modes(result.modes, original_reversibility);
  }

  result.reaction_names = compressed.original_reaction_names;
  result.compression_stats = compressed.stats;
  result.reduced_reactions = compressed.num_reactions();
  result.reduced_metabolites = compressed.num_metabolites();
  result.seconds = watch.seconds();
  result.used_bigint = std::is_same_v<Scalar, BigInt>;
  return result;
}

template <typename Scalar>
EfmResult run_with_support(const CompressedProblem& compressed,
                           const std::vector<bool>& original_reversibility,
                           const EfmOptions& options) {
  // Size the supports on the prepared problem, which gains a column only
  // for each reversible reaction that cannot be a pivot.  Algorithm 3's
  // subsets are never wider: deleting columns cannot raise the rank
  // deficiency of the reversible block.  make_support still range-checks
  // every column, so a wrong bound throws instead of dropping bits.
  const auto problem = to_problem<Scalar>(compressed);
  const std::size_t width = prepare_problem(problem).problem.num_reactions();
  if (support_words(width) == 1) {
    return run_with<Scalar, Bitset<1>>(compressed, problem,
                                       original_reversibility, options);
  }
  return run_with<Scalar, Bitset<2>>(compressed, problem,
                                     original_reversibility, options);
}

}  // namespace

std::size_t support_words(std::size_t width) {
  constexpr std::size_t kMaxWidth = Bitset<2>::capacity();
  if (width > kMaxWidth) {
    throw DimensionError("prepared network is " + std::to_string(width) +
                         " reactions wide; supports hold at most " +
                         std::to_string(kMaxWidth));
  }
  return width <= Bitset<1>::capacity() ? 1 : 2;
}

EfmResult compute_efms(const CompressedProblem& compressed,
                       const std::vector<bool>& original_reversibility,
                       const EfmOptions& options) {
  if (options.threads_per_rank < 1 || options.num_ranks < 1) {
    throw InvalidArgumentError(
        "compute_efms: threads_per_rank and num_ranks must be at least 1");
  }
  // Configure the process-wide governor for this solve: fresh ledger, the
  // requested limit.  The spill/peak counters accumulate across an int64 →
  // BigInt fallback (it is one logical computation).
  auto& governor = resource::MemoryGovernor::global();
  governor.reset();
  governor.set_limit(options.mem_limit_bytes);
  auto finish = [&governor](EfmResult result) {
    result.mem_limit_bytes = governor.limit();
    result.mem_peak_bytes = governor.peak_usage();
    result.spill_bytes = governor.spill_bytes();
    result.spill_blocks = governor.spill_blocks();
    return result;
  };
  if (options.force_bigint) {
    return finish(run_with_support<BigInt>(compressed, original_reversibility,
                                           options));
  }
  try {
    return finish(run_with_support<CheckedI64>(compressed,
                                               original_reversibility,
                                               options));
  } catch (const OverflowError&) {
    // Values outgrew 64 bits mid-computation: redo exactly.
    auto result = run_with_support<BigInt>(compressed,
                                           original_reversibility, options);
    result.stats.bigint_fallback = true;
    return finish(std::move(result));
  } catch (const RetryExhaustedError&) {
    if (!options.retry.bigint_fallback) throw;
    // The retry ladder's last rung: rerun the whole computation in BigInt.
    // A shared FaultPlan keeps its cumulative trigger state, so one-shot
    // faults that doomed the int64 attempts do not refire here.
    auto result = run_with_support<BigInt>(compressed,
                                           original_reversibility, options);
    result.stats.bigint_fallback = true;
    return finish(std::move(result));
  }
}

EfmResult compute_efms(const Network& network, const EfmOptions& options) {
  auto compressed = compress(network, options.compression);
  return compute_efms(compressed, network.reversibility(), options);
}

const char* algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSerial:
      return "serial";
    case Algorithm::kCombinatorialParallel:
      return "parallel";
    case Algorithm::kCombined:
      return "combined";
    case Algorithm::kPartitioned:
      return "partitioned";
  }
  return "unknown";
}

obs::SolveReport make_solve_report(const EfmResult& result,
                                   const EfmOptions& options,
                                   const std::string& network_label) {
  obs::SolveReport report;
  report.network = network_label;
  report.algorithm = algorithm_name(options.algorithm);
  report.num_ranks = options.num_ranks;
  report.config["test"] = options.test == ElementarityTest::kRank
                              ? "rank"
                              : "combinatorial";
  report.config["rank_backend"] =
      options.rank_backend == RankTestBackend::kSparse    ? "sparse"
      : options.rank_backend == RankTestBackend::kModular ? "modular"
                                                          : "exact";
  report.config["threads_per_rank"] =
      std::to_string(options.threads_per_rank);
  if (options.algorithm == Algorithm::kCombined) {
    report.config["qsub"] = std::to_string(options.qsub);
    report.config["max_extra_splits"] =
        std::to_string(options.max_extra_splits);
  }
  if (options.memory_budget_per_rank != 0) {
    report.config["memory_budget_per_rank"] =
        std::to_string(options.memory_budget_per_rank);
  }
  if (options.mem_limit_bytes != 0)
    report.config["mem_limit_bytes"] = std::to_string(options.mem_limit_bytes);
  if (!options.checkpoint_path.empty())
    report.config["checkpoint_path"] = options.checkpoint_path;
  if (!options.resume_from.empty())
    report.config["resume_from"] = options.resume_from;
  report.config["used_bigint"] = result.used_bigint ? "true" : "false";
  report.config["reduced_reactions"] =
      std::to_string(result.reduced_reactions);
  report.config["reduced_metabolites"] =
      std::to_string(result.reduced_metabolites);

  report.num_efms = result.num_modes();
  report.seconds = result.seconds;

  const SolveStats& stats = result.stats;
  report.totals["pairs_probed"] = stats.total_pairs_probed;
  report.totals["pretest_survivors"] = stats.total_pretest_survivors;
  report.totals["rank_tests"] = stats.total_rank_tests;
  report.totals["rank_sparse_hits"] = stats.total_rank_sparse_hits;
  report.totals["rank_dense_fallbacks"] = stats.total_rank_dense_fallbacks;
  report.totals["rank_gathered_nnz"] = stats.total_rank_gathered_nnz;
  report.totals["accepted"] = stats.total_accepted;
  report.totals["duplicates_removed"] = stats.total_duplicates_removed;
  report.totals["iterations"] = stats.iterations;
  report.totals["message_bytes"] = result.message_bytes;
  report.totals["total_retries"] = result.total_retries;
  report.peak_columns = stats.peak_columns;
  report.peak_matrix_bytes = stats.peak_matrix_bytes;
  report.bigint_fallback = stats.bigint_fallback;
  report.phase_seconds = stats.phases.totals();
  report.ranks = result.ranks;

  for (const auto& subset : result.subsets) {
    obs::SubsetEntry entry;
    entry.label = subset.label;
    entry.num_efms = subset.num_efms;
    entry.seconds = subset.seconds;
    entry.attempts = static_cast<int>(subset.attempts);
    entry.extra_splits = static_cast<int>(subset.extra_splits);
    entry.resumed = subset.resumed;
    entry.totals["candidate_pairs"] = subset.candidate_pairs;
    entry.phase_seconds[phase_name(Phase::kGenCand)] =
        subset.gen_cand_seconds;
    entry.phase_seconds[phase_name(Phase::kRankTest)] =
        subset.rank_test_seconds;
    entry.phase_seconds[phase_name(Phase::kCommunicate)] =
        subset.communicate_seconds;
    entry.phase_seconds[phase_name(Phase::kMerge)] = subset.merge_seconds;
    entry.ranks = subset.ranks;
    report.subsets.push_back(std::move(entry));
  }

  report.iterations.reserve(stats.history.size());
  for (const auto& it : stats.history) {
    obs::IterationEntry entry;
    entry.row = static_cast<std::int64_t>(it.row);
    entry.positives = it.positives;
    entry.negatives = it.negatives;
    entry.pairs_probed = it.pairs_probed;
    entry.pretest_survivors = it.pretest_survivors;
    entry.duplicates_removed = it.duplicates_removed;
    entry.rank_tests = it.rank_tests;
    entry.accepted = it.accepted;
    entry.columns_after = it.columns_after;
    report.iterations.push_back(entry);
  }

  report.events = result.events;
  report.peak_rss_bytes = obs::process_peak_rss_bytes();
  report.rss_bytes = obs::process_current_rss_bytes();
  report.mem_limit_bytes = result.mem_limit_bytes;
  report.mem_peak_bytes = result.mem_peak_bytes;
  report.spill_bytes = result.spill_bytes;
  report.spill_blocks = result.spill_blocks;
  report.totals["spill_bytes"] = result.spill_bytes;
  report.totals["spill_blocks"] = result.spill_blocks;

  // Counter-derived flow attribution (waits, imbalance, per-subset
  // utilization).  Callers holding a trace re-run analyze_flow with the
  // recorded events to add the critical path and flow-pairing stats.
  report.flow = obs::analyze_flow(report, nullptr);
  return report;
}

}  // namespace elmo

// Algorithm 1: the serial Nullspace Algorithm, and the iteration loop
// every algorithm shares.
//
// run_iterations drives one rank through the processing order produced by
// compute_initial_basis.  ElementarityOracle and PairRangeStep are the
// candidate work of one iteration; a column-distribution policy decides
// where the columns live.  LocalColumns (Algorithm 1) keeps the whole
// matrix on one rank, Algorithm 2's replicated distribution hands the step
// its rank's slice of the pair range, and Algorithm 4's sharded one its
// rank's negatives against the gathered positives.  Algorithm 3 runs
// Algorithm 2 per subset with an exclusion set and the Proposition-1
// filter.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "nullspace/initial_basis.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/modular_rank.hpp"
#include "nullspace/pairgen.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/rank_test.hpp"
#include "nullspace/reversible_split.hpp"
#include "nullspace/sparse_rank.hpp"
#include "nullspace/spill.hpp"
#include "nullspace/stats.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/partitioner.hpp"
#include "parallel/thread_pool.hpp"
#include "resource/governor.hpp"
#include "resource/shutdown.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace elmo {

/// Which elementarity test the solver applies to candidates.
enum class ElementarityTest {
  kRank,           // algebraic rank (nullity == 1) test — the paper's choice
  kCombinatorial,  // support-subset test — the classical alternative
};

/// Arithmetic backend for the rank test (when ElementarityTest::kRank).
/// The backends form a ladder: sparse-modular (default) falls back to the
/// dense-modular elimination per candidate when its cost model says so;
/// both share the Z_p decision procedure whose rejects are Monte-Carlo;
/// exact Bareiss (with a per-candidate BigInt fallback on overflow) is the
/// fully exact reference the others are differentially tested against.
enum class RankTestBackend {
  /// Sparse elimination over Z_(2^61-1) (see nullspace/sparse_rank.hpp):
  /// gathers only the nonzero rows of a candidate's support columns and
  /// amortizes one shared rref factorization across all candidates.
  /// Verdict-identical to kModular; the default.
  kSparse,
  /// Dense elimination over Z_(2^61-1): accepts certified exactly, rejects
  /// Monte-Carlo with error probability ~2^-45 per candidate (see
  /// nullspace/modular_rank.hpp).  Kept as the sparse engine's
  /// differential oracle and fallback target.
  kModular,
  /// Fraction-free Bareiss in the kernel scalar (BigInt fallback per
  /// candidate): fully exact, used as the reference in tests.
  kExact,
};

struct SolverOptions {
  OrderingOptions ordering;
  ElementarityTest test = ElementarityTest::kRank;
  RankTestBackend rank_backend = RankTestBackend::kSparse;
  /// Candidate refs held in memory at once (bounded-memory blocking of the
  /// candidate stream); the default caps transient usage around 100 MB.
  std::size_t block_ref_cap = std::size_t{1} << 21;
  /// Rows the caller wants left unprocessed (divide-and-conquer's
  /// nonzero-flux partition reactions), as reduced row indices.
  std::vector<std::size_t> exclude_rows;
  /// Optional per-iteration observer (progress logging, memory budget
  /// enforcement).  Called after each iteration with its stats.
  std::function<void(const IterationStats&)> on_iteration;
  /// Keep the per-iteration history on SolveStats (column-growth curve for
  /// run reports).  One IterationStats per constrained row.
  bool record_history = false;
  /// Re-verify the algorithm's algebraic invariants at runtime (S*R = 0
  /// after every iteration, exact rank-nullity of accepted candidates,
  /// support minimality of the final set).  Opt-in: audit mode costs extra
  /// passes per iteration.  See check/audit.hpp.
  bool audit = false;
  /// Out-of-core candidate policy under MemoryGovernor pressure (see
  /// nullspace/spill.hpp).  Inert unless enabled or the governor has a
  /// limit configured.
  SpillPolicy spill;
  /// Run even when the resident charge busts `--mem-limit` (the retry
  /// ladder's ungoverned final rung: completing slowly beats failing).
  bool ignore_mem_limit = false;
};

template <typename Scalar, typename Support>
struct SolveResult {
  std::vector<FluxColumn<Scalar, Support>> columns;
  SolveStats stats;
};

/// Approximate heap bytes of a column matrix (memory-scalability metric).
template <typename Scalar, typename Support>
std::size_t matrix_storage_bytes(
    const std::vector<FluxColumn<Scalar, Support>>& columns) {
  std::size_t bytes = columns.capacity() * sizeof(FluxColumn<Scalar, Support>);
  for (const auto& column : columns) bytes += column.storage_bytes();
  return bytes;
}

/// The per-candidate elementarity test.  Built from the problem, the
/// initial kernel basis (the modular backends' K-side formulation needs
/// it) and the options, it applies the rank test through the chosen
/// backend.  Under the combinatorial test it accepts every candidate: that
/// test needs the iteration's whole candidate set, so callers run
/// combinatorial_filter after the pair range.  Not shareable across
/// threads (the testers carry scratch buffers): one per worker.
template <typename Scalar>
class ElementarityOracle {
 public:
  template <typename Support>
  ElementarityOracle(const EfmProblem<Scalar>& problem,
                     const std::vector<FluxColumn<Scalar, Support>>& basis,
                     const SolverOptions& options)
      : exact_(problem.stoichiometry),
        deferred_(options.test == ElementarityTest::kCombinatorial) {
    if (deferred_) return;
    if (options.rank_backend == RankTestBackend::kSparse) {
      sparse_.emplace(problem.stoichiometry, basis);
    } else if (options.rank_backend == RankTestBackend::kModular) {
      modular_.emplace(problem.stoichiometry, basis);
    }
  }

  template <typename Support>
  bool is_elementary(const Support& support) {
    if (deferred_) return true;
    if (sparse_) return sparse_->is_elementary(support);
    if (modular_) return modular_->is_elementary(support);
    return exact_.is_elementary(support);
  }

  /// This oracle as the predicate process_pair_range calls.
  auto predicate() {
    return [this](const auto& support) { return is_elementary(support); };
  }

  /// Move the sparse engine's counters into `iteration` (the other
  /// backends keep none).
  void drain_stats(IterationStats& iteration) {
    if (sparse_) sparse_->drain_stats(iteration);
  }

  /// The exact Bareiss tester, for audits that re-verify accepted
  /// candidates independently of the backend that accepted them.
  RankTester<Scalar>& exact() { return exact_; }

 private:
  RankTester<Scalar> exact_;
  bool deferred_;
  std::optional<SparseRankTester<Scalar>> sparse_;
  std::optional<ModularRankTester<Scalar>> modular_;
};

/// The candidate work of one iteration, shared by every algorithm: a range
/// of one row's positive x negative pairs goes through the pretest, dedup
/// and the elementarity oracle, and the accepted candidates come back
/// deduplicated.  One per rank; with `threads` > 1 the rank's workers
/// steal batches of each range, one oracle each.
template <typename Scalar, typename Support>
class PairRangeStep {
 public:
  using Column = FluxColumn<Scalar, Support>;

  PairRangeStep(const EfmProblem<Scalar>& problem,
                const InitialBasis<Scalar, Support>& basis,
                const SolverOptions& options, int threads = 1)
      : options_(options), rank_(basis.stoichiometry_rank) {
    ELMO_REQUIRE(threads >= 1, "PairRangeStep: threads must be at least 1");
    const auto workers = static_cast<std::size_t>(threads);
    oracles_.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t)
      oracles_.emplace_back(problem, basis.columns, options);
    if (workers > 1) pool_.emplace(workers);
  }
  PairRangeStep(const PairRangeStep&) = delete;
  PairRangeStep& operator=(const PairRangeStep&) = delete;

  /// Appends the accepted candidates of `range` to `accepted` (empty on
  /// entry) and adds the range's counters, engine counters included, to
  /// `iteration`.  An allocation failure becomes a ResourceError, so the
  /// retry ladder can degrade (smaller tiles, spill-always, serial)
  /// instead of aborting the run.
  void run(const std::vector<Column>& columns, std::size_t row,
           const RowClassification& cls, PairRange range,
           IterationStats& iteration, PhaseTimer& phases,
           std::vector<Column>& accepted) {
    try {
      if (pool_) {
        run_workers(columns, row, cls, range, iteration, phases, accepted);
      } else {
        run_single(columns, row, cls, range, iteration, phases, accepted);
      }
    } catch (const std::bad_alloc&) {
      const auto& governor = resource::MemoryGovernor::global();
      throw ResourceError("pair range (row " + std::to_string(row) +
                              "): allocation failed (std::bad_alloc) with " +
                              std::to_string(governor.usage()) +
                              " B charged",
                          0, governor.limit());
    }
  }

  RankTester<Scalar>& exact_tester() { return oracles_.front().exact(); }

 private:
  void run_single(const std::vector<Column>& columns, std::size_t row,
                  const RowClassification& cls, PairRange range,
                  IterationStats& iteration, PhaseTimer& phases,
                  std::vector<Column>& accepted) {
    auto& oracle = oracles_.front();
    // Every governed iteration runs through the chunked out-of-core
    // driver; whether chunks actually hit disk is decided per chunk from
    // the live headroom under the limit (see process_pair_range_spilled).
    // A projection made before the range would have to predict the
    // candidate transient, and a spike in an iteration whose matrix is
    // still small slips past any such projection.
    const bool spill =
        options_.spill.always ||
        (options_.spill.enabled && !options_.ignore_mem_limit &&
         resource::MemoryGovernor::global().enabled());
    if (spill) {
      iteration.spilled_bytes += process_pair_range_spilled(
          columns, row, cls, rank_, range.begin, range.end,
          options_.block_ref_cap, oracle.predicate(), iteration, phases,
          accepted, options_.spill);
    } else {
      process_pair_range(columns, row, cls, rank_, range.begin, range.end,
                         options_.block_ref_cap, oracle.predicate(),
                         iteration, phases, accepted);
    }
    oracle.drain_stats(iteration);
  }

  /// Workers steal adaptive batches of the range off a shared cursor
  /// (survivor density is wildly skewed across the pair space), all probing
  /// against one shared set of per-iteration engine tables.  Their results
  /// are merged and deduped like a cross-rank merge (distinct batches can
  /// still produce the same candidate); the merge bounds them, so workers
  /// never spill.
  void run_workers(const std::vector<Column>& columns, std::size_t row,
                   const RowClassification& cls, PairRange range,
                   IterationStats& iteration, PhaseTimer& phases,
                   std::vector<Column>& accepted) {
    PairGenTables<Scalar, Support> tables(columns, row, cls.positive,
                                          cls.negative, cls.zero, rank_);
    const std::size_t workers = oracles_.size();
    std::vector<IterationStats> worker_stats(workers);
    std::vector<PhaseTimer> worker_phases(workers);
    std::vector<std::vector<Column>> worker_accepted(workers);
    // Batches small enough to balance a skewed tail, large enough that
    // the per-batch engine setup (a cursor, no tables) stays noise.
    constexpr std::uint64_t kMinGrain = 4096;
    parallel_for_dynamic(
        *pool_, range.count(), kMinGrain,
        [&](int t, std::uint64_t begin, std::uint64_t end) {
          const auto w = static_cast<std::size_t>(t);
          process_pair_range(columns, row, cls, rank_, range.begin + begin,
                             range.begin + end, options_.block_ref_cap,
                             oracles_[w].predicate(), worker_stats[w],
                             worker_phases[w], worker_accepted[w], &tables);
        });
    PhaseTimer slowest_worker;  // per-iteration max across workers
    for (std::size_t w = 0; w < workers; ++w) {
      oracles_[w].drain_stats(worker_stats[w]);
      iteration.add_counts(worker_stats[w]);
      slowest_worker.merge_max(worker_phases[w]);
      accepted.insert(accepted.end(),
                      std::make_move_iterator(worker_accepted[w].begin()),
                      std::make_move_iterator(worker_accepted[w].end()));
    }
    // Wall-clock: workers run concurrently, so the iteration costs the
    // slowest worker's time.
    phases.merge(slowest_worker);
    ScopedPhase phase(phases, Phase::kMerge);
    const std::size_t before = accepted.size();
    sort_and_dedup(accepted, iteration);
    iteration.accepted -= before - accepted.size();
  }

  SolverOptions options_;
  std::size_t rank_;  // stoichiometry rank: the pretest's support bound
  std::vector<ElementarityOracle<Scalar>> oracles_;  // one per worker
  std::optional<ThreadPool> pool_;  // destroyed first: joins the workers
};

/// What a column distribution hands the candidate step for one row: the
/// columns it pairs, their classification, and this rank's share of the
/// pair range.
template <typename Scalar, typename Support>
struct PairInput {
  const std::vector<FluxColumn<Scalar, Support>>& columns;
  const RowClassification& cls;
  PairRange range;
};

/// Algorithm 1's column distribution: one rank holds the whole matrix and
/// pairs every positive with every negative.  A distribution tells
/// run_iterations where the columns live; Algorithm 2's replicated and
/// Algorithm 4's sharded distributions (core/) add a communicator.
template <typename Scalar, typename Support>
class LocalColumns {
 public:
  using Column = FluxColumn<Scalar, Support>;

  [[nodiscard]] int rank() const { return 0; }
  /// True when this rank's columns are its own, not a replica of rank 0's:
  /// the merge is counted and the matrix audited here.
  [[nodiscard]] bool owner() const { return true; }
  [[nodiscard]] std::string where() const { return "solve_nullspace"; }

  void start(std::vector<Column> basis) { columns_ = std::move(basis); }
  std::vector<Column>& columns() { return columns_; }

  PairInput<Scalar, Support> pairs(const RowClassification& cls,
                                   PhaseTimer& /*phases*/) {
    return {columns_, cls, PairRange{0, cls.pair_count()}};
  }
  /// Turns this rank's accepted candidates into the set it merges;
  /// `merged` counts the result and any duplicates the exchange removed.
  void exchange(const IterationStats& /*iteration*/,
                std::vector<Column>& candidates, IterationStats& merged,
                PhaseTimer& /*phases*/) {
    merged.accepted = candidates.size();
  }
  /// Runs after the merge.  `record` enters with this rank's view of the
  /// iteration and leaves with the world's: its sides, accepted count and
  /// next matrix width.
  void settle(IterationStats& record, PhaseTimer& /*phases*/) {
    record.columns_after = columns_.size();
  }
  [[nodiscard]] std::size_t resident_bytes() const {
    return matrix_storage_bytes(columns_);
  }
  /// Charges the resident bytes to the rank's simulated memory budget.
  void charge(std::size_t /*bytes*/) {}
  /// The final columns, on rank 0.
  std::optional<std::vector<Column>> gather() { return std::move(columns_); }

 protected:
  std::vector<Column> columns_;
};

/// The nullspace iterations of one rank, shared by Algorithms 1, 2 and 4
/// (and through Algorithm 2 by Algorithm 3's subsets).  The Distribution
/// policy decides where the columns live: which columns, classification
/// and pair range the step gets, how accepted candidates are exchanged and
/// deduplicated, what follows the merge, and how the final columns are
/// gathered.  Cancellation, memory governance, audits, counters and history
/// are written here once.  Each rank absorbs its own counters, so
/// SolveStats::fold_ranks sums them to the world's; rank 0's history row
/// and on_iteration carry the world's sides, accepted count and matrix
/// width.  Returns the final columns on rank 0.
template <typename Scalar, typename Support, typename Distribution>
std::optional<std::vector<FluxColumn<Scalar, Support>>> run_iterations(
    const EfmProblem<Scalar>& problem, const SolverOptions& options,
    int threads, Distribution& dist, SolveStats& stats) {
  auto basis = compute_initial_basis<Scalar, Support>(
      problem, options.ordering, options.exclude_rows);
  PairRangeStep<Scalar, Support> step(problem, basis, options, threads);
  stats.keep_history = options.record_history && dist.rank() == 0;
  stats.peak_columns = basis.columns.size();
  dist.start(std::move(basis.columns));

  // Resource governance: charge the live matrix against the process ledger
  // so the governor's flush decisions inside the chunked candidate driver
  // see the true resident floor (the matrix cannot spill; candidates can).
  // Every rank's columns are a real allocation in this process, so a
  // replicated world charges num_ranks matrices.
  auto& governor = resource::MemoryGovernor::global();
  resource::MemoryLease matrix_lease(resource::Subsystem::kMatrix);
  matrix_lease.set(dist.resident_bytes());
  const check::InvariantAuditor auditor;

  for (std::size_t row : basis.processing_order) {
    const std::string where = dist.where() + " row " + std::to_string(row);
    resource::throw_if_shutdown_requested(where);
    if (!options.ignore_mem_limit) governor.enforce_resident(where);
    // Span label is the fixed literal; the row index goes in args.detail
    // (formatted only when tracing is on).
    obs::TraceSpan iteration_span(
        "iteration", "solve",
        obs::trace() != nullptr ? "row " + std::to_string(row)
                                : std::string());
    IterationStats iteration;
    iteration.row = row;
    const bool row_reversible = problem.reversible[row];
    const auto cls = classify_row(dist.columns(), row);
    const auto input = dist.pairs(cls, stats.phases);
    iteration.positives = input.cls.positive.size();
    iteration.negatives = input.cls.negative.size();

    std::vector<FluxColumn<Scalar, Support>> candidates;
    // Charge the surviving candidates (the spilled path's lease inside
    // process_pair_range_spilled covers only its in-flight chunk).
    resource::MemoryLease candidate_lease(resource::Subsystem::kCandidates);
    step.run(input.columns, row, input.cls, input.range, iteration,
             stats.phases, candidates);
    candidate_lease.set(matrix_storage_bytes(candidates));
    if (options.audit && options.test == ElementarityTest::kRank) {
      // Re-verify this rank's accepted candidates with the exact Bareiss
      // backend, independent of the (possibly Monte-Carlo modular) test
      // that accepted them.
      auditor.check_rank_nullity(step.exact_tester(), candidates, where);
    }
    IterationStats merged;  // the exchange's counters, then the filter's
    dist.exchange(iteration, candidates, merged, stats.phases);
    candidate_lease.set(matrix_storage_bytes(candidates));
    if (options.test == ElementarityTest::kCombinatorial) {
      ScopedPhase phase(stats.phases, Phase::kRankTest);
      combinatorial_filter(dist.columns(), cls, row_reversible, candidates,
                           merged);
    }
    {
      ScopedPhase phase(stats.phases, Phase::kMerge);
      dist.columns() = merge_next(std::move(dist.columns()), cls,
                                  row_reversible, std::move(candidates));
    }
    // Rank 0's record of the iteration (history row and on_iteration) keeps
    // its own step counters with the world's view.
    IterationStats record = iteration;
    record.accepted = merged.accepted;
    dist.settle(record, stats.phases);
    record.pairs_probed = record.positives * record.negatives;
    iteration.columns_after = record.columns_after;

    const std::size_t matrix_bytes = dist.resident_bytes();
    matrix_lease.set(matrix_bytes);
    stats.peak_matrix_bytes = std::max(stats.peak_matrix_bytes, matrix_bytes);
    dist.charge(matrix_bytes);

    // The merge counts once across the world: on every rank that owns its
    // columns, and only on rank 0 when the columns are replicas.
    iteration.accepted = dist.owner() ? merged.accepted : 0;
    if (dist.owner())
      iteration.duplicates_removed += merged.duplicates_removed;
    stats.absorb(iteration);
    if (stats.keep_history) stats.history.back() = record;
    publish_iteration_metrics(iteration);
    if (dist.rank() == 0)
      obs::trace_counter("columns", iteration.columns_after);
    if (options.audit && dist.owner()) {
      // Columns must stay inside null(S) across every Merge (paper §II.A).
      auditor.check_nullspace_product(problem.stoichiometry, dist.columns(),
                                      where);
    }
    if (options.on_iteration && dist.rank() == 0) options.on_iteration(record);
  }
  auto columns = dist.gather();
  if (options.audit && options.exclude_rows.empty() && columns) {
    // Final column set is a support antichain (elementarity).  Skipped for
    // divide-and-conquer sub-solves: the combined driver audits its merged
    // final set instead.
    auditor.check_support_minimality(*columns, dist.where() + " final");
  }
  return columns;
}

/// Algorithm 1: one rank holds the whole matrix; `threads` workers share
/// each iteration's pair range.
template <typename Scalar, typename Support>
SolveResult<Scalar, Support> solve_nullspace(const EfmProblem<Scalar>& problem,
                                             const SolverOptions& options = {},
                                             int threads = 1) {
  SolveResult<Scalar, Support> result;
  LocalColumns<Scalar, Support> columns;
  result.columns = *run_iterations<Scalar, Support>(problem, options, threads,
                                                    columns, result.stats);
  return result;
}

/// Algorithm 1 with automatic reversible-split preprocessing: networks
/// whose reversible columns are linearly dependent (duplicated reversible
/// reactions, fully reversible cycles) are handled transparently.  Columns
/// come back in the ORIGINAL reduced reaction space.
template <typename Scalar, typename Support>
SolveResult<Scalar, Support> solve_efms(const EfmProblem<Scalar>& problem,
                                        const SolverOptions& options = {},
                                        int threads = 1) {
  auto prepared = prepare_problem(problem);
  auto result =
      solve_nullspace<Scalar, Support>(prepared.problem, options, threads);
  result.columns = unsplit_columns(std::move(result.columns), prepared);
  return result;
}

}  // namespace elmo

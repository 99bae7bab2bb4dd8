// Algorithm 2: the combinatorial parallel Nullspace Algorithm.
//
// Distributed-memory parallelisation of Algorithm 1 (Jevremovic et al.,
// TR 10-028; paper §II.D): every rank holds a replica of the current
// nullspace matrix; each iteration's positive x negative candidate pair
// space is sliced contiguously across ranks; each rank generates, dedups
// and rank-tests its slice locally, then an all-gather exchanges the
// accepted candidates and every rank rebuilds the identical next matrix
// (Communicate&Merge).  The full-replication design is the algorithm's
// documented weakness — per-rank memory grows with the matrix — which the
// per-rank memory budget surfaces exactly as on the paper's Network II run
// (abandoned at iteration 59).
#pragma once

#include <optional>

#include "check/check.hpp"
#include "mpsim/communicator.hpp"
#include "mpsim/serialize.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "nullspace/stats.hpp"
#include "obs/obs.hpp"
#include "resource/governor.hpp"
#include "resource/shutdown.hpp"
#include "resource/watchdog.hpp"
#include "parallel/partitioner.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace elmo {

struct ParallelOptions {
  /// Number of simulated compute ranks (the paper's "# nodes").
  int num_ranks = 4;
  /// Shared-memory workers per rank — Blue Gene/P's SMP (1 process + 3
  /// threads) and dual modes, and the Xeon nodes' "cores per node" column
  /// of Table II.  Each rank splits its pair slice across this many
  /// threads; candidates are merged and deduped rank-locally before the
  /// all-gather.
  int threads_per_rank = 1;
  SolverOptions solver;
  /// Per-rank memory budget in bytes (0 = unlimited).  Exceeding it throws
  /// MemoryBudgetError out of solve_combinatorial_parallel.
  std::size_t memory_budget_per_rank = 0;
  /// Optional deterministic fault injection (crashes, corruption, drops,
  /// stragglers) applied to the simulated world; see mpsim/fault.hpp.
  std::shared_ptr<mpsim::FaultPlan> fault_plan;
  /// Watchdog supervision of this world: soft deadline emits a straggler
  /// diagnosis, hard deadline / stall aborts the run with
  /// DeadlineExceededError (the combined driver re-queues with a split).
  resource::Deadlines deadlines;
};

template <typename Scalar, typename Support>
struct ParallelSolveResult {
  std::vector<FluxColumn<Scalar, Support>> columns;
  SolveStats stats;
  mpsim::RunReport ranks;
  /// Each rank's own ledger (slice-local counters and phase times), for
  /// per-rank run reports.  per_rank[r] belongs to simulated rank r.
  std::vector<SolveStats> per_rank;
};

template <typename Scalar, typename Support>
ParallelSolveResult<Scalar, Support> solve_combinatorial_parallel(
    const EfmProblem<Scalar>& problem, const ParallelOptions& options) {
  const int num_ranks = options.num_ranks;
  ELMO_REQUIRE(num_ranks >= 1, "num_ranks must be positive");

  // Deterministic preprocessing, done once (every rank would compute the
  // identical result; doing it outside the world keeps startup honest to
  // measure but costs nothing extra).
  auto prepared = prepare_problem(problem);
  SolverOptions solver_options = options.solver;
  solver_options.exclude_rows =
      prepared.with_backward_copies(options.solver.exclude_rows);

  // Per-rank outputs (distinct slots; no locking needed).
  std::vector<SolveStats> rank_stats(static_cast<std::size_t>(num_ranks));
  std::optional<std::vector<FluxColumn<Scalar, Support>>> final_columns;
  SolveStats merged_stats;  // rank 0's view of merged quantities

  auto body = [&](mpsim::Communicator& comm) {
    const int rank = comm.rank();
    SolveStats& stats = rank_stats[static_cast<std::size_t>(rank)];
    // Rank 0's per-iteration rows carry the GLOBAL accepted count and
    // matrix width (its slice-local counters stay slice-local); the run
    // report plots the column-growth curve from them.
    stats.keep_history = solver_options.record_history && rank == 0;
    auto basis = compute_initial_basis<Scalar, Support>(
        prepared.problem, solver_options.ordering,
        solver_options.exclude_rows);
    stats.peak_columns = basis.columns.size();
    PairRangeStep<Scalar, Support> step(prepared.problem, basis,
                                        solver_options,
                                        options.threads_per_rank);
    auto columns = std::move(basis.columns);

    // Every rank's matrix replica is a real allocation in this process:
    // each charges the process-wide governor so --mem-limit sees the
    // paper's full-replication cost (num_ranks x matrix).
    auto& governor = resource::MemoryGovernor::global();
    resource::MemoryLease matrix_lease(resource::Subsystem::kMatrix);
    matrix_lease.set(matrix_storage_bytes(columns));

    for (std::size_t row : basis.processing_order) {
      resource::throw_if_shutdown_requested(
          "parallel iteration (rank " + std::to_string(rank) + ", row " +
          std::to_string(row) + ")");
      if (!solver_options.ignore_mem_limit)
        governor.enforce_resident("parallel iteration (rank " +
                                  std::to_string(rank) + ", row " +
                                  std::to_string(row) + ")");
      obs::TraceSpan iteration_span(
          "iteration", "solve",
          obs::trace() != nullptr ? "row " + std::to_string(row)
                                  : std::string());
      IterationStats iteration;
      iteration.row = row;
      auto cls = classify_row(columns, row);
      iteration.positives = cls.positive.size();
      iteration.negatives = cls.negative.size();

      // ParallelGenerateEFMCands + local Sort&RemoveDuplicates + local
      // RankTests over this rank's contiguous pair slice.  The algebraic
      // rank test is per-candidate local — that is what makes Algorithm 2's
      // distribution work.  The combinatorial subset test, by contrast,
      // needs the GLOBAL candidate set and therefore runs after the merge
      // below.
      std::vector<FluxColumn<Scalar, Support>> local;
      // Transient candidate charge for this iteration (the rank's own slice,
      // then additionally the gathered cross-rank set); released at scope
      // exit once everything merged into the matrix replica.
      resource::MemoryLease candidate_lease(resource::Subsystem::kCandidates);
      step.run(columns, row, cls, pair_slice(cls.pair_count(), rank, num_ranks),
               iteration, stats.phases, local);
      candidate_lease.set(matrix_storage_bytes(local));
      if (solver_options.audit) {
        check::InvariantAuditor auditor;
        // pair-conservation: rank slices must partition the global pair
        // set — an all-reduce over slice-local probed counts has to land
        // exactly on positives x negatives.  (Collective: every rank
        // participates, every rank verifies the same sum.)
        const std::uint64_t world_pairs =
            comm.all_reduce_sum(iteration.pairs_probed);
        auditor.check_pair_conservation(
            world_pairs, cls.pair_count(),
            "solve_combinatorial_parallel row " + std::to_string(row));
        if (solver_options.test == ElementarityTest::kRank) {
          // rank-nullity: re-verify this rank's accepted slice with the
          // exact backend before it enters the all-gather.
          auditor.check_rank_nullity(
              step.exact_tester(), local,
              "solve_combinatorial_parallel rank " + std::to_string(rank) +
                  " row " + std::to_string(row));
        }
      }
      // Communicate&Merge: exchange accepted candidates, rebuild the
      // replicated next matrix identically on every rank.
      std::vector<FluxColumn<Scalar, Support>> accepted;
      {
        ScopedPhase phase(stats.phases, Phase::kCommunicate);
        auto batches = comm.all_gather(mpsim::encode_columns(local));
        for (const auto& batch : batches) {
          auto incoming = mpsim::decode_columns<Scalar, Support>(batch);
          accepted.insert(accepted.end(),
                          std::make_move_iterator(incoming.begin()),
                          std::make_move_iterator(incoming.end()));
        }
      }
      candidate_lease.set(matrix_storage_bytes(local) +
                          matrix_storage_bytes(accepted));
      IterationStats merge_iteration;  // merged quantities, counted once
      {
        ScopedPhase phase(stats.phases, Phase::kMerge);
        // Cross-rank duplicates: different pairs on different ranks can
        // produce the same candidate.
        sort_and_dedup(accepted, merge_iteration);
        merge_iteration.accepted = accepted.size();
      }
      if (solver_options.test == ElementarityTest::kCombinatorial) {
        ScopedPhase test_phase(stats.phases, Phase::kRankTest);
        combinatorial_filter(columns, cls, prepared.problem.reversible[row],
                             accepted, merge_iteration);
      }
      {
        ScopedPhase phase(stats.phases, Phase::kMerge);
        columns = merge_next(std::move(columns), cls,
                             prepared.problem.reversible[row],
                             std::move(accepted));
      }
      iteration.columns_after = columns.size();
      const std::size_t matrix_bytes = matrix_storage_bytes(columns);
      matrix_lease.set(matrix_bytes);
      stats.peak_matrix_bytes = std::max(stats.peak_matrix_bytes, matrix_bytes);
      // Rank 0 records the globally merged accepted count on its iteration
      // row (process_pair_range left the slice-local pre-dedup count
      // there), so history plots the true growth.  Harmless for the
      // aggregate below: total_accepted is overwritten from the ledger.
      if (rank == 0) iteration.accepted = merge_iteration.accepted;
      stats.absorb(iteration);
      // History rows plot GLOBAL quantities: patch the pair count from rank
      // 0's slice to the full pair set of this row (the matrix is
      // replicated, so positives x negatives is known locally).  Slices
      // partition the pair set, so summing these rows reproduces the
      // aggregated total_pairs_probed exactly.  Done after absorb() so the
      // rank totals keep their slice-local sums.
      if (stats.keep_history && rank == 0) {
        stats.history.back().pairs_probed = cls.pair_count();
      }
      // Metrics must count global quantities once: only rank 0 publishes
      // accepted (merged) and it adds the cross-rank duplicates on top of
      // its slice-local ones; other ranks publish 0 for both.
      IterationStats published = iteration;
      if (rank == 0) {
        published.duplicates_removed += merge_iteration.duplicates_removed;
      } else {
        published.accepted = 0;
      }
      publish_iteration_metrics(published);
      if (rank == 0) obs::trace_counter("columns", iteration.columns_after);
      // The merged candidate count and cross-rank duplicates are global
      // quantities; fold them into rank 0's ledger only.
      if (rank == 0) {
        // analyze:shared-ok — only rank 0 touches the spawner-frame ledger.
        merged_stats.total_accepted += merge_iteration.accepted;
        // analyze:shared-ok
        merged_stats.total_duplicates_removed +=
            merge_iteration.duplicates_removed;
      }
      // Memory accounting against the simulated per-rank budget.
      comm.set_memory_usage(stats.peak_matrix_bytes);
      if (solver_options.audit && rank == 0) {
        // The next matrix is replicated, so auditing S*R = 0 on one rank
        // covers the world.
        check::InvariantAuditor{}.check_nullspace_product(
            prepared.problem.stoichiometry, columns,
            "solve_combinatorial_parallel after row " + std::to_string(row));
      }
      if (options.solver.on_iteration && rank == 0) {
        options.solver.on_iteration(iteration);
      }
    }
    if (solver_options.audit && rank == 0 &&
        options.solver.exclude_rows.empty()) {
      check::InvariantAuditor{}.check_support_minimality(
          columns, "solve_combinatorial_parallel final");
    }
    if (rank == 0) {
      // Rank 0 is the only writer; run_ranks joins every thread before
      // the spawner reads it.  analyze:shared-ok
      final_columns =
          unsplit_columns(std::move(columns), prepared);
    }
  };

  mpsim::RunOptions run_options;
  run_options.memory_budget_per_rank = options.memory_budget_per_rank;
  run_options.fault_plan = options.fault_plan;
  run_options.deadlines = options.deadlines;
  auto report = mpsim::run_ranks(num_ranks, body, run_options);

  ParallelSolveResult<Scalar, Support> result;
  ELMO_CHECK(final_columns.has_value(), "rank 0 produced no result");
  result.columns = std::move(*final_columns);
  result.ranks = std::move(report);
  // Slice-local counters sum across ranks; the merged counters were
  // recorded once, by rank 0, and accepted counts come from that ledger.
  result.stats = SolveStats::fold_ranks(rank_stats);
  result.stats.total_accepted = merged_stats.total_accepted;
  result.stats.total_duplicates_removed +=
      merged_stats.total_duplicates_removed;
  result.per_rank = std::move(rank_stats);
  return result;
}

}  // namespace elmo

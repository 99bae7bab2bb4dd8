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
#include <string>

#include "check/check.hpp"
#include "mpsim/communicator.hpp"
#include "mpsim/serialize.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "nullspace/stats.hpp"
#include "parallel/partitioner.hpp"
#include "resource/watchdog.hpp"
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

/// Algorithm 2's column distribution: every rank holds a replica of the
/// matrix and tests its contiguous slice of the pair range; the accepted
/// candidates are all-gathered and deduplicated across ranks, so every
/// rank merges the identical set (Communicate&Merge).  Rank 0 owns the
/// replica that is counted, audited and returned.
template <typename Scalar, typename Support>
class ReplicatedColumns : public LocalColumns<Scalar, Support> {
 public:
  using Column = FluxColumn<Scalar, Support>;

  ReplicatedColumns(mpsim::Communicator& comm, bool audit)
      : comm_(comm), audit_(audit) {}

  [[nodiscard]] int rank() const { return comm_.rank(); }
  [[nodiscard]] bool owner() const { return comm_.rank() == 0; }
  [[nodiscard]] std::string where() const {
    return "solve_combinatorial_parallel rank " + std::to_string(comm_.rank());
  }

  PairInput<Scalar, Support> pairs(const RowClassification& cls,
                                   PhaseTimer& /*phases*/) {
    return {this->columns_, cls,
            pair_slice(cls.pair_count(), comm_.rank(), comm_.size())};
  }

  void exchange(const IterationStats& iteration,
                std::vector<Column>& candidates, IterationStats& merged,
                PhaseTimer& phases) {
    if (audit_) {
      // pair-conservation: rank slices must partition the global pair
      // set — an all-reduce over slice-local probed counts has to land
      // exactly on positives x negatives.  (Collective: every rank
      // participates, every rank verifies the same sum.)
      check::InvariantAuditor{}.check_pair_conservation(
          comm_.all_reduce_sum(iteration.pairs_probed),
          iteration.positives * iteration.negatives,
          where() + " row " + std::to_string(iteration.row));
    }
    std::vector<Column> gathered;
    {
      ScopedPhase phase(phases, Phase::kCommunicate);
      for (const auto& batch :
           comm_.all_gather(mpsim::encode_columns(candidates)))
        mpsim::decode_columns(batch, gathered);
    }
    ScopedPhase phase(phases, Phase::kMerge);
    // Cross-rank duplicates: different pairs on different ranks can
    // produce the same candidate.
    sort_and_dedup(gathered, merged);
    merged.accepted = gathered.size();
    candidates = std::move(gathered);
  }

  void charge(std::size_t bytes) { comm_.set_memory_usage(bytes); }

  std::optional<std::vector<Column>> gather() {
    if (comm_.rank() != 0) return std::nullopt;
    return std::move(this->columns_);
  }

 private:
  mpsim::Communicator& comm_;
  bool audit_;
};

/// Runs the iterations on every rank of a simulated world, each rank over
/// the column distribution `make_columns(comm)` builds, and folds the
/// per-rank ledgers (shared by Algorithms 2 and 4).
template <typename Scalar, typename Support, typename MakeColumns>
ParallelSolveResult<Scalar, Support> solve_in_world(
    const EfmProblem<Scalar>& problem, SolverOptions solver, int num_ranks,
    int threads_per_rank, const mpsim::RunOptions& run_options,
    MakeColumns make_columns) {
  ELMO_REQUIRE(num_ranks >= 1, "num_ranks must be positive");
  // Deterministic preprocessing, done once (every rank would compute the
  // identical result; doing it outside the world keeps startup honest to
  // measure but costs nothing extra).
  auto prepared = prepare_problem(problem);
  solver.exclude_rows = prepared.with_backward_copies(solver.exclude_rows);

  // Per-rank outputs (distinct slots; no locking needed).
  std::vector<SolveStats> rank_stats(static_cast<std::size_t>(num_ranks));
  std::optional<std::vector<FluxColumn<Scalar, Support>>> final_columns;
  auto body = [&](mpsim::Communicator& comm) {
    auto columns = make_columns(comm);
    auto solved = run_iterations<Scalar, Support>(
        prepared.problem, solver, threads_per_rank, columns,
        rank_stats[static_cast<std::size_t>(comm.rank())]);
    if (solved) {
      // Rank 0 is the only writer; run_ranks joins every thread before
      // the spawner reads it.  analyze:shared-ok
      final_columns = unsplit_columns(std::move(*solved), prepared);
    }
  };
  auto report = mpsim::run_ranks(num_ranks, body, run_options);

  ParallelSolveResult<Scalar, Support> result;
  ELMO_CHECK(final_columns.has_value(), "rank 0 produced no result");
  result.columns = std::move(*final_columns);
  result.ranks = std::move(report);
  result.stats = SolveStats::fold_ranks(rank_stats);
  result.per_rank = std::move(rank_stats);
  return result;
}

template <typename Scalar, typename Support>
ParallelSolveResult<Scalar, Support> solve_combinatorial_parallel(
    const EfmProblem<Scalar>& problem, const ParallelOptions& options) {
  mpsim::RunOptions run_options;
  run_options.memory_budget_per_rank = options.memory_budget_per_rank;
  run_options.fault_plan = options.fault_plan;
  run_options.deadlines = options.deadlines;
  return solve_in_world<Scalar, Support>(
      problem, options.solver, options.num_ranks, options.threads_per_rank,
      run_options, [&options](mpsim::Communicator& comm) {
        return ReplicatedColumns<Scalar, Support>(comm, options.solver.audit);
      });
}

}  // namespace elmo

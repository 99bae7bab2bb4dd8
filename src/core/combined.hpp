// Algorithm 3: the combined parallel Nullspace Algorithm — the paper's
// contribution.
//
// The EFM set is partitioned across a subset of qsub (reversible, trailing)
// reactions into 2^qsub disjoint subsets keyed by the zero/nonzero flux
// pattern = the binary representation of the subset id.  For each subset:
//
//   * zero-flux reactions are REMOVED from the stoichiometry (their columns
//     vanish; paper Algorithm 3 lines 5-9),
//   * nonzero-flux reactions are left UNPROCESSED (exclude_rows — the
//     paper's reorder-to-bottom + early stop, lines 10-14),
//   * Algorithm 2 runs on the subproblem,
//   * Proposition 1 keeps exactly the columns with nonzero values in every
//     unprocessed partition row (lines 15-17),
//   * the zero-flux rows are re-inserted as zeros (lines 18-21).
//
// The union over all subsets is the complete EFM set.  When a subset
// exceeds the per-rank memory budget the optional adaptive re-split adds
// one more partition reaction to just that subset and recurses — this is
// precisely what the paper did on Network II, where subsets 1 and 3 of the
// {R54r, R90r, R60r} split had to be re-split by R22r (Table IV).
// Fault tolerance: each subset is an independent, restartable unit of
// work.  A RetryPolicy re-queues subsets that fail transiently (injected
// rank crashes, corrupted payloads) or persistently (budget exhausted
// beyond max_extra_splits), optionally shrinking the world or finishing
// serially; completed subsets can be appended to a checkpoint file and a
// later run with resume_from skips them, bit-identically.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "check/check.hpp"
#include "core/checkpoint.hpp"
#include "core/combinatorial_parallel.hpp"
#include "core/retry.hpp"
#include "core/subset_select.hpp"
#include "mpsim/communicator.hpp"
#include "mpsim/fault.hpp"
#include "nullspace/efm.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "nullspace/stats.hpp"
#include "obs/obs.hpp"
#include "resource/shutdown.hpp"
#include "resource/watchdog.hpp"
#include "support/timer.hpp"

namespace elmo {

struct CombinedOptions {
  /// Reduced-problem reaction names to partition over, most significant
  /// first (subset id bit k corresponds to partition_reactions[k] counted
  /// from the least significant bit).  All must be reversible.  When empty,
  /// `qsub` trailing reversible reactions are selected automatically.
  std::vector<std::string> partition_reactions;
  /// Used only when partition_reactions is empty.
  std::size_t qsub = 2;

  int num_ranks = 4;
  /// Shared-memory workers per rank (see ParallelOptions::threads_per_rank).
  int threads_per_rank = 1;
  SolverOptions solver;
  std::size_t memory_budget_per_rank = 0;

  /// On MemoryBudgetError, split the failing subset further by appending
  /// the next unused trailing reversible reaction, up to this many extra
  /// reactions (0 disables re-splitting and the error propagates).
  std::size_t max_extra_splits = 0;

  /// Per-subset retry behaviour for transient failures (rank crashes,
  /// corrupted payloads) and for budget exhaustion past max_extra_splits.
  RetryPolicy retry;
  /// Deterministic fault injection shared by every world this run spawns.
  std::shared_ptr<mpsim::FaultPlan> fault_plan;
  /// When non-empty, append a record per completed subset to this file.
  std::string checkpoint_path;
  /// When non-empty, load this checkpoint and skip its completed subsets.
  std::string resume_from;

  /// Watchdog supervision of each subset's world (soft = straggler
  /// diagnosis, hard/stall = abort + re-queue-with-split).  Every subset
  /// gets the same deadlines.
  resource::Deadlines subset_deadlines;

  /// Invoked once per committed subset (computed or resumed) with its
  /// label, EFM count, and wall seconds.  Never throttled — progress
  /// reporting uses this so even a subset that finishes inside one
  /// heartbeat interval leaves a record.
  std::function<void(const std::string&, std::size_t, double)> on_subset;
};

/// One divide-and-conquer subtask: (reduced reaction index, must-be-nonzero)
/// per partition reaction.
struct SubsetSpec {
  std::vector<std::pair<std::size_t, bool>> pattern;

  /// Render as the paper does: overlined (zero-flux) names are suffixed
  /// with '0', nonzero ones with '+', e.g. "R89r:0 R74r:+".
  [[nodiscard]] std::string label(
      const std::vector<std::string>& names) const {
    std::string out;
    for (const auto& [row, nonzero] : pattern) {
      if (!out.empty()) out += ' ';
      out += names[row];
      out += nonzero ? ":+" : ":0";
    }
    return out;
  }
};

struct SubsetReport {
  SubsetSpec spec;
  std::string label;
  std::size_t num_efms = 0;
  SolveStats stats;
  mpsim::RunReport ranks;
  double seconds = 0.0;
  /// Number of extra partition reactions this subset needed (adaptive).
  std::size_t extra_splits = 0;
  /// How many attempts the subset took (1 = first try succeeded).
  std::size_t attempts = 1;
  /// Simulated backoff charged before the successful attempt.
  double backoff_seconds = 0.0;
  /// True if the subset was recovered from a checkpoint, not computed.
  bool resumed = false;
  /// Each simulated rank's own solver ledger (empty for resumed subsets).
  std::vector<SolveStats> rank_stats;
};

template <typename Scalar, typename Support>
struct CombinedResult {
  /// Union of all subset EFM sets, in the reduced reaction space.
  std::vector<FluxColumn<Scalar, Support>> columns;
  std::vector<SubsetReport> subsets;
  SolveStats total;
  double seconds = 0.0;
  /// Failed subset attempts that were re-queued under the retry policy.
  std::size_t total_retries = 0;
  /// Sum of the exponential-backoff delays, in simulated seconds.  Nothing
  /// actually sleeps; the ledger makes retry cost visible in reports.
  double simulated_backoff_seconds = 0.0;
  /// Timeline of notable moments (retries, re-splits, checkpoints,
  /// resumes), timestamped relative to the start of solve_combined.
  std::vector<obs::TimelineEvent> events;
};

namespace detail {

/// Build the subproblem for one subset: remove zero-flux columns, record
/// the sub-index of every nonzero-flux row.
template <typename Scalar>
struct Subproblem {
  EfmProblem<Scalar> problem;
  std::vector<std::size_t> keep;          // sub col -> original reduced col
  std::vector<std::size_t> nzf_sub_rows;  // nonzero rows, sub numbering
};

template <typename Scalar>
Subproblem<Scalar> make_subproblem(const EfmProblem<Scalar>& problem,
                                   const SubsetSpec& spec) {
  std::vector<bool> removed(problem.num_reactions(), false);
  std::vector<bool> nonzero(problem.num_reactions(), false);
  for (const auto& [row, nz] : spec.pattern) {
    ELMO_REQUIRE(problem.reversible[row],
                 "partition reaction " + problem.reaction_names[row] +
                     " must be reversible (Proposition 1 requires the "
                     "unprocessed rows to be sign-free)");
    if (nz)
      nonzero[row] = true;
    else
      removed[row] = true;
  }
  Subproblem<Scalar> sub;
  for (std::size_t j = 0; j < problem.num_reactions(); ++j) {
    if (removed[j]) continue;
    if (nonzero[j]) sub.nzf_sub_rows.push_back(sub.keep.size());
    sub.keep.push_back(j);
  }
  sub.problem.stoichiometry = problem.stoichiometry.select_columns(sub.keep);
  for (std::size_t j : sub.keep) {
    sub.problem.reversible.push_back(problem.reversible[j]);
    sub.problem.reaction_names.push_back(problem.reaction_names[j]);
  }
  return sub;
}

}  // namespace detail

template <typename Scalar, typename Support>
CombinedResult<Scalar, Support> solve_combined(
    const EfmProblem<Scalar>& problem, const CombinedOptions& options) {
  Stopwatch total_watch;
  CombinedResult<Scalar, Support> result;

  // Timeline + instant-event recorder: one line in the run report, one
  // instant in the trace (when tracing is on), one counter bump.
  auto note_event = [&](const char* kind, std::string detail,
                        const obs::Counter& counter) {
    counter.add(1);
    obs::trace_instant(kind, "combined", detail);
    result.events.push_back(
        obs::TimelineEvent{total_watch.seconds(), kind, std::move(detail)});
  };
  auto& registry = obs::Registry::global();
  static const obs::Counter retries_counter =
      registry.counter("combined.retries");
  static const obs::Counter resplits_counter =
      registry.counter("combined.resplits");
  static const obs::Counter checkpoints_counter =
      registry.counter("combined.checkpoints");
  static const obs::Counter resumed_counter =
      registry.counter("combined.subsets_resumed");
  static const obs::Counter subsets_counter =
      registry.counter("combined.subsets_solved");
  static const obs::Counter cancelled_counter =
      registry.counter("combined.cancelled");

  // Resolve the partition reactions.
  std::vector<std::size_t> partition_rows;
  if (options.partition_reactions.empty()) {
    partition_rows = select_partition_rows<Scalar, Support>(
        problem, options.solver.ordering, options.qsub);
  } else {
    for (const auto& name : options.partition_reactions) {
      std::size_t row = problem.num_reactions();
      for (std::size_t j = 0; j < problem.num_reactions(); ++j) {
        if (problem.reaction_names[j] == name) {
          row = j;
          break;
        }
      }
      ELMO_REQUIRE(row < problem.num_reactions(),
                   "partition reaction not in reduced problem: " + name);
      partition_rows.push_back(row);
    }
  }
  const std::size_t qsub = partition_rows.size();
  ELMO_REQUIRE(qsub > 0 && qsub < 63, "unreasonable partition subset size");

  // Trailing reversible reactions available for adaptive re-splitting.
  // Best effort: a network with few reversible reactions simply yields
  // fewer spares, and budget errors past the available depth fall through
  // to the retry ladder instead of failing at setup.
  std::vector<std::size_t> spares;
  if (options.max_extra_splits > 0) {
    auto trailing = select_partition_rows_up_to<Scalar, Support>(
        problem, options.solver.ordering, qsub + options.max_extra_splits);
    for (std::size_t row : trailing) {
      bool used = false;
      for (std::size_t p : partition_rows) used = used || p == row;
      if (!used) spares.push_back(row);
    }
  }

  // Subsets already completed by an earlier, interrupted run.  Keyed by
  // the full pattern (including adaptive extra splits); last record wins
  // so a file holding a retried subset twice resumes from the newest.
  std::map<std::vector<std::pair<std::uint64_t, bool>>, CheckpointRecord>
      completed;
  if (!options.resume_from.empty()) {
    // A writer killed mid-append leaves a damaged tail, and load_checkpoint
    // stops silently at the first unreadable frame — repairing first trims
    // the file to its last intact frame so the resume set is everything
    // that actually committed, not a prefix cut short by garbage bytes.
    repair_checkpoint(options.resume_from);
    for (auto& record : load_checkpoint(options.resume_from))
      completed[record.pattern] = std::move(record);
  }
  // The same damaged tail would strand this run's appended records behind
  // unreadable bytes, so trim the write-side file too before the first
  // commit of this run (it may differ from resume_from).
  if (!options.checkpoint_path.empty())
    repair_checkpoint(options.checkpoint_path);

  // Work queue of subtasks; adaptive re-splitting pushes refined subsets,
  // the retry policy re-queues failed ones with a higher attempt count.
  struct Task {
    SubsetSpec spec;
    std::size_t attempt = 1;
    double backoff = 0.0;
    /// Retrying after resource exhaustion: apply the degrade ladder
    /// (halve the candidate tile, then spill-always, then serial).
    bool degrade = false;
  };
  std::deque<Task> queue;
  for (std::uint64_t id = 0; id < (1ULL << qsub); ++id) {
    SubsetSpec spec;
    for (std::size_t k = 0; k < qsub; ++k)
      spec.pattern.emplace_back(partition_rows[k], (id >> k) & 1);
    queue.push_back(Task{std::move(spec), 1, 0.0, false});
  }

  const std::size_t max_attempts =
      options.retry.enabled() ? static_cast<std::size_t>(
                                    options.retry.max_attempts)
                              : 1;

  while (!queue.empty()) {
    if (resource::shutdown_requested()) {
      // Cooperative cancellation between subsets: everything solved so far
      // is already checkpointed, so a --resume run loses nothing committed.
      note_event("cancelled",
                 "shutdown requested; " +
                     std::to_string(result.subsets.size()) +
                     " subset(s) committed",
                 cancelled_counter);
      resource::throw_if_shutdown_requested("combined driver");
    }
    Task task = std::move(queue.front());
    queue.pop_front();
    const SubsetSpec& spec = task.spec;

    std::vector<std::pair<std::uint64_t, bool>> key;
    for (const auto& [row, nz] : spec.pattern) key.emplace_back(row, nz);
    if (auto it = completed.find(key); it != completed.end()) {
      // Recovered from checkpoint: re-materialise the stored BigInt modes
      // in this run's scalar type instead of recomputing the subset.
      const CheckpointRecord& record = it->second;
      SubsetReport report;
      report.spec = spec;
      report.label = spec.label(problem.reaction_names);
      report.num_efms = record.modes.size();
      report.stats.total_pairs_probed = record.candidate_pairs;
      report.seconds = record.seconds;
      report.extra_splits = record.extra_splits;
      report.attempts = static_cast<std::size_t>(record.attempts);
      report.resumed = true;
      note_event("resume", report.label, resumed_counter);
      std::vector<FluxColumn<Scalar, Support>> restored;
      for (const auto& mode : record.modes) {
        std::vector<Scalar> values;
        values.reserve(mode.size());
        for (const auto& v : mode)
          values.push_back(scalar_from_bigint<Scalar>(v));
        restored.push_back(
            FluxColumn<Scalar, Support>::from_values(std::move(values)));
      }
      if (options.solver.audit) {
        // Checkpointed modes must still honour their subset's zero/nonzero
        // pattern — guards against stale or corrupted checkpoint files.
        check::InvariantAuditor{}.check_proposition1(
            restored, spec.pattern, "resumed subset " + report.label);
      }
      for (auto& column : restored)
        result.columns.push_back(std::move(column));
      result.total.merge(report.stats);
      if (options.on_subset)
        options.on_subset(report.label, report.num_efms, report.seconds);
      result.subsets.push_back(std::move(report));
      continue;
    }

    // One span per subset ATTEMPT (failed attempts get their own spans);
    // the label identifies the subset, Perfetto shows the retry pattern.
    obs::TraceSpan subset_span(
        "subset", "combined",
        obs::trace() != nullptr ? spec.label(problem.reaction_names)
                                : std::string());
    Stopwatch subset_watch;
    auto sub = detail::make_subproblem<Scalar>(problem, spec);
    ParallelOptions parallel = {};
    parallel.num_ranks = options.num_ranks;
    parallel.threads_per_rank = options.threads_per_rank;
    parallel.solver = options.solver;
    parallel.solver.exclude_rows = sub.nzf_sub_rows;
    parallel.memory_budget_per_rank = options.memory_budget_per_rank;
    parallel.fault_plan = options.fault_plan;

    parallel.deadlines = options.subset_deadlines;

    // Attempt shaping: optionally shrink the world on every retry, and run
    // the last permitted attempt serially — one rank, no budget, no fault
    // plan — so the ladder always has a clean exit.
    const bool serial_attempt = options.retry.serial_final_attempt &&
                                task.attempt >= max_attempts &&
                                max_attempts > 1;
    if (options.retry.halve_ranks_on_retry && task.attempt > 1) {
      parallel.num_ranks = std::max(
          1, options.num_ranks >> static_cast<int>(task.attempt - 1));
    }
    if (task.degrade && task.attempt > 1) {
      // Resource degrade ladder (ResourceError / bad_alloc): each retry
      // halves the candidate tile again; from the second retry on, every
      // block goes out-of-core unconditionally.
      parallel.solver.block_ref_cap = std::max<std::size_t>(
          std::size_t{1} << 12,
          options.solver.block_ref_cap >> (task.attempt - 1));
      parallel.solver.spill.enabled = true;
      if (task.attempt >= 3) parallel.solver.spill.always = true;
    }
    if (serial_attempt) {
      parallel.num_ranks = 1;
      parallel.threads_per_rank = 1;
      parallel.memory_budget_per_rank = 0;
      parallel.fault_plan = nullptr;
      // The ladder's clean exit must not fail on governance either:
      // complete slowly (spilling if asked) rather than not at all.
      parallel.solver.ignore_mem_limit = true;
      parallel.deadlines = {};
    }

    // Re-split this subset on the next spare reaction (paper Table IV: the
    // oversized three-reaction subsets gained R22r as a fourth).  Returns
    // false when the re-split headroom is exhausted — then the retry ladder
    // takes over.
    auto try_resplit = [&]() -> bool {
      const std::size_t depth = spec.pattern.size() - qsub;
      if (depth >= options.max_extra_splits || depth >= spares.size())
        return false;
      const std::size_t extra = spares[depth];
      note_event("resplit",
                 spec.label(problem.reaction_names) + " + " +
                     problem.reaction_names[extra],
                 resplits_counter);
      for (bool nz : {false, true}) {
        SubsetSpec refined = spec;
        refined.pattern.emplace_back(extra, nz);
        queue.push_front(Task{std::move(refined), 1, task.backoff, false});
      }
      return true;
    };
    // Re-queue the subset with a bumped attempt count and exponential
    // backoff ledger, or exhaust the ladder.  Only valid inside a catch
    // block (rethrows when max_attempts == 1).  `degrade` marks the retry
    // as a resource retry so attempt shaping applies the degrade ladder.
    auto requeue_or_throw = [&](const std::string& what, bool degrade) {
      if (task.attempt >= max_attempts) {
        if (max_attempts > 1)
          throw RetryExhaustedError(spec.label(problem.reaction_names),
                                    static_cast<int>(task.attempt), what);
        throw;
      }
      ++result.total_retries;
      note_event("retry",
                 spec.label(problem.reaction_names) + ": " + what +
                     " (attempt " + std::to_string(task.attempt) + ")",
                 retries_counter);
      const double delay =
          options.retry.backoff_seconds *
          static_cast<double>(1ULL << (task.attempt - 1));
      result.simulated_backoff_seconds += delay;
      queue.push_back(Task{spec, task.attempt + 1, task.backoff + delay,
                           degrade || task.degrade});
    };

    ParallelSolveResult<Scalar, Support> solved;
    try {
      solved =
          solve_combinatorial_parallel<Scalar, Support>(sub.problem, parallel);
    } catch (const MemoryBudgetError&) {
      // Per-rank budget bust: split first (halving the subset halves the
      // per-rank matrix), then retry (the serial final attempt ignores the
      // budget and will finish it).
      if (try_resplit()) continue;
      requeue_or_throw("memory budget exceeded", false);
      continue;
    } catch (const ResourceError& e) {
      // Process-level exhaustion (--mem-limit bust or a real bad_alloc):
      // split if possible, otherwise retry DEGRADED — smaller candidate
      // tiles, then spill-always, then the serial ungoverned rung.
      if (try_resplit()) continue;
      requeue_or_throw(e.what(), true);
      continue;
    } catch (const DeadlineExceededError& e) {
      // Watchdog hard deadline / wedged world: re-queue with a split so the
      // halves fit the time budget; fall back to plain retries (the serial
      // final attempt runs unsupervised).
      if (try_resplit()) continue;
      requeue_or_throw(e.what(), false);
      continue;
    } catch (const std::exception& e) {
      // Transient failures — an injected crash, a world abort, a corrupted
      // payload — are retryable; everything else (including CancelledError
      // from a shutdown request) is not and propagates.
      const bool retryable =
          dynamic_cast<const mpsim::AbortedError*>(&e) != nullptr ||
          dynamic_cast<const mpsim::InjectedFaultError*>(&e) != nullptr ||
          dynamic_cast<const CorruptPayloadError*>(&e) != nullptr;
      if (!retryable) throw;
      requeue_or_throw(e.what(), false);
      continue;
    }

    // Proposition 1: keep columns with nonzero flux in EVERY unprocessed
    // partition row; re-embed into the full reduced space with zeros in
    // the removed columns.
    SubsetReport report;
    report.spec = spec;
    report.label = spec.label(problem.reaction_names);
    report.stats = solved.stats;
    report.ranks = std::move(solved.ranks);
    report.rank_stats = std::move(solved.per_rank);
    report.extra_splits = spec.pattern.size() - qsub;
    report.attempts = task.attempt;
    report.backoff_seconds = task.backoff;
    std::vector<FluxColumn<Scalar, Support>> subset_columns;
    for (auto& column : solved.columns) {
      bool keep = true;
      for (std::size_t sub_row : sub.nzf_sub_rows)
        keep = keep && !scalar_is_zero(column.values[sub_row]);
      if (!keep) continue;
      std::vector<Scalar> full(problem.num_reactions(),
                               scalar_from_i64<Scalar>(0));
      for (std::size_t j = 0; j < sub.keep.size(); ++j)
        full[sub.keep[j]] = std::move(column.values[j]);
      subset_columns.push_back(
          FluxColumn<Scalar, Support>::from_values(std::move(full)));
      ++report.num_efms;
    }
    report.seconds = subset_watch.seconds();

    if (options.solver.audit) {
      // Proposition 1, re-checked from first principles: every reported
      // column has nonzero flux on all nonzero-pattern rows and exact
      // zeros on all removed rows (the filter above and the re-embedding
      // must agree with the subset's defining pattern).
      check::InvariantAuditor{}.check_proposition1(
          subset_columns, spec.pattern, "subset " + report.label);
    }

    if (!options.checkpoint_path.empty()) {
      CheckpointRecord record;
      record.pattern = key;
      record.modes = columns_to_bigint(subset_columns);
      record.candidate_pairs = report.stats.total_pairs_probed;
      record.seconds = report.seconds;
      record.extra_splits = report.extra_splits;
      record.attempts = report.attempts;
      append_checkpoint_record(options.checkpoint_path, record);
      note_event("checkpoint", report.label, checkpoints_counter);
    }

    subsets_counter.add(1);
    for (auto& column : subset_columns)
      result.columns.push_back(std::move(column));
    result.total.merge(report.stats);
    if (options.on_subset)
      options.on_subset(report.label, report.num_efms, report.seconds);
    result.subsets.push_back(std::move(report));
  }

  if (options.solver.audit) {
    // The executed subsets (including adaptive re-splits and resumed ones)
    // must tile the zero/nonzero pattern space: pairwise disjoint, exact
    // cover (Proposition 1's premise — every EFM lands in exactly one).
    std::vector<check::SubsetPattern> patterns;
    std::vector<std::string> labels;
    for (const auto& subset : result.subsets) {
      patterns.push_back(subset.spec.pattern);
      labels.push_back(subset.label);
    }
    check::check_subset_partition(patterns, labels);
    check::InvariantAuditor auditor;
    auditor.check_nullspace_product(problem.stoichiometry, result.columns,
                                    "solve_combined final");
    auditor.check_support_minimality(result.columns, "solve_combined final");
  }

  result.seconds = total_watch.seconds();
  return result;
}

}  // namespace elmo

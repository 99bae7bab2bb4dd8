// Algorithm 4: the matrix-partitioned parallel Nullspace Algorithm —
// the paper's future-work item #1 implemented.
//
// "Future work should focus on several points.  First, the current
//  nullspace matrix should not be stored across all the compute nodes in
//  the combinatorial parallel Nullspace Algorithm, but should be
//  partitioned in an efficient way instead."  (paper, §V)
//
// Design: each rank OWNS a shard of the current matrix's columns instead of
// a full replica.  Per iteration:
//
//   1. every rank classifies its shard locally (zero/positive/negative),
//   2. the POSITIVE columns — by the paper's reversible-last heuristic the
//      side that irreversible processing retains — are all-gathered so each
//      rank can pair the full positive set against its LOCAL negatives;
//      pair counting still covers the complete pos x neg cross product with
//      no overlap,
//   3. candidates are rank-tested locally (the rank test needs only the
//      fixed stoichiometry), then deduped globally by an all-gather of the
//      candidate supports and the zero columns' supports and orientations,
//   4. accepted candidates are appended to the generating rank's shard, and
//      shards are rebalanced by moving whole columns from overfull to
//      underfull ranks (cheapest-first, preserving the global sort order
//      guarantees not at all — shards are sets, order is irrelevant).
//
// The iterations run through run_iterations (nullspace/solver.hpp) with the
// ShardedColumns distribution below, so cancellation, --mem-limit, history
// and audits behave as in Algorithms 1 and 2.
//
// Memory per rank is O(shard + positive side + transient candidates)
// instead of O(full matrix): bench_memory quantifies the difference.  The
// EFM SET produced is identical to Algorithms 1-3 (tests assert equality);
// the distribution of columns across ranks is an implementation detail.
//
// Caveat shared with the paper's design sketch: the positive side is
// replicated during an iteration.  For rows where the positive side is the
// larger one this bounds the saving; on the yeast demo it sets the per-rank
// peak at every rank count (bench_memory reports actual peaks).
#pragma once

#include <algorithm>
#include <optional>
#include <string>

#include "bigint/checked.hpp"
#include "core/combinatorial_parallel.hpp"
#include "mpsim/communicator.hpp"
#include "mpsim/serialize.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/iteration.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "nullspace/stats.hpp"
#include "parallel/partitioner.hpp"
#include "support/assert.hpp"
#include "support/codec.hpp"
#include "support/timer.hpp"

namespace elmo {

struct PartitionedOptions {
  int num_ranks = 4;
  /// Shared-memory workers per rank (see ParallelOptions::threads_per_rank).
  int threads_per_rank = 1;
  SolverOptions solver;
  std::size_t memory_budget_per_rank = 0;
  /// Optional deterministic fault injection; see mpsim/fault.hpp.
  std::shared_ptr<mpsim::FaultPlan> fault_plan;
};

template <typename Scalar, typename Support>
struct PartitionedSolveResult : ParallelSolveResult<Scalar, Support> {
  /// Peak per-rank bytes (shard + replicated positives) — the quantity
  /// Algorithm 4 is designed to shrink versus Algorithm 2's full replica.
  std::size_t peak_rank_bytes = 0;
};

/// Algorithm 4's column distribution: each rank owns a shard of the
/// matrix.  The step pairs the gathered positives against the shard's
/// negatives, candidates are deduplicated across ranks without moving
/// their values, and after the merge the shards are rebalanced.
template <typename Scalar, typename Support>
class ShardedColumns {
 public:
  using Column = FluxColumn<Scalar, Support>;

  explicit ShardedColumns(mpsim::Communicator& comm) : comm_(comm) {}

  [[nodiscard]] int rank() const { return comm_.rank(); }
  [[nodiscard]] bool owner() const { return true; }
  [[nodiscard]] std::string where() const {
    return "solve_partitioned_parallel rank " + std::to_string(comm_.rank());
  }

  /// Shards the initial basis round-robin.
  void start(std::vector<Column> basis) {
    const auto ranks = static_cast<std::size_t>(comm_.size());
    for (auto c = static_cast<std::size_t>(comm_.rank()); c < basis.size();
         c += ranks)
      shard_.push_back(std::move(basis[c]));
  }
  std::vector<Column>& columns() { return shard_; }

  /// Gathers the other ranks' positive columns onto this shard and pairs
  /// all positives against the shard's negatives; across ranks this covers
  /// every pos x neg pair exactly once.  The merge drops the gathered
  /// replicas again: it keeps only the columns classify_row saw.
  PairInput<Scalar, Support> pairs(const RowClassification& cls,
                                   PhaseTimer& phases) {
    ScopedPhase phase(phases, Phase::kCommunicate);
    std::vector<Column> local_positives;
    local_positives.reserve(cls.positive.size());
    for (std::uint32_t j : cls.positive) local_positives.push_back(shard_[j]);
    auto batches = comm_.all_gather(mpsim::encode_columns(local_positives));
    pairing_cls_ = cls;
    replica_bytes_ = 0;
    for (int r = 0; r < comm_.size(); ++r) {
      if (r == comm_.rank()) continue;
      const std::size_t first = shard_.size();
      mpsim::decode_columns(batches[static_cast<std::size_t>(r)], shard_);
      for (std::size_t j = first; j < shard_.size(); ++j) {
        replica_bytes_ += sizeof(Column) + shard_[j].storage_bytes();
        pairing_cls_.positive.push_back(static_cast<std::uint32_t>(j));
      }
    }
    return {shard_, pairing_cls_, PairRange{0, pairing_cls_.pair_count()}};
  }

  /// Global dedup by supports: a candidate produced on two ranks (same
  /// support) is kept only by the lowest rank, and a candidate equal to
  /// another rank's zero column is dropped, as the step already drops one
  /// equal to a local zero column.  Each rank gathers one probe per
  /// candidate (its support) and per zero column (its support and
  /// orientation, which tags it as existing).
  void exchange(const IterationStats& /*iteration*/,
                std::vector<Column>& candidates, IterationStats& merged,
                PhaseTimer& phases) {
    ScopedPhase phase(phases, Phase::kCommunicate);
    std::vector<Column> probes;
    probes.reserve(candidates.size() + pairing_cls_.zero.size());
    for (const auto& column : candidates) {
      Column probe;
      probe.support = column.support;
      probes.push_back(std::move(probe));
    }
    for (std::uint32_t j : pairing_cls_.zero) {
      Column probe;
      probe.support = shard_[j].support;
      probe.values.push_back(scalar_from_i64<Scalar>(orientation(shard_[j])));
      probes.push_back(std::move(probe));
    }
    auto batches = comm_.all_gather(mpsim::encode_columns(probes));
    ScopedPhase merge_phase(phases, Phase::kMerge);
    std::vector<Support> earlier;  // candidates of LOWER ranks
    std::vector<std::pair<Support, int>> existing;  // others' zero columns
    for (int r = 0; r < comm_.size(); ++r) {
      if (r == comm_.rank()) continue;
      std::vector<Column> incoming;
      mpsim::decode_columns(batches[static_cast<std::size_t>(r)], incoming);
      for (auto& probe : incoming) {
        if (!probe.values.empty()) {
          existing.emplace_back(std::move(probe.support),
                                scalar_sign(probe.values.front()));
        } else if (r < comm_.rank()) {
          earlier.push_back(std::move(probe.support));
        }
      }
    }
    std::sort(earlier.begin(), earlier.end());
    std::sort(existing.begin(), existing.end());
    std::size_t kept = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const Support& support = candidates[c].support;
      if (std::binary_search(earlier.begin(), earlier.end(), support) ||
          std::binary_search(
              existing.begin(), existing.end(),
              std::make_pair(support, orientation(candidates[c])))) {
        ++merged.duplicates_removed;
        continue;
      }
      if (kept != c) candidates[kept] = std::move(candidates[c]);
      ++kept;
    }
    candidates.resize(kept);
    merged.accepted = kept;
  }

  /// Rebalance: even out shard sizes (heaviest ranks ship columns to the
  /// lightest; implemented as a gather of sizes + deterministic transfer
  /// plan executed with point-to-point messages).  The gathered records
  /// also carry each rank's negatives and merged candidates, which sum to
  /// the world's.
  void settle(IterationStats& record, PhaseTimer& phases) {
    ScopedPhase phase(phases, Phase::kCommunicate);
    const int num_ranks = comm_.size();
    const int rank = comm_.rank();
    const std::uint64_t total = comm_.all_reduce_sum(shard_.size());
    const std::uint64_t target = total / num_ranks;
    // Deterministic plan known to every rank: sizes via gather.
    mpsim::Payload size_payload;
    codec::put_u64(size_payload, shard_.size());
    codec::put_u64(size_payload, record.negatives);
    codec::put_u64(size_payload, record.accepted);
    auto size_batches = comm_.all_gather(std::move(size_payload));
    record.negatives = 0;
    record.accepted = 0;
    record.columns_after = total;
    std::vector<std::int64_t> sizes(num_ranks);
    for (int r = 0; r < num_ranks; ++r) {
      const auto& batch = size_batches[static_cast<std::size_t>(r)];
      const std::uint8_t* cursor = batch.data();
      const std::uint8_t* end = cursor + batch.size();
      sizes[r] = static_cast<std::int64_t>(codec::get_u64(cursor, end));
      record.negatives += codec::get_u64(cursor, end);
      record.accepted += codec::get_u64(cursor, end);
    }
    // Greedy plan: (from, to, count) triples.
    struct Move {
      int from;
      int to;
      std::int64_t count;
    };
    std::vector<Move> plan;
    for (int from = 0; from < num_ranks; ++from) {
      while (sizes[from] > checked_add(static_cast<std::int64_t>(target), 1)) {
        int to = 0;
        for (int r = 1; r < num_ranks; ++r)
          if (sizes[r] < sizes[to]) to = r;
        std::int64_t surplus = sizes[from] - static_cast<std::int64_t>(target);
        std::int64_t deficit = static_cast<std::int64_t>(target) - sizes[to];
        std::int64_t count =
            std::min(surplus, std::max<std::int64_t>(deficit, 1));
        if (count <= 0 || to == from) break;
        plan.push_back(Move{from, to, count});
        sizes[from] -= count;
        sizes[to] += count;
      }
    }
    for (const auto& move : plan) {
      if (move.from == rank) {
        std::vector<Column> shipped;
        for (std::int64_t moved = 0; moved < move.count; ++moved) {
          shipped.push_back(std::move(shard_.back()));
          shard_.pop_back();
        }
        comm_.send(move.to, /*tag=*/1000 + static_cast<int>(record.row),
                   mpsim::encode_columns(shipped));
      } else if (move.to == rank) {
        mpsim::decode_columns(
            comm_.recv(move.from, 1000 + static_cast<int>(record.row)),
            shard_);
      }
    }
  }

  /// This shard plus the iteration's replicated positives.
  [[nodiscard]] std::size_t resident_bytes() const {
    return matrix_storage_bytes(shard_) + replica_bytes_;
  }
  void charge(std::size_t bytes) { comm_.set_memory_usage(bytes); }

  /// Gathers all shards to rank 0.
  std::optional<std::vector<Column>> gather() {
    auto batches = comm_.all_gather(mpsim::encode_columns(shard_));
    if (comm_.rank() != 0) return std::nullopt;
    std::vector<Column> gathered;
    for (const auto& batch : batches) mpsim::decode_columns(batch, gathered);
    return gathered;
  }

 private:
  /// The sign of a column's first nonzero entry.  Elementary columns with
  /// one support are proportional and primitive, so two of them are equal
  /// iff their orientations are.
  static int orientation(const Column& column) {
    for (const auto& value : column.values)
      if (!scalar_is_zero(value)) return scalar_sign(value);
    return 0;
  }

  mpsim::Communicator& comm_;
  std::vector<Column> shard_;  // during a step, plus the gathered positives
  RowClassification pairing_cls_;
  std::size_t replica_bytes_ = 0;  // the gathered positives
};

template <typename Scalar, typename Support>
PartitionedSolveResult<Scalar, Support> solve_partitioned_parallel(
    const EfmProblem<Scalar>& problem, const PartitionedOptions& options) {
  ELMO_REQUIRE(options.solver.test == ElementarityTest::kRank,
               "the partitioned algorithm requires the (local) rank test");
  mpsim::RunOptions run_options;
  run_options.memory_budget_per_rank = options.memory_budget_per_rank;
  run_options.fault_plan = options.fault_plan;
  PartitionedSolveResult<Scalar, Support> result{
      solve_in_world<Scalar, Support>(
          problem, options.solver, options.num_ranks,
          options.threads_per_rank, run_options,
          [](mpsim::Communicator& comm) {
            return ShardedColumns<Scalar, Support>(comm);
          })};
  result.peak_rank_bytes = result.stats.peak_matrix_bytes;
  return result;
}

}  // namespace elmo

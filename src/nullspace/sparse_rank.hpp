// Sparse, amortized modular rank-test engine.
//
// Same decision procedure as ModularRankTester — elimination over
// Z_(2^61-1), accepts certified for kernel-vector candidates, rejects
// Monte-Carlo (see nullspace/modular_rank.hpp) — restructured around the
// two sources of waste in the dense tester:
//
//   * Gather.  The dense tester copies a full m x |S| (or (q-|S|) x k)
//     submatrix per candidate.  Here both matrices live in start/index/
//     value sparse stores (linalg/sparse.hpp) and only the nonzero entries
//     of the candidate's slice are touched.
//
//   * Re-elimination.  N is replaced by its reduced row echelon form over
//     Z_p, computed ONCE at construction.  Row operations preserve every
//     column dependency, so rank_p(N[:, S]) == rank_p(R[:, S]); R has only
//     rank(N) nonzero rows, its pivot columns are unit vectors (a free rank
//     increment each — no elimination), and the per-candidate problem
//     shrinks to a small residual over the non-pivot columns with the
//     already-pivoted rows struck out.  The K-side pivots singleton kernel
//     rows for free before it eliminates what is left.
//
//   A tester holds no per-iteration state: every answer depends only on
//   the support asked about.
//
// The K-side/N-side choice uses exact gathered-nnz counts from the sparse
// stores instead of dense dimension products; candidates whose sparse
// estimate exceeds the dense one by a margin are delegated to an embedded
// dense-modular tester (counted as rank_dense_fallbacks — `elmo_stat diff`
// watches that rate).  Accept/reject equals the dense-modular tester's
// verdict: both compute ranks of the same matrices over the same prime.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "nullspace/flux_column.hpp"
#include "nullspace/modular_rank.hpp"
#include "nullspace/stats.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace elmo {

/// Counters accumulated per is_elementary() call; drained once per
/// iteration into IterationStats (and from there report.json totals and
/// the run ledger).
struct RankEngineStats {
  std::uint64_t tests = 0;
  std::uint64_t sparse_hits = 0;       // served by the sparse paths
  std::uint64_t dense_fallbacks = 0;   // delegated to the dense tester
  std::uint64_t gathered_nnz = 0;      // entries gathered across all tests
};

/// Which formulation is_elementary uses; kAuto picks per candidate from
/// the nnz cost model.  Tests and the bench force a side to exercise both.
enum class RankTestSide { kAuto, kNSide, kKSide };

struct SparseRankConfig {
  RankTestSide force_side = RankTestSide::kAuto;
  /// Delegate a candidate to the embedded dense-modular tester when the
  /// sparse estimate exceeds margin x the dense estimate (compaction
  /// overhead loses on very dense residuals).  Counted per delegation.
  double dense_fallback_margin = 2.0;
};

template <typename Scalar>
class SparseRankTester {
 public:
  /// `stoichiometry` is the reduced m x q matrix; `kernel_columns` the
  /// initial nullspace basis (one entry per basis column, values length q).
  template <typename Support>
  SparseRankTester(
      const Matrix<Scalar>& stoichiometry,
      const std::vector<FluxColumn<Scalar, Support>>& kernel_columns,
      SparseRankConfig config = {})
      : config_(config),
        m_(stoichiometry.rows()),
        q_(stoichiometry.cols()),
        k_(kernel_columns.size()),
        dense_(stoichiometry, kernel_columns) {
    build_rref(stoichiometry);
    kernel_rows_ = SparseCscU64::build(
        k_, q_, [&](std::size_t c, std::size_t r) {
          return modular::from_scalar(kernel_columns[c].values[r]);
        });
    row_kill_stamp_.assign(r_, 0);
    row_slot_stamp_.assign(r_, 0);
    row_slot_.assign(r_, 0);
    col_kill_stamp_.assign(k_, 0);
    col_slot_stamp_.assign(k_, 0);
    col_slot_.assign(k_, 0);
  }

  /// Rank of the stoichiometry over Z_p (== the exact rank unless p
  /// divides a maximal minor).
  [[nodiscard]] std::size_t stoichiometry_rank_mod_p() const { return r_; }

  /// True iff nullity(N restricted to `support`) == 1, computed mod p.
  /// Accepts are exact; rejects are Monte-Carlo (file comment).
  template <typename Support>
  bool is_elementary(const Support& support) {
    ++stats_.tests;
    indices_.clear();
    support.append_indices(indices_);
    const std::size_t s = indices_.size();
    if (s == 0) return false;
    if (s > r_ + 1) return false;  // nullity_p >= s - rank_p >= 2

    // Exact gathered-nnz cost model.  The N-side scan is O(s) off the
    // column store; the K-side scan walks the complement rows' counts.
    std::size_t pivot_overlap = 0;
    std::size_t n_gather = 0;
    for (std::uint32_t j : indices_) {
      if (pivot_row_of_col_[j] != kNoPivot) {
        ++pivot_overlap;
      } else {
        n_gather += rref_cols_.count(j);
      }
    }
    const std::size_t d = s - pivot_overlap;
    std::size_t k_singletons = 0;
    std::size_t k_rows = 0;
    std::size_t k_gather = 0;
    {
      std::size_t next = 0;
      for (std::uint32_t r = 0; r < q_; ++r) {
        if (next < s && indices_[next] == r) {
          ++next;
          continue;
        }
        const std::size_t nnz = kernel_rows_.count(r);
        if (nnz == 0) continue;
        if (nnz == 1) {
          ++k_singletons;
        } else {
          ++k_rows;
          k_gather += nnz;
        }
      }
    }
    const std::size_t active_n = std::min(r_ - pivot_overlap, n_gather);
    const std::size_t alive_k =
        std::min(k_ - std::min(k_singletons, k_), k_gather);
    const double est_n = 2.0 * static_cast<double>(n_gather) +
                         static_cast<double>(active_n) *
                             static_cast<double>(d) * static_cast<double>(d);
    const double est_k = 2.0 * static_cast<double>(k_gather) +
                         static_cast<double>(k_rows) *
                             static_cast<double>(alive_k) *
                             static_cast<double>(alive_k);
    RankTestSide side = config_.force_side;
    if (side == RankTestSide::kAuto) {
      side = est_n <= est_k ? RankTestSide::kNSide : RankTestSide::kKSide;
      const double sd = static_cast<double>(s);
      const double md = static_cast<double>(m_);
      const double td = static_cast<double>(q_ - s);
      const double kd = static_cast<double>(k_);
      const double est_dense =
          std::min(md * sd * (sd + 1.0), td * kd * (kd + 1.0));
      if (std::min(est_n, est_k) >
          config_.dense_fallback_margin * est_dense) {
        ++stats_.dense_fallbacks;
        return dense_.is_elementary(support);
      }
    }
    ++stats_.sparse_hits;
    return side == RankTestSide::kNSide ? test_n_side(d) : test_k_side(s);
  }

  /// Move the counters accumulated since the last drain into `iteration`.
  void drain_stats(IterationStats& iteration) {
    iteration.rank_sparse_hits += stats_.sparse_hits;
    iteration.rank_dense_fallbacks += stats_.dense_fallbacks;
    iteration.rank_gathered_nnz += stats_.gathered_nnz;
    stats_ = RankEngineStats{};
  }

  [[nodiscard]] const RankEngineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = RankEngineStats{}; }

 private:
  static constexpr std::uint32_t kNoPivot = UINT32_MAX;

  struct GatherEntry {
    std::uint32_t row;
    std::uint32_t col;
    std::uint64_t value;
  };

  void build_rref(const Matrix<Scalar>& n) {
    std::vector<std::uint64_t> a(m_ * q_);
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t j = 0; j < q_; ++j) {
        a[i * q_ + j] = modular::from_scalar(n(i, j));
      }
    }
    pivot_row_of_col_.assign(q_, kNoPivot);
    std::size_t rank = 0;
    for (std::size_t col = 0; col < q_ && rank < m_; ++col) {
      std::size_t pr = rank;
      while (pr < m_ && a[pr * q_ + col] == 0) ++pr;
      if (pr == m_) continue;
      if (pr != rank) {
        for (std::size_t j = col; j < q_; ++j) {
          std::swap(a[rank * q_ + j], a[pr * q_ + j]);
        }
      }
      const std::uint64_t inv = modular::invmod(a[rank * q_ + col]);
      for (std::size_t j = col; j < q_; ++j) {
        if (a[rank * q_ + j]) {
          a[rank * q_ + j] = modular::mulmod(a[rank * q_ + j], inv);
        }
      }
      // Full Gauss-Jordan: clearing ABOVE the pivot too makes every pivot
      // column a unit vector, the invariant the N-side fast path rests on.
      for (std::size_t i = 0; i < m_; ++i) {
        if (i == rank) continue;
        const std::uint64_t head = a[i * q_ + col];
        if (head == 0) continue;
        a[i * q_ + col] = 0;
        for (std::size_t j = col + 1; j < q_; ++j) {
          const std::uint64_t sub = modular::mulmod(head, a[rank * q_ + j]);
          if (sub) a[i * q_ + j] = modular::submod(a[i * q_ + j], sub);
        }
      }
      pivot_row_of_col_[col] = static_cast<std::uint32_t>(rank);
      ++rank;
    }
    r_ = rank;
    // Pivot columns are stored empty (their unit entry is implicit); rows
    // at or below r_ are identically zero in an rref and are not stored.
    rref_cols_ = SparseCscU64::build(
        r_, q_, [&](std::size_t i, std::size_t j) -> std::uint64_t {
          if (pivot_row_of_col_[j] != kNoPivot) return 0;
          return a[i * q_ + j];
        });
  }

  /// nullity = d - rank(R[rows not pivoted by S, S's non-pivot columns]):
  /// the |S ∩ pivots| unit columns contribute rank for free, and striking
  /// their pivot rows is the elimination they would have performed.
  bool test_n_side(std::size_t d) {
    if (d == 0) return false;  // all pivot columns: independent, nullity 0
    ++epoch_;
    for (std::uint32_t j : indices_) {
      const std::uint32_t pr = pivot_row_of_col_[j];
      if (pr != kNoPivot) row_kill_stamp_[pr] = epoch_;
    }
    entries_.clear();
    std::size_t active = 0;
    std::uint32_t col_out = 0;
    std::uint64_t gathered = 0;
    for (std::uint32_t j : indices_) {
      if (pivot_row_of_col_[j] != kNoPivot) continue;
      const std::uint32_t* idx = rref_cols_.indices(j);
      const std::uint64_t* val = rref_cols_.values(j);
      const std::size_t nnz = rref_cols_.count(j);
      for (std::size_t e = 0; e < nnz; ++e) {
        const std::uint32_t i = idx[e];
        if (row_kill_stamp_[i] == epoch_) continue;  // struck by a unit pivot
        if (row_slot_stamp_[i] != epoch_) {
          row_slot_stamp_[i] = epoch_;
          row_slot_[i] = static_cast<std::uint32_t>(active++);
        }
        entries_.push_back({row_slot_[i], col_out, val[e]});
        ++gathered;
      }
      ++col_out;
    }
    stats_.gathered_nnz += gathered;
    observe_gathered(gathered);
    if (d > active + 1) return false;  // nullity >= d - active >= 2
    scratch_.assign(active * d, 0);
    for (const GatherEntry& e : entries_) {
      scratch_[e.row * d + e.col] = e.value;
    }
    const auto outcome = residual_rank(scratch_, active, d, 1);
    if (outcome.deficiency_exceeded) return false;
    return d - outcome.rank == 1;
  }

  /// nullity = k - rank(K[~S, :]), assembled as: singleton kills + rank
  /// of the compacted residual, plus one deficiency per alive column the
  /// residual never touches (an untouched kernel direction).
  bool test_k_side(std::size_t s) {
    ++epoch_;
    std::size_t killed = 0;
    rows_pending_.clear();
    std::size_t next = 0;
    for (std::uint32_t r = 0; r < q_; ++r) {
      if (next < s && indices_[next] == r) {
        ++next;
        continue;
      }
      const std::size_t nnz = kernel_rows_.count(r);
      if (nnz == 0) continue;
      if (nnz == 1) {
        const std::uint32_t c = kernel_rows_.indices(r)[0];
        if (col_kill_stamp_[c] == epoch_) {
          continue;  // column already pivoted: this row is dependent
        }
        col_kill_stamp_[c] = epoch_;
        ++killed;
      } else {
        rows_pending_.push_back(r);
      }
    }
    entries_.clear();
    std::size_t alive = 0;
    std::uint32_t out_row = 0;
    std::uint64_t gathered = 0;
    for (std::uint32_t r : rows_pending_) {
      const std::uint32_t* idx = kernel_rows_.indices(r);
      const std::uint64_t* val = kernel_rows_.values(r);
      const std::size_t nnz = kernel_rows_.count(r);
      gathered += nnz;
      bool any = false;
      for (std::size_t e = 0; e < nnz; ++e) {
        const std::uint32_t c = idx[e];
        if (col_kill_stamp_[c] == epoch_) {
          continue;  // eliminated by a singleton pivot
        }
        if (col_slot_stamp_[c] != epoch_) {
          col_slot_stamp_[c] = epoch_;
          col_slot_[c] = static_cast<std::uint32_t>(alive++);
        }
        entries_.push_back({out_row, col_slot_[c], val[e]});
        any = true;
      }
      if (any) ++out_row;
    }
    stats_.gathered_nnz += gathered;
    observe_gathered(gathered);
    const std::size_t alive_total = k_ - killed;
    ELMO_DCHECK(alive <= alive_total,
                "residual wider than the unpivoted column space");
    const std::size_t dropped = alive_total - alive;
    if (dropped >= 2) return false;  // >= 2 untouched kernel directions
    scratch_.assign(static_cast<std::size_t>(out_row) * alive, 0);
    for (const GatherEntry& e : entries_) {
      scratch_[e.row * alive + e.col] = e.value;
    }
    const auto outcome = residual_rank(scratch_, out_row, alive, 1 - dropped);
    if (outcome.deficiency_exceeded) return false;
    return dropped + (alive - outcome.rank) == 1;
  }

  /// rank_mod_p with the per-pivot inversion removed: rows below the pivot
  /// are scaled by the pivot value instead of the pivot row being
  /// normalized (row_i <- pv*row_i - head*row_pivot).  Scaling a row by a
  /// nonzero element of Z_p preserves rank, so the outcome — the only
  /// thing the caller reads — is identical to modular::rank_mod_p's; what
  /// it saves is one ~91-multiply invmod per pivot, which dominates on the
  /// few-row residuals this engine produces.
  static modular::RankOutcome residual_rank(std::vector<std::uint64_t>& a,
                                            std::size_t rows,
                                            std::size_t cols,
                                            std::size_t max_deficiency) {
    std::size_t rank = 0;
    std::size_t deficiency = 0;
    for (std::size_t col = 0; col < cols; ++col) {
      std::size_t pivot_row = rank;
      while (pivot_row < rows && a[pivot_row * cols + col] == 0) ++pivot_row;
      if (pivot_row == rows) {
        if (++deficiency > max_deficiency) return {rank, true};
        continue;
      }
      if (pivot_row != rank) {
        for (std::size_t j = col; j < cols; ++j) {
          std::swap(a[rank * cols + j], a[pivot_row * cols + j]);
        }
      }
      const std::uint64_t pv = a[rank * cols + col];
      for (std::size_t i = rank + 1; i < rows; ++i) {
        const std::uint64_t head = a[i * cols + col];
        if (head == 0) continue;
        a[i * cols + col] = 0;
        for (std::size_t j = col + 1; j < cols; ++j) {
          const std::uint64_t scaled = modular::mulmod(pv, a[i * cols + j]);
          const std::uint64_t sub = modular::mulmod(head, a[rank * cols + j]);
          a[i * cols + j] = modular::submod(scaled, sub);
        }
      }
      if (++rank == rows) {
        deficiency += cols - col - 1;
        return {rank, deficiency > max_deficiency};
      }
    }
    return {rank, false};
  }

  static void observe_gathered(std::uint64_t nnz) {
    if constexpr (obs::kObsCompiledIn) {
      static const obs::Histogram gathered =
          obs::Registry::global().histogram("solver.rank_gathered_nnz");
      gathered.observe(nnz);
    }
  }

  SparseRankConfig config_;
  std::size_t m_;
  std::size_t q_;
  std::size_t k_;
  std::size_t r_ = 0;  // rank_p(N) == number of stored rref rows
  ModularRankTester<Scalar> dense_;
  std::vector<std::uint32_t> pivot_row_of_col_;  // q; kNoPivot if none
  SparseCscU64 rref_cols_;    // rref(N) mod p: r_ x q, pivot cols implicit
  SparseCscU64 kernel_rows_;  // K row store: q major slices of width k_

  // Per-test scratch: epoch stamps avoid O(dimension) clears per test.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint32_t> indices_;
  std::vector<std::uint64_t> row_kill_stamp_;  // r_: struck by a unit pivot
  std::vector<std::uint64_t> row_slot_stamp_;  // r_: compaction slot valid
  std::vector<std::uint32_t> row_slot_;
  std::vector<std::uint64_t> col_kill_stamp_;  // k: singleton-killed this test
  std::vector<std::uint64_t> col_slot_stamp_;  // k: compaction slot valid
  std::vector<std::uint32_t> col_slot_;
  std::vector<GatherEntry> entries_;
  std::vector<std::uint64_t> scratch_;
  std::vector<std::uint32_t> rows_pending_;
  RankEngineStats stats_;
};

}  // namespace elmo

// Post-run message-flow and critical-path attribution.
//
// The paper's Algorithm 2/3 wall clock is gated by communication and
// imbalance: every rank holds the full matrix and each iteration ends in an
// all-gather exchange, so the slowest rank of every iteration is the run.
// analyze_flow() folds the evidence of that — the mpsim per-rank wait-class
// counters, the divide-and-conquer subset table, and (when tracing was on)
// the recorded span/flow streams — into one FlowSummary that report.json
// carries as its `flow` object.  This is the data the ROADMAP's adaptive
// scheduler (#4) needs: which subsets were imbalanced and where ranks
// blocked.
//
// Layering: obs is cross-cutting and knows nothing about solvers.  The
// analysis consumes only SolveReport (filled by core/api.cpp) and the raw
// TraceEvent stream.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace elmo::obs {

struct SolveReport;

/// One rank's busy/blocked breakdown (microseconds).  Busy time is the sum
/// of its recorded phase timings; the wait classes come straight from the
/// mpsim RankCounters, so this part needs no trace.
struct FlowRank {
  int rank = 0;
  double busy_us = 0.0;
  double wait_data_us = 0.0;
  double wait_barrier_us = 0.0;
  double wait_straggler_us = 0.0;
  /// busy / (busy + waits); 0 when the rank recorded nothing.
  double utilization = 0.0;
  std::uint64_t max_queue_depth = 0;
};

/// One divide-and-conquer subset's imbalance profile.
struct FlowSubset {
  std::string label;
  /// Slowest rank's busy+wait chain within the subset.
  double critical_path_us = 0.0;
  /// (max busy − mean busy) / max busy · 100 over the subset's ranks.
  double imbalance_pct = 0.0;
  /// Per-rank busy time normalised by the busiest rank (the utilization
  /// histogram the scheduler bins subsets by).
  std::vector<double> utilization;
};

/// The report.json `flow` object.
struct FlowSummary {
  /// True when a trace was recorded and the critical-path fields below are
  /// derived from real span streams (they are 0 otherwise).
  bool traced = false;

  /// Cross-rank critical path through the iteration DAG: per iteration the
  /// slowest rank's iteration span is on the path; their durations sum.
  double critical_path_us = 0.0;
  /// Number of spans contributing to the critical path.
  std::uint64_t critical_path_steps = 0;
  /// Trace extent (last span end − first span start).
  double wall_us = 0.0;
  /// Time along the critical path by span name: the solver phases
  /// ("rank test", "gen cand", "communicate", "merge"), the wait classes
  /// ("data-wait", "barrier-wait", "straggler-wait" — these also lie inside
  /// their enclosing phase, so they overlap the phase entries), and
  /// "other" for time under no recorded sub-span.
  std::map<std::string, double> critical_path_phase_us;

  /// Flow-event pairing: flows opened ('s') and flows with at least one
  /// matching finish ('f').  A healthy run matches every flow; dropped
  /// messages open no flow at all.
  std::uint64_t flows_emitted = 0;
  std::uint64_t flows_matched = 0;

  /// Per-rank breakdown and overall busy-time imbalance (counter-derived;
  /// present for every parallel run, traced or not).
  std::vector<FlowRank> ranks;
  double imbalance_pct = 0.0;
  std::vector<FlowSubset> subsets;

  [[nodiscard]] JsonValue to_json() const;
};

/// Fold a finished run into its FlowSummary.  `events` is the recorder's
/// snapshot_events() stream, or nullptr for an untraced run (the counter-
/// derived sections are still produced).  Deterministic: the result is a
/// pure function of the report and the event stream.
[[nodiscard]] FlowSummary analyze_flow(const SolveReport& report,
                                       const std::vector<TraceEvent>* events);

}  // namespace elmo::obs

// Live progress and ETA reporting.
//
// A ProgressReporter receives one update per solver iteration (the nullspace
// algorithm's outer loop over rows), measures throughput in candidate pairs
// per second, and
//   * prints throttled single-line progress to stderr (at most one line per
//     `interval_seconds`), and/or
//   * appends machine-readable JSONL heartbeat records to a file, so an
//     external watcher can track a long solve without parsing human output.
//
// Completion and ETA are iteration-based: with `total_iterations` known (one
// iteration per constrained row), fraction = iterations / total and
// eta = elapsed * (1 - fraction) / fraction.  Without it neither is shown.
//
// Thread-safe: solver callbacks from concurrent ranks may land here.
// Standard library only — this sits below every other module.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>

namespace elmo::obs {

class JsonValue;  // obs/json.hpp — only touched in the implementation

struct ProgressOptions {
  /// Print human-readable progress lines to stderr.
  bool print = false;
  /// Minimum seconds between consecutive progress lines / heartbeats.
  double interval_seconds = 0.5;
  /// Append JSONL heartbeat records to this path ("" = off).
  std::string heartbeat_path;
  /// Expected total iterations (rows to process); 0 = unknown.
  std::uint64_t total_iterations = 0;
  /// Prefix for progress lines, e.g. the network or subset name.
  std::string label;
  /// Optional gauges polled at every heartbeat (null = field omitted).
  /// std::function keeps obs — the bottom layer — free of a dependency on
  /// the resource module that typically feeds these (governor usage and
  /// out-of-core spill volume).  RSS/peak-RSS need no source; the reporter
  /// reads them from /proc itself.
  std::function<std::uint64_t()> mem_usage_source;
  std::function<std::uint64_t()> spill_bytes_source;
};

/// One progress sample, as reported by the solver after each iteration.
struct ProgressSample {
  std::uint64_t iteration = 0;      // 1-based index of the finished iteration
  std::uint64_t pairs_probed = 0;   // pairs probed in THIS iteration
  std::uint64_t accepted = 0;       // new columns accepted in this iteration
  std::uint64_t columns = 0;        // matrix width after this iteration
};

class ProgressReporter {
 public:
  explicit ProgressReporter(ProgressOptions options);
  ~ProgressReporter();

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  /// Record a finished iteration; may emit a progress line / heartbeat if
  /// the throttle interval has elapsed.
  void on_iteration(const ProgressSample& sample);

  /// Record a completed subset (divide-and-conquer partition).  Never
  /// throttled: a subset that finishes faster than `interval_seconds` —
  /// common for the small tail subsets — still leaves a record, so an
  /// external watcher sees every partition land exactly once.
  void on_subset(const std::string& label, std::uint64_t num_efms,
                 double seconds);

  /// Emit the final summary line and heartbeat (idempotent).  If never
  /// called, the destructor emits the terminal record instead, so a solve
  /// that completes inside one heartbeat interval (or aborts between
  /// updates) still closes its heartbeat stream with a `done` record.
  void finish(std::uint64_t num_efms);

  /// Cumulative pairs probed so far (for tests).
  [[nodiscard]] std::uint64_t pairs_so_far() const;

 private:
  /// Emit one line + heartbeat from the current state.  Caller holds mutex_.
  void emit_locked(bool final_line, std::uint64_t num_efms);

  /// Append one JSONL record to the heartbeat file.  Caller holds mutex_.
  void write_heartbeat_locked(const JsonValue& record);

  ProgressOptions options_;
  mutable std::mutex mutex_;
  std::FILE* heartbeat_ = nullptr;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_emit_;
  std::uint64_t iterations_seen_ = 0;
  std::uint64_t cumulative_pairs_ = 0;
  std::uint64_t columns_ = 0;
  bool finished_ = false;
};

/// Format a count with a k/M/G suffix ("12.3M"), for progress lines.
std::string format_count(std::uint64_t value);

/// Format seconds as "1.2s" / "3m04s" / "2h11m" for ETA display.
std::string format_duration(double seconds);

}  // namespace elmo::obs
